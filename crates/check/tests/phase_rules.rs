//! One planted defect per run-time phase rule. Each runs a small
//! `Universe` program under the protocol audit and asserts the typed
//! violation that names the rule (DESIGN.md §9's rule → check table).
//!
//! The window rules plant their defect in an element source that
//! `hymv_core::schedule::apply` runs inside its scatter window, the shape
//! of every operator's SPMV.

use hymv_check::run_perturbed;
use hymv_comm::{
    AuditMode, AuditReport, AuditViolation, BlockingOp, CollectiveKind, Comm, CountingAlloc,
    FaultKind, FaultReport, Payload, RunConfig, Universe,
};
use hymv_core::schedule::{apply, ElementSource, Overlap};
use hymv_core::{DistArray, GhostExchange, HymvMaps};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};

/// Counts allocations, as the `hymv-check` binary does.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A user tag for the planted traffic.
const TAG_PLANTED: u32 = 0x51;

/// Run `f` on `p` ranks under the full audit; returns every rank's
/// outcome and the report.
fn audited<T: Send>(
    p: usize,
    f: impl Fn(&mut Comm) -> T + Sync,
) -> (Vec<Result<T, FaultReport>>, AuditReport) {
    let cfg = RunConfig {
        audit: AuditMode::Enabled,
        ..RunConfig::default()
    };
    let (out, report) = Universe::run_chaos(cfg, p, f);
    (out, report.expect("the audit is on"))
}

/// The violations of `report` that break `rule`.
fn broken<'a>(report: &'a AuditReport, rule: &str) -> Vec<&'a AuditViolation> {
    report
        .violations
        .iter()
        .filter(|v| v.rule() == rule)
        .collect()
}

/// An element source whose independent set runs `defect` besides its
/// (empty) element work.
struct Planted<F>(F);

impl<F: FnMut(&mut Comm, &DistArray, &mut DistArray)> ElementSource for Planted<F> {
    fn run_element_set(
        &mut self,
        comm: &mut Comm,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
    ) {
        if !dependent {
            (self.0)(comm, u, v);
        }
    }
}

/// One overlapped apply on two ranks of a 4³ Hex8 mesh through `source`;
/// returns the owned output.
fn apply_with<F>(comm: &mut Comm, source: F) -> Vec<f64>
where
    F: FnMut(&mut Comm, &DistArray, &mut DistArray),
{
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, comm.size(), PartitionMethod::Slabs);
    let maps = HymvMaps::build(&pm.parts[comm.rank()]);
    let exchange = GhostExchange::build(comm, &maps);
    let (mut u, mut v) = (DistArray::new(&maps, 1), DistArray::new(&maps, 1));
    u.owned_mut().fill(1.0);
    let mut src = Planted(source);
    apply(
        comm,
        &exchange,
        Overlap::Overlapped,
        &mut src,
        &mut u,
        &mut v,
        0,
    );
    v.owned().to_vec()
}

#[test]
fn a_recv_in_the_window_is_window_blocking() {
    let (out, report) = audited(2, |comm| {
        apply_with(comm, |comm, _, _| {
            let peer = 1 - comm.rank();
            comm.isend(peer, TAG_PLANTED, Payload::from_u64(vec![7]));
            comm.recv(peer, TAG_PLANTED);
        })
    });
    assert!(out.iter().all(Result::is_err), "the run stops typed");
    let found = broken(&report, "window-blocking");
    assert!(
        found.iter().any(|v| matches!(
            v,
            AuditViolation::BlockingInWindow {
                op: BlockingOp::Recv {
                    src: Some(_),
                    tag: TAG_PLANTED
                },
                ..
            }
        )),
        "{report}"
    );
    assert!(report.to_string().contains("recv from rank"), "{report}");
}

#[test]
fn a_barrier_in_the_window_is_window_blocking() {
    let (out, report) = audited(2, |comm| apply_with(comm, |comm, _, _| comm.barrier()));
    assert!(out.iter().any(|r| matches!(
        r,
        Err(FaultReport {
            kind: FaultKind::ProtocolViolation {
                rule: "window-blocking"
            },
            ..
        })
    )));
    let found = broken(&report, "window-blocking");
    assert!(!found.is_empty(), "{report}");
    assert!(found.iter().all(|v| matches!(
        v,
        AuditViolation::BlockingInWindow {
            op: BlockingOp::Collective {
                kind: CollectiveKind::Barrier,
                ..
            },
            ..
        }
    )));
}

#[test]
fn an_allocation_in_the_window_is_window_allocation() {
    let (_, report) = audited(2, |comm| {
        apply_with(comm, |_, _, v| {
            let scratch = vec![1.0f64; 64];
            v.data[0] += std::hint::black_box(scratch)[0] * 0.0;
        })
    });
    let found = broken(&report, "window-allocation");
    assert_eq!(found.len(), 2, "{report}");
    assert!(found.iter().all(|v| matches!(
        v,
        AuditViolation::AllocationInWindow {
            allocs: 1,
            bytes: 512,
            ..
        }
    )));
    // The same apply without the planted allocation is clean.
    let (_, clean) = audited(2, |comm| apply_with(comm, |_, _, _| {}));
    assert!(clean.is_clean(), "{clean}");
}

/// The ghost slots hold a tagged NaN until the scatter lands, so a read
/// inside the window reaches the result, and the judge names the rule.
#[test]
#[should_panic(expected = "window-ghost-read")]
fn a_ghost_read_in_the_window_is_window_ghost_read() {
    run_perturbed(2, &[1], |comm| {
        apply_with(comm, |_, u, v| {
            for (y, x) in v.data.iter_mut().zip(&u.data) {
                *y += x;
            }
        })
    });
}

/// Rank 0 posts a barrier where the others post an allreduce: the run
/// stops typed on every rank instead of combining mismatched
/// contributions.
#[test]
fn a_kind_mismatch_is_collective_kind_mismatch() {
    let (out, report) = audited(3, |comm| {
        if comm.rank() == 0 {
            comm.barrier();
        } else {
            comm.allreduce_sum_f64(1.0);
        }
    });
    assert!(out.iter().all(Result::is_err), "every rank stops");
    assert!(out.iter().any(|r| matches!(
        r,
        Err(FaultReport {
            kind: FaultKind::ProtocolViolation {
                rule: "collective-kind-mismatch"
            },
            ..
        })
    )));
    let found = broken(&report, "collective-kind-mismatch");
    assert!(!found.is_empty(), "{report}");
    assert!(found
        .iter()
        .all(|v| matches!(v, AuditViolation::CollectiveKindMismatch { seq: 0, .. })));
    assert!(report.to_string().contains("barrier"), "{report}");
}

/// Only rank 0 posts the last barrier: it stops typed instead of waiting
/// for a rank that has returned.
#[test]
fn a_rank_conditional_final_barrier_is_collective_never_posted() {
    let (out, report) = audited(2, |comm| {
        comm.barrier();
        if comm.rank() == 0 {
            comm.barrier();
        }
    });
    assert!(out[1].is_ok());
    assert!(matches!(
        out[0],
        Err(FaultReport {
            rank: 0,
            kind: FaultKind::ProtocolViolation {
                rule: "collective-never-posted"
            }
        })
    ));
    assert!(
        matches!(
            broken(&report, "collective-never-posted").as_slice(),
            [AuditViolation::CollectiveNeverPosted {
                seq: 1,
                rank: 0,
                kind: CollectiveKind::Barrier,
                exited: 1
            }]
        ),
        "{report}"
    );
}

/// Rank 1 returns early under a rank guard with a reduction still ahead.
#[test]
fn an_early_return_under_a_rank_guard_is_collective_never_posted() {
    let (out, report) = audited(3, |comm| {
        let mut sum = 0.0;
        for step in 0..3 {
            if comm.rank() == 1 && step == 1 {
                return sum;
            }
            sum += comm.allreduce_sum_f64(1.0);
        }
        sum
    });
    assert_eq!(out[1], Ok(3.0));
    assert!(out[0].is_err() && out[2].is_err(), "{out:?}");
    let found = broken(&report, "collective-never-posted");
    assert!(!found.is_empty(), "{report}");
    assert!(found.iter().all(|v| matches!(
        v,
        AuditViolation::CollectiveNeverPosted {
            seq: 1,
            kind: CollectiveKind::Iallreduce { len: 1, .. },
            exited: 1,
            ..
        }
    )));
}

/// A raw send on an envelope tag stops the receiver typed, naming the
/// rule, instead of leaving it waiting for a resend that cannot come.
#[test]
fn a_raw_send_on_an_envelope_tag_is_envelope_bypass() {
    let (out, _) = audited(2, |comm| {
        if comm.rank() == 0 {
            comm.isend(1, TAG_PLANTED, Payload::from_f64(vec![1.0, 2.0]));
        } else {
            comm.recv_enveloped(0, TAG_PLANTED);
        }
    });
    assert!(matches!(
        out[1],
        Err(FaultReport {
            rank: 1,
            kind: FaultKind::ProtocolViolation {
                rule: "envelope-bypass"
            }
        })
    ));
}
