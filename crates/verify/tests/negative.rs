//! Negative fixtures for every `hymv-verify` static pass: each feeds the
//! analyzer a plan with a planted defect and asserts the *exact*
//! counterexample or diagnostic comes back — guarding against
//! the quiet failure mode of a static checker that "passes" because it
//! stopped seeing anything.

use hymv_core::{BlockPlan, HymvMaps};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};
use hymv_verify::{
    check_gidx_bounds, check_plan_bounds, check_plan_consistency, check_system, verify_exchange,
    Op, PlanSummary, SendMode, System,
};

// ---------------------------------------------------------------------------
// Pass 1 fixtures: exchange-plan model checker
// ---------------------------------------------------------------------------

/// A two-rank plan that posts its receive before its send. Even with
/// buffered sends this deadlocks immediately: both ranks block on a
/// message the other has not sent yet. The minimal counterexample is the
/// empty trace — the initial state is already dead.
#[test]
fn deadlocking_two_rank_plan_yields_empty_trace() {
    let tag = 0x0C01;
    let sys = System {
        programs: vec![
            vec![Op::Recv { src: 1, tag }, Op::Send { dst: 1, tag }],
            vec![Op::Recv { src: 0, tag }, Op::Send { dst: 0, tag }],
        ],
        mode: SendMode::Buffered,
    };
    let r = check_system(&sys);
    assert_eq!(
        r.counterexample,
        Some(vec![]),
        "recv-before-send cycle must deadlock at the initial state"
    );
    let text = format!("{}", r.report);
    assert!(text.contains("deadlock:"), "{text}");
    assert!(
        text.contains("rank 0 blocked at op 0: `recv <- rank 1 tag 0xc01`"),
        "{text}"
    );
    assert!(
        text.contains("rank 1 blocked at op 0: `recv <- rank 0 tag 0xc01`"),
        "{text}"
    );
    assert!(text.contains("minimal counterexample (0 step(s)"), "{text}");
}

/// The classic cyclic send/send plan. Fine under `hymv_comm`'s buffered
/// sends, a head-to-head deadlock under rendezvous semantics — the model
/// must find it in `Synchronous` mode and prove its absence in `Buffered`.
#[test]
fn cyclic_send_send_plan_deadlocks_only_under_rendezvous() {
    let tag = 7;
    let programs = vec![
        vec![Op::Send { dst: 1, tag }, Op::Recv { src: 1, tag }],
        vec![Op::Send { dst: 0, tag }, Op::Recv { src: 0, tag }],
    ];
    let buffered = check_system(&System {
        programs: programs.clone(),
        mode: SendMode::Buffered,
    });
    assert!(buffered.counterexample.is_none());
    assert!(buffered.report.is_clean(), "{}", buffered.report);

    let sync = check_system(&System {
        programs,
        mode: SendMode::Synchronous,
    });
    assert_eq!(sync.counterexample, Some(vec![]));
    let text = format!("{}", sync.report);
    assert!(
        text.contains("rank 0 blocked at op 0: `send -> rank 1 tag 0x7`")
            && text.contains("synchronous send: receiver never reaches the matching recv"),
        "{text}"
    );
}

/// A plan whose LNSM and GNGM disagree: rank 0 scatters 4 nodes to rank 1,
/// but rank 1 expects 5 — the static consistency pass must name the edge
/// and both counts.
#[test]
fn inconsistent_plan_shapes_name_the_edge() {
    let plans = vec![
        PlanSummary {
            send_plan: vec![(1, 4)],
            recv_plan: vec![],
        },
        PlanSummary {
            send_plan: vec![],
            recv_plan: vec![(0, 5)],
        },
    ];
    let v = check_plan_consistency(&plans);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].contains("edge rank 0 -> rank 1")
            && v[0].contains("4 node(s)")
            && v[0].contains("5 node(s)"),
        "{}",
        v[0]
    );
}

/// A rank waiting for a message that is never sent: the search must walk
/// the healthy rank to completion (a nonempty trace) and then report the
/// orphaned receive, alongside the static unmatched-channel violation.
#[test]
fn orphaned_receive_gets_nonempty_minimal_trace() {
    let sys = System {
        programs: vec![vec![Op::ComputeIndep], vec![Op::Recv { src: 0, tag: 9 }]],
        mode: SendMode::Buffered,
    };
    let r = check_system(&sys);
    assert_eq!(r.counterexample, Some(vec![(0, Op::ComputeIndep)]));
    let text = format!("{}", r.report);
    assert!(
        text.contains("rank 0 -> rank 1 tag 0x9 has 0 send(s) but 1 receive(s)"),
        "{text}"
    );
    assert!(text.contains("minimal counterexample (1 step(s)"), "{text}");
}

// ---------------------------------------------------------------------------
// Pass 2 fixture: out-of-bounds block-plan index
// ---------------------------------------------------------------------------

/// One rank's maps of an `n³` Hex8 mesh.
fn one_rank_maps(n: usize) -> HymvMaps {
    let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    HymvMaps::build(&pm.parts[0])
}

/// A real plan checked against the DA of a smaller mesh (27 dofs) than it
/// was built on (64): its tables address dofs past that DA's end, and the
/// check must name the set, the block, the index and the DA size.
#[test]
fn plan_index_past_the_da_reports_set_block_and_index() {
    let (built, small) = (one_rank_maps(3), one_rank_maps(2));
    let plan = BlockPlan::build(&built, 1, 4);
    assert!(check_plan_bounds(&built, &plan, 1).is_clean());

    assert!(!check_plan_bounds(&small, &plan, 1).is_clean());
    let v = check_gidx_bounds(&small, plan.set(false), 1, "independent");
    assert!(!v.is_empty(), "a 64-dof plan must overrun a 27-dof DA");
    let diag = &v[0];
    assert!(diag.starts_with("independent block "), "{diag}");
    assert!(
        diag.contains("gather/scatter index") && diag.ends_with("out of bounds (DA has 27 dofs)"),
        "{diag}"
    );
}

// ---------------------------------------------------------------------------
// Positive controls: the real system proves clean
// ---------------------------------------------------------------------------

/// The acceptance bar: fig4-style Hex8 meshes at np ∈ {1, 2, 4, 8} —
/// build the real exchange plans, model-check them, and check every block
/// plan's indices in bounds. All static; only the plan build itself runs
/// the comm substrate.
#[test]
fn fig4_plans_verify_clean_np_1_2_4_8() {
    let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
    for p in [1usize, 2, 4, 8] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let per_rank: Vec<(HymvMaps, PlanSummary)> = hymv_comm::Universe::run(p, |comm| {
            let maps = HymvMaps::build(&pm.parts[comm.rank()]);
            let ex = hymv_core::GhostExchange::build(comm, &maps);
            let summary = PlanSummary::from_exchange(&ex);
            (maps, summary)
        });
        let (maps, plans): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
        let result = verify_exchange(&plans, &maps);
        assert!(result.report.is_clean(), "np={p}: {}", result.report);
        assert!(result.counterexample.is_none(), "np={p}");
        for (rank, m) in maps.iter().enumerate() {
            let plan = BlockPlan::build(m, 1, 8);
            let report = check_plan_bounds(m, &plan, 1);
            assert!(report.is_clean(), "np={p} rank={rank}: {report}");
        }
    }
}
