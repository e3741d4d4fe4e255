//! # hymv-check — correctness tooling for the HYMV stack
//!
//! Three analysis passes over the reproduction's runtime and data
//! structures, usable as a library (from tests) and as the `hymv-check`
//! CLI binary:
//!
//! * [`protocol`] — the **communication protocol auditor**. The
//!   `hymv-comm` runtime records every send, receive, collective, and rank
//!   exit as a typed event; at teardown the log is checked for unmatched
//!   sends, sends to exited ranks, unbalanced collectives, and
//!   reserved-tag traffic. On by default in debug/test builds
//!   (`HYMV_AUDIT` overrides); [`run_audited`] forces it on and returns
//!   the report for inspection.
//! * [`perturb`] — the **schedule-perturbation race detector**.
//!   [`run_perturbed`] re-executes a rank program under seeded legal
//!   reorderings of message delivery (plus virtual-time jitter) and
//!   asserts bitwise-identical results, catching programs whose output
//!   depends on arrival order.
//! * [`maps`] — the **map/DA invariant pass**. [`check_maps`],
//!   [`check_partition`], and [`check_exchange`] verify `E2L`
//!   bijectivity, the `[pre-ghost | owned | post-ghost]` DA ordering,
//!   partition range tiling, and the LNSM/GNGM transpose duality
//!   (structurally and with numerical scatter/gather probes).
//! * [`chaos`] — the **seeded fault-scenario sweep** (`hymv-chaos`
//!   binary). [`chaos_sweep`] solves the same Poisson system fault-free
//!   and under injected drop/duplicate/corrupt/reorder/delay/crash plans
//!   across the SPMV operators, asserting bitwise-identical recovery or
//!   a typed abort — never a hang, never a silently wrong answer.
//! * [`lflr`] — the **crash-recovery matrix sweep**. [`lflr_sweep`]
//!   crosses crash windows (scatter / allreduce / block-refresh) with
//!   solver drivers (`cg`, `block_cg`, the batched solve service) under
//!   armed buddy checkpointing, asserting every case detects the crash,
//!   repairs the world, and converges to the fault-free solution bits.

#![forbid(unsafe_code)]

pub mod biteq;
pub mod chaos;
pub mod lflr;
pub mod maps;
pub mod perturb;
pub mod protocol;
pub mod report;

pub use biteq::BitEq;
pub use chaos::{chaos_sweep, ChaosCase, ChaosSummary, Scenario};
pub use lflr::{lflr_sweep, CrashWindow, Driver, LflrCase, LflrSummary};
pub use maps::{check_exchange, check_maps, check_partition, MapsReport};
pub use perturb::{parse_seeds, run_perturbed, seeds_from_env, SEEDS_ENV};
pub use protocol::{run_audited, AuditMode, AuditReport, AuditViolation};
pub use report::PassReport;

use std::sync::Arc;

use hymv_core::HymvOperator;
use hymv_fem::PoissonKernel;
use hymv_la::Multivector;
use hymv_mesh::PartitionedMesh;

/// Certify that the full HYMV SPMV — map build, LNSM/GNGM construction,
/// ghost scatter, overlapped elemental loops, ghost-accumulation gather —
/// is bitwise deterministic under every schedule perturbation seed.
///
/// Runs one matvec of the Poisson operator per rank — the element loop
/// every operator runs — and returns the baseline owned output vectors
/// (one per rank).
///
/// # Panics
/// If any seed produces a bitwise different result on any rank (see
/// [`run_perturbed`]).
pub fn certify_spmv_determinism(pm: &PartitionedMesh, seeds: &[u64]) -> Vec<Vec<f64>> {
    certify_spmv_determinism_with(pm, None, seeds)
}

/// [`certify_spmv_determinism`] with an explicit EMV batch width:
/// `Some(b)` rebuilds the operator's block plan at `b` lanes (`1` =
/// one-element blocks on the scalar lane); `None` keeps the default width.
pub fn certify_spmv_determinism_with(
    pm: &PartitionedMesh,
    batch: Option<usize>,
    seeds: &[u64],
) -> Vec<Vec<f64>> {
    certify_spmv_on_threads(pm, batch, 1, seeds)
}

/// [`certify_spmv_determinism_with`] on an operator of `threads` modeled
/// threads per rank.
fn certify_spmv_on_threads(
    pm: &PartitionedMesh,
    batch: Option<usize>,
    threads: usize,
    seeds: &[u64],
) -> Vec<Vec<f64>> {
    let p = pm.n_parts();
    let kernel = Arc::new(PoissonKernel::new(pm.parts[0].elem_type));
    run_perturbed(p, seeds, move |comm| {
        let part = &pm.parts[comm.rank()];
        let (mut op, _) = HymvOperator::setup(comm, part, kernel.as_ref());
        if let Some(b) = batch {
            op.set_batch_width(b);
        }
        op.set_threads(threads);
        let n = op.maps().n_owned() * op.ndof();
        // A deterministic, rank-independent input: x(g) spans magnitudes so
        // accumulation-order bugs show up in the low mantissa bits.
        let begin = op.maps().node_range.0;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let g = begin + i as u64;
                ((g % 13) as f64 + 0.125) * 10f64.powi((g % 5) as i32 - 2)
            })
            .collect();
        let mut y = vec![0.0; n];
        op.matvec(comm, &x, &mut y);
        y
    })
}

/// [`certify_spmv_determinism_with`] for the multivector engine: one
/// width-`nvec` SpMM (`Y = K X`) per rank — the SPMV's schedule and ghost
/// exchange on an `nvec`-column DA (one coalesced envelope per neighbour
/// and tag), `emv_batch_mv` panels, whole-row gather/scatter — certified
/// bitwise deterministic across every schedule perturbation seed.
///
/// Column `0` carries the same deterministic input as the single-vector
/// certificate; later columns shift the generator so accumulation-order
/// bugs in any column surface. Returns the column-concatenated owned
/// outputs (one flat vector per rank).
///
/// # Panics
/// If any seed produces a bitwise different result on any rank.
pub fn certify_spmm_determinism(
    pm: &PartitionedMesh,
    batch: Option<usize>,
    nvec: usize,
    seeds: &[u64],
) -> Vec<Vec<f64>> {
    let p = pm.n_parts();
    let kernel = Arc::new(PoissonKernel::new(pm.parts[0].elem_type));
    run_perturbed(p, seeds, move |comm| {
        let part = &pm.parts[comm.rank()];
        let (mut op, _) = HymvOperator::setup(comm, part, kernel.as_ref());
        if let Some(b) = batch {
            op.set_batch_width(b);
        }
        let n = op.maps().n_owned() * op.ndof();
        let begin = op.maps().node_range.0;
        let cols: Vec<Vec<f64>> = (0..nvec)
            .map(|c| {
                (0..n)
                    .map(|i| {
                        let g = begin + i as u64 + c as u64 * 7;
                        ((g % 13) as f64 + 0.125) * 10f64.powi((g % 5) as i32 - 2)
                    })
                    .collect()
            })
            .collect();
        let x = Multivector::from_columns(&cols);
        let mut y = Multivector::new(n, nvec);
        op.matvec_mv(comm, &x, &mut y);
        let mut out = Vec::with_capacity(n * nvec);
        for c in 0..nvec {
            out.extend_from_slice(y.col(c));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_mesh::partition::partition_mesh;
    use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

    /// ≥ 8 seeds, hybrid operator (4 modeled threads per rank),
    /// bitwise-identical SPMV across schedules — and bitwise equal to the
    /// 1-thread SPMV: the thread count is charged, never computed with.
    #[test]
    fn hybrid_spmv_bitwise_deterministic_across_8_seeds() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
        let seeds: Vec<u64> = (1..=8).collect();
        let out = certify_spmv_on_threads(&pm, None, 4, &seeds);
        assert_eq!(out.len(), 4);
        assert!(out.iter().any(|y| y.iter().any(|&v| v != 0.0)));
        assert!(
            out.bit_eq(&certify_spmv_determinism(&pm, &seeds)),
            "4-thread SPMV differs from the 1-thread SPMV"
        );
    }

    #[test]
    fn serial_spmv_deterministic_on_unstructured_partition() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::GreedyGraph);
        let seeds: Vec<u64> = (1..=8).collect();
        certify_spmv_determinism(&pm, &seeds);
    }

    /// The batched engine under the same bar: ≥ 8 seeds, bitwise-identical
    /// results, ragged tails included (the 27-element rank subsets don't
    /// divide by 8), and the `B = 8` plan identical to the `B = 1` plan
    /// (scalar lane, no FMA) within FMA reassociation tolerance.
    #[test]
    fn batched_spmv_bitwise_deterministic_across_8_seeds() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::GreedyGraph);
        let seeds: Vec<u64> = (1..=8).collect();
        let batched = certify_spmv_determinism_with(&pm, Some(8), &seeds);
        let scalar = certify_spmv_determinism_with(&pm, Some(1), &seeds);
        for (yb, ys) in batched.iter().zip(&scalar) {
            for (a, b) in yb.iter().zip(ys) {
                assert!((a - b).abs() < 1e-12, "B = 8 vs B = 1");
            }
        }
    }

    /// The multivector engine (SpMM) under the same bar: ≥ 8 seeds,
    /// bitwise-identical results across schedules, and column 0 bitwise
    /// equal to the single-vector certificate (bw = nvec = 8 selects the
    /// same SIMD fmadd-chain class on whatever features this host has).
    #[test]
    fn multivector_spmm_bitwise_deterministic_across_8_seeds() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::GreedyGraph);
        let seeds: Vec<u64> = (1..=8).collect();
        let mv = certify_spmm_determinism(&pm, Some(8), 8, &seeds);
        let single = certify_spmv_determinism_with(&pm, Some(8), &seeds);
        for (ym, ys) in mv.iter().zip(&single) {
            let n = ys.len();
            assert_eq!(ym.len(), n * 8);
            for (a, b) in ym[..n].iter().zip(ys) {
                assert_eq!(a.to_bits(), b.to_bits(), "SpMM column 0 vs SPMV");
            }
        }
    }
}
