//! Figure 6: elasticity with 20-node quadratic elements — pure-MPI HYMV vs
//! hybrid (MPI + "OpenMP") HYMV vs the assembled baseline.
//!
//! * `fig6 weak`   — weak scaling (paper Fig 6a).
//! * `fig6 strong` — strong scaling (paper Fig 6b).
//!
//! Hybrid configuration mirrors the paper: the same total core count, but
//! fewer MPI ranks each driving `threads` shared-memory workers over the
//! elemental loop. The threads are modeled: each rank runs its one element
//! loop and is charged its Amdahl time on `threads` threads (see
//! `hymv_comm::CostModel::smp_speedup`).
//!
//! Paper findings in shape: both HYMV variants beat the assembled SPMV;
//! hybrid beats pure-MPI for quadratic elements (HYMV hybrid ≈ 1.7×
//! PETSc in the weak sweep).

use hymv_bench::{elasticity_case, ratio, run_setup_and_spmv, secs, Reporter};
use hymv_core::system::Method;
use hymv_fem::analytic::BarProblem;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

const PER_RANK_DOFS: usize = 6_000;
/// Hybrid: ranks × threads = cores; the paper uses sockets × 14 threads.
const THREADS: usize = 4;
const WEAK_CORES: [usize; 5] = [4, 8, 16, 32, 64];
const STRONG_DOFS: usize = 60_000;
const STRONG_CORES: [usize; 4] = [8, 16, 32, 64];

fn build_case(cores: usize, per_rank: usize) -> hymv_bench::Case {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let n = hymv_bench::mesh_n_for_dofs(ElementType::Hex20, 3, cores, per_rank);
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex20, lo, hi).build();
    elasticity_case("fig6", mesh, bar)
}

fn run(kind: &str, cores_sweep: &[usize], per_rank: impl Fn(usize) -> usize) {
    let mut rep = Reporter::new(
        &format!("fig6-{kind}"),
        &[
            "cores",
            "DoFs",
            "PETSc 10SPMV",
            "HYMV pure-MPI",
            "HYMV hybrid",
            "hybrid vs PETSc",
        ],
    );
    for &cores in cores_sweep {
        let case = build_case(cores, per_rank(cores));
        // Pure MPI: one rank per core.
        let asm = run_setup_and_spmv(
            &case,
            cores,
            Method::Assembled,
            1,
            PartitionMethod::Slabs,
            10,
        );
        let pure = run_setup_and_spmv(&case, cores, Method::Hymv, 1, PartitionMethod::Slabs, 10);
        // Hybrid: cores/THREADS ranks, each with THREADS modeled workers.
        let hybrid = run_setup_and_spmv(
            &case,
            cores / THREADS,
            Method::Hymv,
            THREADS,
            PartitionMethod::Slabs,
            10,
        );
        rep.row(vec![
            cores.to_string(),
            case.n_dofs().to_string(),
            secs(asm.spmv_s),
            secs(pure.spmv_s),
            secs(hybrid.spmv_s),
            ratio(asm.spmv_s, hybrid.spmv_s),
        ]);
    }
    rep.note("paper Fig 6: HYMV (both variants) below PETSc; hybrid below pure-MPI for quadratic elements (avg 1.7x vs PETSc weak, 1.2x strong)");
    rep.note(format!("hybrid = cores/{THREADS} ranks x {THREADS} modeled threads over one elemental loop; {PER_RANK_DOFS} DoFs/core (paper: 33.5K)"));
    rep.finish();
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if mode == "weak" || mode == "all" {
        run("weak", &WEAK_CORES, |_| PER_RANK_DOFS);
    }
    if mode == "strong" || mode == "all" {
        run("strong", &STRONG_CORES, |cores| STRONG_DOFS / cores);
    }
}
