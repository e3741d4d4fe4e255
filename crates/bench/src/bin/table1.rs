//! Table I: FLOPs, time, and FLOP rate of ten SPMVs for the four
//! implementations (matrix-assembled, HYMV, HYMV-GPU, matrix-free), at
//! two granularities and two "node counts".
//!
//! Paper findings in shape (per node-count column):
//! FLOP counts: matrix-free ≫ HYMV = HYMV-GPU > assembled;
//! FLOP rates: matrix-free > HYMV-GPU > HYMV > assembled;
//! yet *time*: HYMV-GPU < HYMV < assembled < matrix-free — the paper's
//! argument that AI and FLOP-rate are not the metrics that matter.

use hymv_bench::{
    elasticity_case, run_gpu_spmv, run_setup_and_spmv, GpuConfig, GpuMethod, Reporter,
};
use hymv_core::system::Method;
use hymv_fem::analytic::BarProblem;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

fn build_case(p: usize, per_rank: usize) -> hymv_bench::Case {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let n = hymv_bench::mesh_n_for_dofs(ElementType::Hex20, 3, p, per_rank);
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex20, lo, hi).build();
    elasticity_case("table1", mesh, bar)
}

fn main() {
    let mut rep = Reporter::new(
        "table1",
        &[
            "granularity",
            "ranks",
            "method",
            "GFLOP",
            "time (s)",
            "GFLOP/s",
        ],
    );
    // Paper: {0.1M, 0.2M} DoFs/rank on {56, 224} ranks; scaled to the
    // single-core host: {3K, 6K} DoFs/rank on {2, 8} thread-ranks.
    for per_rank in [3_000usize, 6_000] {
        for p in [2usize, 8] {
            let case = build_case(p, per_rank);
            let gran = format!("{}K/rank", per_rank / 1000);
            let mut add = |name: &str, gflop: f64, t: f64| {
                rep.row(vec![
                    gran.clone(),
                    p.to_string(),
                    name.to_string(),
                    format!("{gflop:.2}"),
                    format!("{t:.4}"),
                    format!("{:.2}", gflop / t),
                ]);
            };
            let r = run_setup_and_spmv(&case, p, Method::Assembled, 1, PartitionMethod::Slabs, 10);
            add("matrix-assembled", r.gflop, r.spmv_s);
            let r = run_setup_and_spmv(&case, p, Method::Hymv, 1, PartitionMethod::Slabs, 10);
            add("HYMV", r.gflop, r.spmv_s);
            let r = run_gpu_spmv(
                &case,
                p,
                GpuMethod::Hymv,
                GpuConfig::default(),
                PartitionMethod::Slabs,
                10,
            );
            add("HYMV GPU", r.gflop, r.spmv_s);
            let r = run_setup_and_spmv(&case, p, Method::MatFree, 1, PartitionMethod::Slabs, 10);
            add("matrix-free", r.gflop, r.spmv_s);
        }
    }
    rep.note("paper Table I (one node, 0.1M/rank): assembled 19.2 GF / 0.80 s / 24.1 GF/s; HYMV 32.3 / 0.72 / 44.7; HYMV GPU 32.3 / 0.31 / 103.7; matrix-free 2264 / 7.46 / 303.4");
    rep.note("shape to reproduce: FLOPs mf >> HYMV = HYMV-GPU > assembled; rate mf > GPU > HYMV > assembled; time GPU < HYMV ~ assembled << mf");
    rep.finish();
}
