//! Figure 5: scalability for the elasticity problem, structured Hex8
//! meshes, with the setup-cost breakdown (element-matrix computation vs
//! assembly communication / local copy).
//!
//! * `fig5 weak`   — weak scaling (paper Fig 5a).
//! * `fig5 strong` — strong scaling (paper Fig 5b).
//!
//! Paper findings in shape: HYMV setup ~5× faster than assembled setup
//! (the breakdown shows identical EMat-compute components and a large
//! "PETSc communication" bar vs HYMV's tiny "local copy" bar); matrix-free
//! SPMV far more expensive (it re-integrates elasticity matrices each
//! apply).

use hymv_bench::{elasticity_case, ratio, run_setup_and_spmv, secs, Reporter};
use hymv_core::system::Method;
use hymv_fem::analytic::BarProblem;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

const PER_RANK_DOFS: usize = 6_000;
const WEAK_RANKS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const STRONG_DOFS: usize = 48_000;
const STRONG_RANKS: [usize; 5] = [2, 4, 8, 16, 32];

fn build_case(n: usize) -> hymv_bench::Case {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex8, lo, hi).build();
    elasticity_case("fig5", mesh, bar)
}

fn run(kind: &str, ranks: &[usize], sizing: impl Fn(usize) -> usize) {
    let mut rep = Reporter::new(
        &format!("fig5-{kind}"),
        &[
            "p",
            "DoFs",
            "PETSc emat",
            "PETSc comm",
            "HYMV emat",
            "HYMV copy+maps",
            "setup speedup",
            "PETSc 10SPMV",
            "HYMV 10SPMV",
            "matfree 10SPMV",
        ],
    );
    for &p in ranks {
        let case = build_case(sizing(p));
        let asm = run_setup_and_spmv(&case, p, Method::Assembled, 1, PartitionMethod::Slabs, 10);
        let hymv = run_setup_and_spmv(&case, p, Method::Hymv, 1, PartitionMethod::Slabs, 10);
        let mf = run_setup_and_spmv(&case, p, Method::MatFree, 1, PartitionMethod::Slabs, 10);
        rep.row(vec![
            p.to_string(),
            case.n_dofs().to_string(),
            secs(asm.setup_emat_s),
            secs(asm.setup_overhead_s),
            secs(hymv.setup_emat_s),
            secs(hymv.setup_overhead_s),
            ratio(asm.setup_total_s(), hymv.setup_total_s()),
            secs(asm.spmv_s),
            secs(hymv.spmv_s),
            secs(mf.spmv_s),
        ]);
    }
    rep.note("paper Fig 5: HYMV setup ~5x faster; EMat-compute components match across methods; matrix-free SPMV dominated by per-apply re-integration");
    rep.note(format!(
        "scaled-down sweep: {PER_RANK_DOFS} DoFs/rank (paper: 33.5K); virtual seconds"
    ));
    rep.finish();
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if mode == "weak" || mode == "all" {
        run("weak", &WEAK_RANKS, |p| {
            ((PER_RANK_DOFS * p) as f64 / 3.0).powf(1.0 / 3.0).round() as usize - 1
        });
    }
    if mode == "strong" || mode == "all" {
        run("strong", &STRONG_RANKS, |_| {
            (STRONG_DOFS as f64 / 3.0).powf(1.0 / 3.0).round() as usize - 1
        });
    }
}
