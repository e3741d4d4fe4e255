//! Figure 4: scalability for Poisson's problem, structured Hex8 meshes.
//!
//! * `fig4 weak`   — weak scaling (fixed DoFs per rank); paper Fig 4a.
//! * `fig4 strong` — strong scaling (fixed global DoFs); paper Fig 4b.
//! * `fig4`        — both.
//!
//! Bars in the paper: PETSc (assembled) setup vs HYMV setup. Lines: time
//! for ten SPMVs of PETSc / HYMV / matrix-free. Paper findings to
//! reproduce in shape: HYMV setup ~10× (weak) / ~9× (strong) faster than
//! the assembled setup; HYMV SPMV comparable to assembled; matrix-free
//! SPMV far slower.
//!
//! Scale note: rank counts and granularity are reduced to what one
//! physical core can execute (the paper ran 56–28 672 Frontera cores at
//! 11.3K DoFs/rank); times are virtual (see hymv-comm docs).

use hymv_bench::{poisson_case, ratio, run_setup_and_spmv, secs, Reporter};
use hymv_core::system::Method;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

const PER_RANK_DOFS: usize = 4_000;
const WEAK_RANKS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const STRONG_DOFS: usize = 64_000;
const STRONG_RANKS: [usize; 5] = [2, 4, 8, 16, 32];

fn run(kind: &str, ranks: &[usize], sizing: impl Fn(usize) -> usize) {
    let mut rep = Reporter::new(
        &format!("fig4-{kind}"),
        &[
            "p",
            "DoFs",
            "PETSc setup",
            "HYMV setup",
            "setup speedup",
            "PETSc 10SPMV",
            "HYMV 10SPMV",
            "matfree 10SPMV",
            "wall(s)",
        ],
    );
    for &p in ranks {
        let n = sizing(p);
        let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
        let case = poisson_case("fig4", mesh);
        let asm = run_setup_and_spmv(&case, p, Method::Assembled, 1, PartitionMethod::Slabs, 10);
        let hymv = run_setup_and_spmv(&case, p, Method::Hymv, 1, PartitionMethod::Slabs, 10);
        let mf = run_setup_and_spmv(&case, p, Method::MatFree, 1, PartitionMethod::Slabs, 10);
        rep.row(vec![
            p.to_string(),
            case.n_dofs().to_string(),
            secs(asm.setup_total_s()),
            secs(hymv.setup_total_s()),
            ratio(asm.setup_total_s(), hymv.setup_total_s()),
            secs(asm.spmv_s),
            secs(hymv.spmv_s),
            secs(mf.spmv_s),
            format!("{:.1}", asm.wall_s + hymv.wall_s + mf.wall_s),
        ]);
    }
    rep.note("paper Fig 4: HYMV setup ~10x faster than PETSc setup at scale; HYMV SPMV ≈ PETSc SPMV; matrix-free SPMV far slower");
    rep.note(format!("scaled-down sweep: {PER_RANK_DOFS} DoFs/rank (paper: 11.3K), ranks ≤ 32 thread-ranks (paper: ≤ 28,672 cores); times are virtual seconds"));
    rep.finish();
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if mode == "weak" || mode == "all" {
        run("weak", &WEAK_RANKS, |p| {
            ((PER_RANK_DOFS * p) as f64).powf(1.0 / 3.0).round() as usize - 1
        });
    }
    if mode == "strong" || mode == "all" {
        run("strong", &STRONG_RANKS, |_| {
            (STRONG_DOFS as f64).powf(1.0 / 3.0).round() as usize - 1
        });
    }
}
