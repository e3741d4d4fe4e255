//! Figure 10: roofline placement of the three SPMV methods — arithmetic
//! intensity (AI) and achieved GFLOP/s for the Hex20 elasticity operator
//! on a single core.
//!
//! The paper generated Fig 10 with Intel Advisor, whose cache-aware
//! roofline (CARM) counts *all* executed memory operations, not just DRAM
//! traffic. We reproduce AI analytically with the same convention
//! (per-instruction load/store accounting, documented inline) and measure
//! GFLOP/s as known-FLOPs / measured-seconds.
//!
//! Paper values: HYMV AI 0.079, 1.61 GF/s; assembled AI 0.161, 1.06 GF/s;
//! matrix-free AI 0.083, 5.05 GF/s. The orderings to reproduce:
//! matrix-free ≫ HYMV > assembled in GFLOP/s, assembled highest in AI.

use hymv_bench::{elasticity_case, run_setup_and_spmv, Reporter};
use hymv_core::system::Method;
use hymv_fem::analytic::BarProblem;
use hymv_fem::{ElasticityKernel, ElementKernel};
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

fn main() {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let n = 10;
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex20, lo, hi).build();
    let ne = mesh.n_elems() as f64;
    let nnz_estimate = {
        // Count exactly by assembling once (cheap at this size).
        use hymv_la::SerialCsr;
        let kernel =
            ElasticityKernel::new(ElementType::Hex20, bar.young, bar.poisson, bar.body_force());
        let nd = kernel.ndof_elem();
        let mut ke = vec![0.0; nd * nd];
        let mut scratch = hymv_fem::kernel::KernelScratch::default();
        let ndofs = mesh.n_nodes() * 3;
        let mut triples = Vec::new();
        for e in 0..mesh.n_elems() {
            let nodes = mesh.elem_nodes(e);
            let coords: Vec<[f64; 3]> = nodes.iter().map(|&g| mesh.coords[g as usize]).collect();
            kernel.compute_ke(&coords, &mut ke, &mut scratch);
            for (bj, &gj) in nodes.iter().enumerate() {
                for cj in 0..3 {
                    for (bi, &gi) in nodes.iter().enumerate() {
                        for ci in 0..3 {
                            let v = ke[(bj * 3 + cj) * nd + bi * 3 + ci];
                            if v != 0.0 {
                                triples.push((
                                    (gi * 3 + ci as u64) as u32,
                                    (gj * 3 + cj as u64) as u32,
                                    v,
                                ));
                            }
                        }
                    }
                }
            }
        }
        SerialCsr::from_triples(ndofs, ndofs, triples).nnz() as f64
    };

    let case = elasticity_case("fig10", mesh, bar);
    let kernel =
        ElasticityKernel::new(ElementType::Hex20, bar.young, bar.poisson, bar.body_force());
    let nd = kernel.ndof_elem() as f64;
    let ke_flops = kernel.ke_flops() as f64;

    // CARM-style byte accounting (all executed loads/stores, 8 B each
    // unless noted):
    // * HYMV batched EMV: per lane, the storage-order kernel loads each
    //   packed keb entry once (nd(nd+1)/2). An off-diagonal entry K[r,c]
    //   feeds two outputs: it loads ue[c] for output r's register chain
    //   and read-modify-writes ve[c] (load + store) for output c, so
    //   3·nd(nd−1)/2; per row it loads ue[r] once and stores ve[r] once
    //   (2nd). That is 2nd² + nd, as many as a row-at-a-time walk (keb
    //   and ue per (i,j) pair, ve once per row): the walk's order sets
    //   how the slab streams, not the count. Panel gather (2·nd) + scatter
    //   (3·nd) plus the u32 gather-table reads on both (2·nd × 4 B)
    //   → ≈ 8·(2nd² + 6nd) + 8·nd bytes for 2nd² flops. Packing halves
    //   the distinct slab bytes an apply streams, nd(nd+1)/2 per lane
    //   instead of nd²; that DRAM-side intensity is its own note below.
    // * assembled CSR: per nonzero, value (8 B) + column index (4 B) +
    //   x gather (8 B); per row, y store → ≈ 20·nnz bytes for 2·nnz flops.
    // * matrix-free: the quadrature loops execute ≈1.5 memory ops per
    //   flop (shape-gradient loads, Jacobian accumulation) on top of the
    //   EMV traffic → ≈ 12·ke_flops + EMV bytes.
    let hymv_flops = ne * 2.0 * nd * nd;
    let hymv_bytes = ne * (8.0 * (2.0 * nd * nd + 6.0 * nd) + 8.0 * nd);
    // Streamed (distinct) bytes of the batched path: the packed slab
    // entries plus the u32 gather table, each read once per apply.
    let hymv_streamed_bytes = ne * (8.0 * nd * (nd + 1.0) / 2.0 + 4.0 * nd);
    let asm_flops = 2.0 * nnz_estimate;
    let asm_bytes = 20.0 * nnz_estimate;
    let mf_flops = ne * (ke_flops + 2.0 * nd * nd);
    let mf_bytes = ne * (12.0 * ke_flops + 8.0 * 3.0 * nd * nd);

    let mut rep = Reporter::new(
        "fig10",
        &["method", "AI (flop/B)", "paper AI", "GFLOP/s", "paper GF/s"],
    );
    let configs = [
        (
            Method::Assembled,
            "assembled",
            asm_flops,
            asm_bytes,
            0.161,
            1.062,
        ),
        (Method::Hymv, "HYMV", hymv_flops, hymv_bytes, 0.079, 1.614),
        (
            Method::MatFree,
            "matrix-free",
            mf_flops,
            mf_bytes,
            0.083,
            5.053,
        ),
    ];
    for (method, name, flops, bytes, paper_ai, paper_gf) in configs {
        let r = run_setup_and_spmv(&case, 1, method, 1, PartitionMethod::Slabs, 10);
        let gf = 10.0 * flops / r.spmv_s / 1e9;
        rep.row(vec![
            name.to_string(),
            format!("{:.3}", flops / bytes),
            format!("{paper_ai:.3}"),
            format!("{gf:.2}"),
            format!("{paper_gf:.2}"),
        ]);
    }
    rep.note("orderings to reproduce: GFLOP/s matrix-free >> HYMV > assembled; AI: assembled highest (loads only the merged CSR), HYMV/matrix-free lower (element traffic)");
    rep.note(format!(
        "HYMV streamed-bytes intensity (distinct slab + gather-table bytes per apply, symmetric-packed Ke slabs): {:.3} flop/B; {:.3} with full nd² slabs",
        hymv_flops / hymv_streamed_bytes,
        hymv_flops / (ne * (8.0 * nd * nd + 4.0 * nd)),
    ));
    rep.note("AI is analytic CARM-style accounting (Advisor counts all executed loads/stores); GFLOP/s = known flops / measured virtual seconds, single rank");
    rep.finish();
}
