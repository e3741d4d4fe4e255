//! Figure 8 (and the §V-D stream experiment): HYMV-GPU vs HYMV-CPU for the
//! Hex20 elasticity problem on the simulated Quadro RTX 5000.
//!
//! * `fig8 streams` — the paper's first §V-D experiment: SPMV time vs
//!   stream count (the paper finds 8 streams optimal at 25M DoFs).
//! * `fig8 single`  — Fig 8a: single node, increasing DoFs; GPU speedup
//!   roughly constant (paper: ~7.4×).
//! * `fig8 weak`    — Fig 8b: weak scaling with the three overlap schemes
//!   (GPU, GPU/CPU(O), GPU/GPU(O)); GPU/CPU(O) degrades as the
//!   dependent-element fraction grows.

use hymv_bench::{
    elasticity_case, ratio, run_gpu_spmv, run_setup_and_spmv, secs, GpuConfig, GpuMethod, Reporter,
};
use hymv_core::system::Method;
use hymv_fem::analytic::BarProblem;
use hymv_gpu::GpuScheme;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

/// Modeled threads per CPU rank, as many as the GPU runs' host threads
/// (paper: 14).
const THREADS: usize = 4;

fn build_case(n: usize) -> hymv_bench::Case {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex20, lo, hi).build();
    elasticity_case("fig8", mesh, bar)
}

fn streams() {
    let mut rep = Reporter::new("fig8-streams", &["streams", "GPU 10SPMV", "vs 1 stream"]);
    let case = build_case(14);
    let mut base = 0.0;
    for ns in [1usize, 2, 4, 8, 16] {
        let cfg = GpuConfig {
            n_streams: ns,
            ..GpuConfig::default()
        };
        let r = run_gpu_spmv(&case, 2, GpuMethod::Hymv, cfg, PartitionMethod::Slabs, 10);
        if ns == 1 {
            base = r.spmv_s;
        }
        rep.row(vec![ns.to_string(), secs(r.spmv_s), ratio(base, r.spmv_s)]);
    }
    rep.note("paper §V-D: 8 streams optimal for the 25M-DoF problem; the pipeline amortizes transfer latency until per-chunk overheads dominate");
    rep.finish();
}

fn single() {
    let mut rep = Reporter::new(
        "fig8-single",
        &[
            "DoFs",
            "CPU setup",
            "GPU setup",
            "CPU 10SPMV",
            "GPU 10SPMV",
            "GPU speedup",
        ],
    );
    for n in [6usize, 8, 10, 13, 16] {
        let case = build_case(n);
        let cpu = run_setup_and_spmv(&case, 2, Method::Hymv, THREADS, PartitionMethod::Slabs, 10);
        let gpu = run_gpu_spmv(
            &case,
            2,
            GpuMethod::Hymv,
            GpuConfig::default(),
            PartitionMethod::Slabs,
            10,
        );
        rep.row(vec![
            case.n_dofs().to_string(),
            secs(cpu.setup_total_s()),
            secs(gpu.setup_total_s()),
            secs(cpu.spmv_s),
            secs(gpu.spmv_s),
            ratio(cpu.spmv_s, gpu.spmv_s),
        ]);
    }
    rep.note("paper Fig 8a: GPU speedup ~constant with DoFs (7.4x at 25.1M); GPU setup slightly above CPU setup (one-time element-matrix upload)");
    rep.note("2 ranks x 4 modeled host threads (paper: 2 MPI x 14 OpenMP); GPU time is modeled (simulated RTX 5000)");
    rep.finish();
}

fn weak() {
    let mut rep = Reporter::new(
        "fig8-weak",
        &[
            "p",
            "DoFs",
            "CPU 10SPMV",
            "GPU",
            "GPU/CPU(O)",
            "GPU/GPU(O)",
            "GPU speedup",
        ],
    );
    for p in [2usize, 4, 8, 16] {
        let n = hymv_bench::mesh_n_for_dofs(ElementType::Hex20, 3, p, 5_000);
        let case = build_case(n);
        let cpu = run_setup_and_spmv(&case, p, Method::Hymv, THREADS, PartitionMethod::Slabs, 10);
        let mut times = Vec::new();
        for scheme in [
            GpuScheme::Blocking,
            GpuScheme::OverlapCpu,
            GpuScheme::OverlapGpu,
        ] {
            let cfg = GpuConfig {
                scheme,
                ..GpuConfig::default()
            };
            let r = run_gpu_spmv(&case, p, GpuMethod::Hymv, cfg, PartitionMethod::Slabs, 10);
            times.push(r.spmv_s);
        }
        rep.row(vec![
            p.to_string(),
            case.n_dofs().to_string(),
            secs(cpu.spmv_s),
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            ratio(cpu.spmv_s, times[2]),
        ]);
    }
    rep.note("paper Fig 8b: GPU ~7.5x faster than CPU; GPU ≈ GPU/GPU(O) at this node count; GPU/CPU(O) degrades with p (dependent-element fraction grows)");
    rep.finish();
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if mode == "streams" || mode == "all" {
        streams();
    }
    if mode == "single" || mode == "all" {
        single();
    }
    if mode == "weak" || mode == "all" {
        weak();
    }
}
