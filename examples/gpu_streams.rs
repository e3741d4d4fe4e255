//! HYMV-GPU stream overlap (paper §IV-F and Fig 3): run one traced GPU
//! SPMV of the elasticity operator with 1, 2, 4, and 8 streams on the
//! simulated device, print the modeled device makespans, and render the
//! 8-stream SPMV as an ASCII Gantt chart (the analogue of the paper's
//! profiler snapshot). The same trace is written as Chrome-trace JSON for
//! `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example gpu_streams
//! ```

use hymv::prelude::*;
use hymv_trace::{render_spans, Phase, SpanEvent, TraceSession};

fn main() {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let n = 10;
    let mesh = StructuredHexMesh::new(n, n, n, ElementType::Hex20, lo, hi).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    println!(
        "elasticity Hex20, {}³ elements, {} DoFs — batched EMV on the simulated RTX 5000\n",
        n,
        mesh.n_nodes() * 3
    );

    let cfg = RunConfig {
        trace: true,
        ..RunConfig::default()
    };
    let mut rows = Vec::new();
    let mut spmv = Vec::new();
    for ns in [1usize, 2, 4, 8] {
        let session = TraceSession::begin();
        Universe::run_configured(cfg.clone(), 1, |comm| {
            let kernel =
                ElasticityKernel::new(ElementType::Hex20, bar.young, bar.poisson, bar.body_force());
            let (mut gpu, _) = HymvGpuOperator::setup(
                comm,
                &pm.parts[0],
                &kernel,
                GpuModel::default(),
                ns,
                GpuScheme::Blocking,
                4,
            );
            let x: Vec<f64> = (0..gpu.n_owned())
                .map(|i| (i as f64 * 0.01).sin())
                .collect();
            let mut y = vec![0.0; gpu.n_owned()];
            gpu.matvec(comm, &x, &mut y);
        });
        // The SPMV starts where the scatter is posted; the setup-era
        // upload before it is not part of the picture.
        let spans = session.finish().spans;
        let t0 = spans
            .iter()
            .filter(|e| e.phase == Phase::ScatterPost)
            .map(|e| e.t0)
            .fold(f64::INFINITY, f64::min);
        spmv = spans.into_iter().filter(|e| e.t0 >= t0).collect::<Vec<_>>();
        let device: Vec<&SpanEvent> = spmv
            .iter()
            .filter(|e| matches!(e.phase, Phase::GpuH2D | Phase::GpuKernel | Phase::GpuD2H))
            .collect();
        let d0 = device.iter().map(|e| e.t0).fold(f64::INFINITY, f64::min);
        let d1 = device.iter().map(|e| e.t1).fold(0.0, f64::max);
        rows.push((ns, (d1 - d0) * 1e3));
    }

    println!("{:>8} {:>16}", "streams", "makespan (ms)");
    for (ns, ms) in &rows {
        println!("{ns:>8} {ms:>16.4}");
    }
    println!(
        "\n8-stream SPMV (paper Fig 3 analogue):\n{}",
        render_spans(&spmv, 100)
    );
    let path = "target/gpu_trace.json";
    let chrome = hymv_trace::to_chrome_json(&hymv_trace::spans_to_chrome(&spmv));
    if std::fs::create_dir_all("target").is_ok() && std::fs::write(path, chrome).is_ok() {
        println!("Chrome trace written to {path} (load in chrome://tracing)");
    }
    println!(
        "\nWith one stream the copy engines idle while the kernel runs; by 8\n\
         streams H2D, batched-EMV, and D2H pipelines overlap and the\n\
         makespan approaches the slowest engine's busy time — the paper's\n\
         observed optimum for the 25M-DoF problem."
    );
}
