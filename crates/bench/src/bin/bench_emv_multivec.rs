//! `BENCH_emv_multivec` — the multivector (SpMM) acceptance experiment.
//!
//! Two sweeps over `nvec ∈ {1, 2, 4, 8, 16}`:
//!
//! 1. **Kernel sweep** (Hex8 + Hex20, wall-clock, min-of-reps): `nvec`
//!    sequential single-vector blocked EMV passes vs one `emv_batch_mv`
//!    SpMM pass over the same element store. The SpMM streams each `Ke`
//!    slab once for all `nvec` columns, so the win grows with `nvec`
//!    and with `nd` (Hex20 slabs are 25× the panel traffic of Hex8).
//! 2. **Service sweep** (Hex20 Poisson, 8 ranks, virtual time): 16
//!    independent right-hand sides solved through the [`SolveService`]
//!    at batch width `nvec` vs one sequential CG per RHS, reported as
//!    aggregate solves/sec. At this scale the sequential baseline is
//!    latency-bound — per-iteration ghost exchange plus two allreduces,
//!    once per RHS per iteration — and the batch amortizes that latency
//!    across the whole width on top of the SpMM slab reuse.
//!
//! The acceptance bar is **≥ 3× aggregate solve throughput** at some
//! `nvec ∈ {4, 8, 16}` over the `nvec = 1` sequential baseline.
//!
//! `--smoke` shrinks meshes and rep counts to a CI-sized single pass.

use std::time::Instant;

use hymv_bench::{ratio, Reporter};
use hymv_comm::Universe;
use hymv_core::block::BlockPlan;
use hymv_core::da::DistArray;
use hymv_core::dirichlet_op::owned_constraints;
use hymv_core::maps::HymvMaps;
use hymv_core::{DirichletOp, HymvOperator};
use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_fem::PoissonKernel;
use hymv_la::dense::{emv_batch_mv_kernel_name, select_batch_kernel, select_batch_mv_kernel};
use hymv_la::{cg, ElementMatrixStore, Identity};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};
use hymv_serve::{BatchPolicy, SolveService};

const NVECS: [usize; 5] = [1, 2, 4, 8, 16];
/// Batch width for the element dimension (fixed; the sweep is over columns).
const BW: usize = 8;

/// Kernel sweep: `nvec` sequential blocked SPMV passes vs one SpMM pass.
fn kernel_sweep(rep: &mut Reporter, et: ElementType, n: usize, reps: usize) {
    let mesh = StructuredHexMesh::unit(n, et).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let part = &pm.parts[0];
    let kernel = PoissonKernel::new(et);
    let nd = kernel.ndof_elem();

    let maps = HymvMaps::build(part);
    let mut store = ElementMatrixStore::new(nd, maps.n_elems);
    let mut scratch = KernelScratch::default();
    for e in 0..maps.n_elems {
        kernel.compute_ke(part.elem_node_coords(e), store.ke_mut(e), &mut scratch);
    }
    let mut plan = BlockPlan::build(&maps, 1, BW);
    plan.attach_store(&store);
    let batch_kernel = select_batch_kernel(BW);
    let pl = plan.nd() * BW;

    for &nvec in &NVECS {
        // Column inputs: deterministic, sign-varying, distinct per column.
        let mut us: Vec<DistArray> = Vec::with_capacity(nvec);
        for c in 0..nvec {
            let mut u = DistArray::new(&maps, 1);
            for (i, x) in u.data.iter_mut().enumerate() {
                *x = (((i + c * 37) * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0;
            }
            us.push(u);
        }

        // Sequential baseline: nvec single-vector blocked passes.
        let (mut ue1, mut ve1) = (vec![0.0; pl], vec![0.0; pl]);
        let mut vs: Vec<DistArray> = (0..nvec).map(|_| DistArray::new(&maps, 1)).collect();
        let mut seq_s = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for c in 0..nvec {
                vs[c].fill_zero();
                plan.run_serial(false, &us[c], &mut vs[c], batch_kernel, &mut ue1, &mut ve1);
                plan.run_serial(true, &us[c], &mut vs[c], batch_kernel, &mut ue1, &mut ve1);
            }
            seq_s = seq_s.min(t0.elapsed().as_secs_f64());
        }

        // SpMM: one multivector pass, Ke slabs streamed once per block.
        let mv_kernel = select_batch_mv_kernel(nvec);
        let plm = plan.nd() * BW * nvec;
        let (mut ue, mut ve) = (vec![0.0; plm], vec![0.0; plm]);
        let mut u_mv = DistArray::new_mv(&maps, 1, nvec);
        for (i, chunk) in u_mv.data.chunks_exact_mut(nvec).enumerate() {
            for (c, x) in chunk.iter_mut().enumerate() {
                *x = us[c].data[i];
            }
        }
        let mut v_mv = DistArray::new_mv(&maps, 1, nvec);
        let mut spmm_s = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            v_mv.fill_zero();
            plan.run_serial_mv(false, &u_mv, &mut v_mv, mv_kernel, &mut ue, &mut ve);
            plan.run_serial_mv(true, &u_mv, &mut v_mv, mv_kernel, &mut ue, &mut ve);
            spmm_s = spmm_s.min(t0.elapsed().as_secs_f64());
        }

        // Guard: the SpMM must reproduce every sequential column.
        for (i, chunk) in v_mv.data.chunks_exact(nvec).enumerate() {
            for (c, got) in chunk.iter().enumerate() {
                assert!(
                    (got - vs[c].data[i]).abs() < 1e-12,
                    "{et:?} nvec={nvec}: SpMM diverged at dof {i} col {c}"
                );
            }
        }

        rep.row(vec![
            format!("{et:?}"),
            nvec.to_string(),
            emv_batch_mv_kernel_name(nvec).to_string(),
            format!("{seq_s:.6}"),
            format!("{spmm_s:.6}"),
            ratio(seq_s, spmm_s),
        ]);
    }
}

/// One deterministic, non-eigenvector load case per request (the
/// manufactured sine load is a discrete eigenvector on this grid and
/// converges in one iteration, hiding the per-iteration batching win).
fn load_case(maps: &HymvMaps, constrained: &[(u32, f64)], k: u64) -> Vec<f64> {
    let lo = maps.node_range.0;
    let n = (maps.node_range.1 - lo) as usize;
    let mut f: Vec<f64> = (0..n)
        .map(|i| {
            let g = lo + i as u64;
            ((g * (k + 3) + k * k) % 17) as f64 * 0.25 - 2.0
        })
        .collect();
    for &(d, _) in constrained {
        f[d as usize] = 0.0;
    }
    f
}

/// Service sweep: `n_requests` RHS through the batched solve service at
/// width `nvec` vs sequential per-RHS CG, in virtual time on `ranks`
/// ranks. At scale the sequential baseline pays per-iteration exchange
/// and allreduce latency once per RHS per iteration; the batch amortizes
/// it across the whole width — that amortization is the service's win.
fn service_sweep(rep: &mut Reporter, ranks: usize, n: usize, n_requests: usize) -> f64 {
    let et = ElementType::Hex20;
    let mesh = StructuredHexMesh::unit(n, et).build();
    let pm = partition_mesh(&mesh, ranks, PartitionMethod::Slabs);
    let spec = DirichletSpec::zero(
        1,
        std::sync::Arc::new(|x: [f64; 3]| x.iter().any(|&c| c < 1e-10 || c > 1.0 - 1e-10)),
    );
    let rtol = 1e-8;
    let max_iter = 4000;

    // Sequential baseline: one CG per RHS.
    let seq = Universe::run(ranks, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = PoissonKernel::new(et);
        let maps = HymvMaps::build(part);
        let (raw_op, _) = HymvOperator::setup(comm, part, &kernel);
        let constrained = owned_constraints(&maps, 1, &constrained_dofs(part, &spec));
        let mut op = DirichletOp::new(raw_op, constrained.clone());
        let t0 = comm.vt();
        let mut iters = 0usize;
        for k in 0..n_requests {
            let f = load_case(&maps, &constrained, k as u64);
            let mut x = vec![0.0; f.len()];
            let res = cg(comm, &mut op, &mut Identity, &f, &mut x, rtol, max_iter);
            assert!(res.converged, "sequential CG diverged on rhs {k}");
            iters += res.iterations;
        }
        (comm.vt() - t0, iters)
    });
    let (seq_vt, seq_iters) = seq[0];
    let seq_thr = n_requests as f64 / seq_vt;
    rep.row(vec![
        "service".into(),
        "1".into(),
        "per-rhs cg".into(),
        format!("{seq_vt:.6}"),
        format!("{seq_vt:.6}"),
        "1.0x".into(),
    ]);
    rep.note(format!(
        "service baseline: {n_requests} sequential CG solves, {seq_iters} iterations, \
         {seq_thr:.1} solves/sec (virtual)"
    ));

    let mut best = 0.0f64;
    for &nvec in &NVECS[1..] {
        let served = Universe::run(ranks, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(et);
            let maps = HymvMaps::build(part);
            let (raw_op, _) = HymvOperator::setup(comm, part, &kernel);
            let constrained = owned_constraints(&maps, 1, &constrained_dofs(part, &spec));
            let mut op = DirichletOp::new(raw_op, constrained.clone());
            let mut precond = Identity;
            let policy = BatchPolicy {
                max_width: nvec,
                deadline_s: 1e-3,
            };
            let t0 = comm.vt();
            let mut svc = SolveService::new(&mut op, &mut precond, rtol, max_iter, policy);
            for k in 0..n_requests {
                svc.submit(comm, load_case(&maps, &constrained, k as u64));
            }
            let results = svc.flush(comm);
            assert!(results.iter().all(|o| o.converged));
            let iters: usize = svc.batch_metrics().iter().map(|b| b.iterations).sum();
            (comm.vt() - t0, iters, svc.batch_metrics().len())
        });
        let (vt, iters, batches) = served[0];
        let thr = n_requests as f64 / vt;
        let speedup = thr / seq_thr;
        if matches!(nvec, 4 | 8 | 16) {
            best = best.max(speedup);
        }
        rep.row(vec![
            "service".into(),
            nvec.to_string(),
            format!("block-cg x{batches} ({iters} it)"),
            format!("{seq_vt:.6}"),
            format!("{vt:.6}"),
            ratio(seq_vt, vt),
        ]);
        println!(
            "service nvec={nvec}: {thr:.1} solves/sec aggregate ({speedup:.2}x over sequential)"
        );
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 2 } else { 3 };

    let mut rep = Reporter::new(
        "BENCH_emv_multivec",
        &["case", "nvec", "kernel", "seq(s)", "spmm(s)", "speedup"],
    );

    // Kernel sweep: Hex8 cache-resident, Hex20 streaming the Ke store.
    let (n8, n20) = if smoke { (4, 3) } else { (16, 10) };
    kernel_sweep(&mut rep, ElementType::Hex8, n8, reps);
    kernel_sweep(&mut rep, ElementType::Hex20, n20, reps);
    rep.note(format!(
        "kernel sweep: BW={BW} element lanes, min-of-{reps} wall clock, \
         SpMM streams each Ke slab once for all columns"
    ));

    // Service sweep: aggregate solve throughput through the batch service.
    let (ranks, n_serve, n_requests) = if smoke { (2, 3, 4) } else { (8, 8, 16) };
    let best = service_sweep(&mut rep, ranks, n_serve, n_requests);
    rep.note(format!(
        "best service speedup at nvec in {{4,8,16}}: {best:.2}x \
         (acceptance bar: >= 3x aggregate throughput)"
    ));
    rep.finish();

    if !smoke && best < 3.0 {
        eprintln!("BENCH_emv_multivec: best service speedup {best:.2}x below the 3x bar");
        std::process::exit(1);
    }
}
