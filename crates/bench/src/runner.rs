//! Shared experiment runners: build a case, run setup + ten SPMVs (the
//! paper's measurement protocol) or a full CG solve, and aggregate
//! virtual-time results over ranks.

use std::sync::Arc;
use std::time::Instant;

use hymv_comm::{CommStats, RunConfig, Universe};
use hymv_core::assemble::{assemble_rhs, jacobi_diagonal, owned_node_coords};
use hymv_core::dirichlet_op::{owned_constraints, DirichletOp};
use hymv_core::exchange::GhostExchange;
use hymv_core::maps::HymvMaps;
use hymv_core::system::{BuildOptions, FemSystem, Method, PrecondKind};
use hymv_fem::analytic::{BarProblem, PoissonProblem};
use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
use hymv_fem::{ElasticityKernel, ElementKernel, PoissonKernel};
use hymv_gpu::{GpuModel, GpuScheme, HymvGpuOperator, PetscGpuOperator};
use hymv_la::solver::{cg, cg_on};
use hymv_la::{Jacobi, LinOp};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, GlobalMesh, PartitionedMesh};

/// A benchmark case: mesh + operator + boundary conditions.
pub struct Case {
    /// Human-readable label.
    pub name: String,
    /// The (serial) mesh, partitioned per experiment.
    pub mesh: GlobalMesh,
    /// Kernel factory (one instance per rank).
    pub kernel: Arc<dyn Fn() -> Arc<dyn ElementKernel> + Send + Sync>,
    /// Dirichlet specification.
    pub spec: DirichletSpec,
    /// Dofs per node.
    pub ndof: usize,
}

impl Case {
    /// Total dofs.
    pub fn n_dofs(&self) -> u64 {
        self.mesh.n_nodes() as u64 * self.ndof as u64
    }
}

/// The paper's Poisson verification problem on a given mesh.
pub fn poisson_case(name: &str, mesh: GlobalMesh) -> Case {
    let et = mesh.elem_type;
    Case {
        name: name.to_string(),
        mesh,
        kernel: Arc::new(move || Arc::new(PoissonKernel::with_body(et, PoissonProblem::body()))),
        spec: PoissonProblem::dirichlet(),
        ndof: 1,
    }
}

/// The paper's elastic-bar problem on a given mesh (the mesh must span
/// `bar.bbox()`).
pub fn elasticity_case(name: &str, mesh: GlobalMesh, bar: BarProblem) -> Case {
    let et = mesh.elem_type;
    Case {
        name: name.to_string(),
        mesh,
        kernel: Arc::new(move || {
            Arc::new(ElasticityKernel::new(
                et,
                bar.young,
                bar.poisson,
                bar.body_force(),
            ))
        }),
        spec: bar.dirichlet(),
        ndof: 3,
    }
}

/// Pick a structured-mesh resolution so the global dof count is roughly
/// `p × per_rank` for the element type.
pub fn mesh_n_for_dofs(et: ElementType, ndof: usize, p: usize, per_rank: usize) -> usize {
    let target_nodes = (p * per_rank) as f64 / ndof as f64;
    let n = match et {
        // Hex8 has ≈ (n+1)³ nodes; the Kuhn-tet Tet4 grid the same.
        ElementType::Hex8 | ElementType::Tet4 => target_nodes.powf(1.0 / 3.0) - 1.0,
        // Hex20 ≈ 4n³ nodes.
        ElementType::Hex20 => (target_nodes / 4.0).powf(1.0 / 3.0),
        // Hex27 and Tet10 ≈ 8n³ nodes.
        ElementType::Hex27 | ElementType::Tet10 => (target_nodes / 8.0).powf(1.0 / 3.0),
    };
    (n.round() as usize).max(2)
}

/// Result of one setup + n-SPMV measurement (virtual-time maxima over
/// ranks, communication totals, raw wall time for transparency).
#[derive(Debug, Clone, Copy)]
pub struct SpmvReport {
    /// Rank count.
    pub p: usize,
    /// Global dofs.
    pub n_dofs: u64,
    /// Element-matrix computation component of setup (max over ranks).
    pub setup_emat_s: f64,
    /// Assembly/copy overhead component of setup (max over ranks).
    pub setup_overhead_s: f64,
    /// Time for the SPMV loop (max over ranks, virtual seconds).
    pub spmv_s: f64,
    /// Aggregate communication during the SPMV loop.
    pub comm: CommStats,
    /// Total FLOPs of the SPMV loop across ranks.
    pub gflop: f64,
    /// Raw wall-clock of the whole run (host-dependent; printed for
    /// transparency, not comparable to the paper).
    pub wall_s: f64,
    /// Traced overlap efficiency (`HYMV_TRACE` runs only).
    pub overlap_efficiency: Option<f64>,
    /// Traced largest per-phase `max/mean` imbalance (`HYMV_TRACE` runs
    /// only).
    pub max_phase_imbalance: Option<f64>,
}

impl SpmvReport {
    /// Total setup seconds.
    pub fn setup_total_s(&self) -> f64 {
        self.setup_emat_s + self.setup_overhead_s
    }

    /// Achieved GFLOP/s of the SPMV loop.
    pub fn gflop_rate(&self) -> f64 {
        if self.spmv_s > 0.0 {
            self.gflop / self.spmv_s
        } else {
            0.0
        }
    }
}

/// Run the paper's measurement protocol: setup, then `n_spmv` operator
/// applications, on `p` ranks of `threads` modeled threads each.
pub fn run_setup_and_spmv(
    case: &Case,
    p: usize,
    method: Method,
    threads: usize,
    partitioner: PartitionMethod,
    n_spmv: usize,
) -> SpmvReport {
    let pm = partition_mesh(&case.mesh, p, partitioner);
    let wall0 = Instant::now();
    let traced = hymv_trace::env_enabled();
    let session = traced.then(hymv_trace::TraceSession::begin);
    let cfg = RunConfig {
        trace: traced,
        ..RunConfig::default()
    };
    let (out, _audit) = Universe::run_configured(cfg, p, |comm| {
        let part = &pm.parts[comm.rank()];
        comm.reset_ledger();
        let mut opts = BuildOptions::new(method);
        opts.threads = threads;
        let mut sys = FemSystem::build(comm, part, (case.kernel)(), &case.spec, opts);
        let emat = comm.allreduce_max_f64(sys.setup.emat_s);
        let over = comm.allreduce_max_f64(sys.setup.overhead_s);

        comm.reset_ledger();
        let t = sys.time_spmvs(comm, n_spmv);
        let spmv = comm.allreduce_max_f64(t);
        let stats = comm.stats();
        let flops = comm.allreduce_sum_f64((sys.flops_per_apply * n_spmv as u64) as f64);
        (emat, over, spmv, stats, flops)
    });
    let analysis = session.map(|s| s.finish().analyze());
    let wall_s = wall0.elapsed().as_secs_f64();
    let mut comm_total = CommStats::default();
    for (_, _, _, s, _) in &out {
        comm_total.fold_max(s);
    }
    let (emat, over, spmv, _, flops) = out[0];
    SpmvReport {
        p,
        n_dofs: case.n_dofs(),
        setup_emat_s: emat,
        setup_overhead_s: over,
        spmv_s: spmv,
        comm: comm_total,
        gflop: flops / 1e9,
        wall_s,
        overlap_efficiency: analysis.as_ref().map(|a| a.overlap_efficiency),
        max_phase_imbalance: analysis.as_ref().map(|a| a.max_phase_imbalance),
    }
}

/// Result of a full solve (setup + CG to convergence).
#[derive(Debug, Clone, Copy)]
pub struct SolveReport {
    /// Rank count.
    pub p: usize,
    /// Global dofs.
    pub n_dofs: u64,
    /// Setup seconds (max over ranks).
    pub setup_s: f64,
    /// CG seconds (max over ranks).
    pub solve_s: f64,
    /// CG iterations.
    pub iterations: usize,
    /// Converged?
    pub converged: bool,
    /// Infinity-norm error vs the analytic solution.
    pub err_inf: f64,
    /// Raw wall-clock (transparency).
    pub wall_s: f64,
}

impl SolveReport {
    /// Total time-to-solution.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.solve_s
    }
}

/// Run setup + preconditioned CG; `exact` maps coordinates to the analytic
/// solution components for error reporting.
pub fn run_solve(
    case: &Case,
    p: usize,
    method: Method,
    precond: PrecondKind,
    rtol: f64,
    partitioner: PartitionMethod,
    exact: Arc<dyn Fn([f64; 3]) -> Vec<f64> + Send + Sync>,
) -> SolveReport {
    let pm = partition_mesh(&case.mesh, p, partitioner);
    let wall0 = Instant::now();
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        comm.reset_ledger();
        let mut opts = BuildOptions::new(method);
        opts.want_block_jacobi = precond == PrecondKind::BlockJacobi;
        let vt0 = comm.vt();
        let mut sys = FemSystem::build(comm, part, (case.kernel)(), &case.spec, opts);
        let setup = comm.allreduce_max_f64(comm.vt() - vt0);

        comm.barrier();
        let vt0 = comm.vt();
        let (x, res) = sys.solve(comm, precond, rtol, 100_000);
        let solve = comm.allreduce_max_f64(comm.vt() - vt0);
        let exact = &exact;
        let err = sys.inf_error(comm, &x, move |p| exact(p));
        (setup, solve, res, err)
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let (setup, solve, res, err) = out[0].clone();
    SolveReport {
        p,
        n_dofs: case.n_dofs(),
        setup_s: setup,
        solve_s: solve,
        iterations: res.iterations,
        converged: res.converged,
        err_inf: err,
        wall_s,
    }
}

/// GPU execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Device cost model.
    pub model: GpuModel,
    /// Streams for the batched pipeline.
    pub n_streams: usize,
    /// Overlap scheme.
    pub scheme: GpuScheme,
    /// Modeled host ("OpenMP") threads per rank.
    pub host_threads: usize,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            model: GpuModel::default(),
            n_streams: 8,
            scheme: GpuScheme::Blocking,
            host_threads: 4,
        }
    }
}

/// Which GPU operator backs a [`run_gpu_spmv`] measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuMethod {
    /// HYMV-GPU (Algorithm 3).
    Hymv,
    /// PETSc-GPU (cuSPARSE CSR).
    Petsc,
}

/// Setup + `n_spmv` raw operator applications with a simulated GPU.
pub fn run_gpu_spmv(
    case: &Case,
    p: usize,
    gpu_method: GpuMethod,
    cfg: GpuConfig,
    partitioner: PartitionMethod,
    n_spmv: usize,
) -> SpmvReport {
    let pm = partition_mesh(&case.mesh, p, partitioner);
    let wall0 = Instant::now();
    let traced = hymv_trace::env_enabled();
    let session = traced.then(hymv_trace::TraceSession::begin);
    let run_cfg = RunConfig {
        trace: traced,
        ..RunConfig::default()
    };
    let (out, _audit) = Universe::run_configured(run_cfg, p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = (case.kernel)();
        comm.reset_ledger();
        let (mut op, emat, over): (Box<dyn LinOp>, f64, f64) = match gpu_method {
            GpuMethod::Hymv => {
                let (op, t) = HymvGpuOperator::setup(
                    comm,
                    part,
                    &*kernel,
                    cfg.model,
                    cfg.n_streams,
                    cfg.scheme,
                    cfg.host_threads,
                );
                (
                    Box::new(op),
                    t.emat_compute_s,
                    t.local_copy_s + t.maps_s + t.comm_maps_s,
                )
            }
            GpuMethod::Petsc => {
                let (op, t) = PetscGpuOperator::setup(comm, part, &*kernel, cfg.model);
                (Box::new(op), t.emat_compute_s, t.assembly_s)
            }
        };
        let emat = comm.allreduce_max_f64(emat);
        let over = comm.allreduce_max_f64(over);

        comm.reset_ledger();
        let n = op.n_owned();
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.01 - 0.5).collect();
        let mut y = vec![0.0; n];
        comm.barrier();
        let vt0 = comm.vt();
        for _ in 0..n_spmv {
            op.apply(comm, &x, &mut y);
        }
        let spmv = comm.allreduce_max_f64(comm.vt() - vt0);
        let stats = comm.stats();
        let flops = comm.allreduce_sum_f64((op.flops_per_apply() * n_spmv as u64) as f64);
        (emat, over, spmv, stats, flops)
    });
    let analysis = session.map(|s| s.finish().analyze());
    let wall_s = wall0.elapsed().as_secs_f64();
    let mut comm_total = CommStats::default();
    for (_, _, _, s, _) in &out {
        comm_total.fold_max(s);
    }
    let (emat, over, spmv, _, flops) = out[0];
    SpmvReport {
        p,
        n_dofs: case.n_dofs(),
        setup_emat_s: emat,
        setup_overhead_s: over,
        spmv_s: spmv,
        comm: comm_total,
        gflop: flops / 1e9,
        wall_s,
        overlap_efficiency: analysis.as_ref().map(|a| a.overlap_efficiency),
        max_phase_imbalance: analysis.as_ref().map(|a| a.max_phase_imbalance),
    }
}

/// Total solve time with a simulated-GPU operator (Fig 11c): Dirichlet
/// wrapper + Jacobi-preconditioned CG around the GPU SPMV.
pub fn run_gpu_solve(
    case: &Case,
    p: usize,
    gpu_method: GpuMethod,
    cfg: GpuConfig,
    rtol: f64,
    partitioner: PartitionMethod,
    exact: Arc<dyn Fn([f64; 3]) -> Vec<f64> + Send + Sync>,
) -> SolveReport {
    let pm = partition_mesh(&case.mesh, p, partitioner);
    let wall0 = Instant::now();
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = (case.kernel)();
        let ndof = kernel.ndof_per_node();
        comm.reset_ledger();
        let vt0 = comm.vt();

        // Shared infrastructure.
        let maps = HymvMaps::build(part);
        let exchange = GhostExchange::build(comm, &maps);
        let raw_rhs = assemble_rhs(comm, &maps, &exchange, part, &*kernel);
        let global_constraints = constrained_dofs(part, &case.spec);
        let constrained = owned_constraints(&maps, ndof, &global_constraints);

        let (boxed, mut diag): (Box<dyn LinOp>, Vec<f64>) = match gpu_method {
            GpuMethod::Hymv => {
                let (op, _) = HymvGpuOperator::setup(
                    comm,
                    part,
                    &*kernel,
                    cfg.model,
                    cfg.n_streams,
                    cfg.scheme,
                    cfg.host_threads,
                );
                let diag = jacobi_diagonal(comm, &maps, &exchange, op.store(), ndof);
                (Box::new(op), diag)
            }
            GpuMethod::Petsc => {
                let (op, _) = PetscGpuOperator::setup(comm, part, &*kernel, cfg.model);
                let diag = op.inner().diagonal();
                (Box::new(op), diag)
            }
        };
        let mut op = DirichletOp::new(boxed, constrained);
        op.mask_diagonal(&mut diag);
        let rhs = op.build_rhs(comm, &raw_rhs);
        let setup = comm.allreduce_max_f64(comm.vt() - vt0);

        comm.barrier();
        let vt0 = comm.vt();
        let mut x = vec![0.0; op.n_owned()];
        let mut pc = Jacobi::new(&diag);
        let res = cg(comm, &mut op, &mut pc, &rhs, &mut x, rtol, 100_000);
        let solve = comm.allreduce_max_f64(comm.vt() - vt0);

        let coords = owned_node_coords(&maps, part);
        let exact = &exact;
        let local_err = hymv_fem::analytic::inf_error(&coords, &x, ndof, move |p| exact(p));
        let err = comm.allreduce_max_f64(local_err);
        (setup, solve, res, err)
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let (setup, solve, res, err) = out[0].clone();
    SolveReport {
        p,
        n_dofs: case.n_dofs(),
        setup_s: setup,
        solve_s: solve,
        iterations: res.iterations,
        converged: res.converged,
        err_inf: err,
        wall_s,
    }
}

/// Total solve time with the **fully GPU-resident** CG (device BLAS +
/// HYMV-GPU SPMV) — the paper's future-work configuration, compared with
/// [`run_gpu_solve`] (host CG + GPU SPMV) by `fig11 c-resident`.
pub fn run_gpu_resident_solve(
    case: &Case,
    p: usize,
    cfg: GpuConfig,
    rtol: f64,
    partitioner: PartitionMethod,
    exact: Arc<dyn Fn([f64; 3]) -> Vec<f64> + Send + Sync>,
) -> SolveReport {
    use hymv_gpu::{DeviceBlas, DeviceJacobi};
    let pm = partition_mesh(&case.mesh, p, partitioner);
    let wall0 = Instant::now();
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = (case.kernel)();
        let ndof = kernel.ndof_per_node();
        comm.reset_ledger();
        let vt0 = comm.vt();

        let maps = HymvMaps::build(part);
        let exchange = GhostExchange::build(comm, &maps);
        let raw_rhs = assemble_rhs(comm, &maps, &exchange, part, &*kernel);
        let global_constraints = constrained_dofs(part, &case.spec);
        let constrained = owned_constraints(&maps, ndof, &global_constraints);

        let (op, _) = hymv_gpu::HymvGpuOperator::setup(
            comm,
            part,
            &*kernel,
            cfg.model,
            cfg.n_streams,
            cfg.scheme,
            cfg.host_threads,
        );
        let mut diag = jacobi_diagonal(comm, &maps, &exchange, op.store(), ndof);
        let boxed: Box<dyn LinOp> = Box::new(op);
        let mut wrapped = DirichletOp::new(boxed, constrained);
        wrapped.mask_diagonal(&mut diag);
        let mut jacobi = DeviceJacobi::new(&diag, cfg.model);
        let rhs = wrapped.build_rhs(comm, &raw_rhs);
        let setup = comm.allreduce_max_f64(comm.vt() - vt0);

        comm.barrier();
        let vt0 = comm.vt();
        let mut x = vec![0.0; wrapped.n_owned()];
        let mut blas = DeviceBlas::new(cfg.model);
        let res = cg_on(
            comm,
            &mut blas,
            &mut wrapped,
            &mut jacobi,
            &rhs,
            &mut x,
            rtol,
            100_000,
        );
        let solve = comm.allreduce_max_f64(comm.vt() - vt0);

        let coords = owned_node_coords(&maps, part);
        let exact = &exact;
        let local_err = hymv_fem::analytic::inf_error(&coords, &x, ndof, move |p| exact(p));
        let err = comm.allreduce_max_f64(local_err);
        (setup, solve, res, err)
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let (setup, solve, res, err) = out[0].clone();
    SolveReport {
        p,
        n_dofs: case.n_dofs(),
        setup_s: setup,
        solve_s: solve,
        iterations: res.iterations,
        converged: res.converged,
        err_inf: err,
        wall_s,
    }
}

/// Convenience: partition once and hand back the pieces (used by binaries
/// that need custom per-rank logic, e.g. the Fig 3 trace).
pub fn partitioned(case: &Case, p: usize, method: PartitionMethod) -> PartitionedMesh {
    partition_mesh(&case.mesh, p, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_mesh::StructuredHexMesh;

    #[test]
    fn mesh_sizing_hits_targets() {
        // hex8, 1 dof: p·per = 8000 dofs → (n+1)³ ≈ 8000 → n ≈ 19.
        let n = mesh_n_for_dofs(ElementType::Hex8, 1, 8, 1000);
        assert!((15..=24).contains(&n), "n = {n}");
        // hex20 elasticity: 3·4n³ ≈ dofs.
        let n = mesh_n_for_dofs(ElementType::Hex20, 3, 4, 3000);
        let nodes = (n + 1).pow(3) + 3 * n * (n + 1).pow(2);
        let dofs = 3 * nodes;
        assert!((4000..30000).contains(&dofs), "dofs = {dofs}");
    }

    #[test]
    fn spmv_runner_produces_consistent_report() {
        let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
        let case = poisson_case("smoke", mesh);
        let r = run_setup_and_spmv(&case, 2, Method::Hymv, 1, PartitionMethod::Slabs, 3);
        assert_eq!(r.p, 2);
        assert_eq!(r.n_dofs, 216);
        assert!(r.spmv_s > 0.0);
        assert!(r.setup_total_s() > 0.0);
        assert!(r.gflop > 0.0);
        assert!(r.wall_s > 0.0);
        assert!(r.comm.bytes_sent > 0);
    }

    #[test]
    fn solve_runner_converges_on_poisson() {
        let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
        let case = poisson_case("smoke", mesh);
        let r = run_solve(
            &case,
            2,
            Method::Hymv,
            PrecondKind::Jacobi,
            1e-8,
            PartitionMethod::Slabs,
            Arc::new(|x| vec![PoissonProblem::exact(x)]),
        );
        assert!(r.converged);
        assert!(r.err_inf < 0.01);
        assert!(r.total_s() > 0.0);
    }

    #[test]
    fn gpu_runner_smoke() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let case = poisson_case("smoke", mesh);
        for m in [GpuMethod::Hymv, GpuMethod::Petsc] {
            let r = run_gpu_spmv(&case, 2, m, GpuConfig::default(), PartitionMethod::Slabs, 2);
            assert!(r.spmv_s > 0.0, "{m:?}");
        }
    }

    #[test]
    fn gpu_solve_smoke() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let case = poisson_case("smoke", mesh);
        let r = run_gpu_solve(
            &case,
            2,
            GpuMethod::Hymv,
            GpuConfig::default(),
            1e-6,
            PartitionMethod::Slabs,
            Arc::new(|x| vec![PoissonProblem::exact(x)]),
        );
        assert!(r.converged);
    }
}
