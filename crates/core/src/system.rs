//! One-call driver assembling a complete FEM system with any of the three
//! SPMV methods — the entry point the examples, integration tests, and
//! every benchmark binary use.

use std::sync::Arc;

use hymv_comm::{assert_thread_count, Comm};
use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
use hymv_fem::kernel::ElementKernel;
use hymv_la::solver::{cg, CgResult};
use hymv_la::{BlockJacobi, Identity, Jacobi, LinOp, SerialCsr};
use hymv_mesh::MeshPartition;

use crate::assemble::{
    assemble_rhs, assemble_traction, computed_jacobi_diagonal, jacobi_diagonal, owned_block_csr,
    owned_node_coords,
};
use crate::assembled::AssembledOperator;
use crate::dirichlet_op::{owned_constraints, DirichletOp};
use crate::exchange::GhostExchange;
use crate::maps::HymvMaps;
use crate::matfree::MatFreeOperator;
use crate::operator::HymvOperator;

/// Which SPMV implementation backs the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's contribution (Algorithm 2).
    Hymv,
    /// Matrix-free (Algorithm 4).
    MatFree,
    /// Matrix-assembled (PETSc-style distributed CSR).
    Assembled,
}

/// Krylov solver selection for [`FemSystem::solve_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Standard preconditioned CG (PETSc's KSPCG — the paper's solver).
    Cg,
    /// Pipelined CG: one non-blocking reduction per iteration, hidden
    /// behind the SPMV (communication-avoiding extension).
    PipelinedCg,
}

/// Preconditioner selection for [`FemSystem::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondKind {
    /// Unpreconditioned CG.
    None,
    /// Point Jacobi.
    Jacobi,
    /// Block Jacobi (one ILU(0) block per rank).
    BlockJacobi,
}

/// Build options.
#[derive(Clone)]
pub struct BuildOptions {
    /// SPMV method.
    pub method: Method,
    /// Modeled shared-memory ("OpenMP") threads per rank of HYMV's element
    /// loop (see [`HymvOperator::set_threads`]); at least 1.
    pub threads: usize,
    /// Pre-assemble the owned diagonal block for block-Jacobi.
    pub want_block_jacobi: bool,
    /// Optional surface traction added to the load vector (the paper's
    /// bar is loaded this way in §V-B).
    pub traction: Option<hymv_fem::traction::TractionSpec>,
}

impl BuildOptions {
    /// Defaults: one thread per rank, no block preconditioner, no surface
    /// loads.
    pub fn new(method: Method) -> Self {
        BuildOptions {
            method,
            threads: 1,
            want_block_jacobi: false,
            traction: None,
        }
    }
}

/// Setup-cost breakdown normalized across methods (the two stacked-bar
/// components of Figs 5 and 7).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupBreakdown {
    /// Element-matrix computation time (virtual seconds).
    pub emat_s: f64,
    /// Everything else: HYMV's local copy + map builds, or the assembled
    /// method's triple routing + CSR compression. Zero for matrix-free.
    pub overhead_s: f64,
}

impl SetupBreakdown {
    /// Total setup seconds.
    pub fn total(&self) -> f64 {
        self.emat_s + self.overhead_s
    }
}

/// A ready-to-solve FEM system.
pub struct FemSystem {
    /// Method used.
    pub method: Method,
    /// Dofs per node.
    pub ndof: usize,
    /// The Dirichlet-wrapped operator.
    pub op: DirichletOp<Box<dyn LinOp>>,
    /// Modified right-hand side.
    pub rhs: Vec<f64>,
    /// Owned-node coordinates (error norms).
    pub owned_coords: Vec<[f64; 3]>,
    /// Setup timing breakdown.
    pub setup: SetupBreakdown,
    /// Masked operator diagonal (Jacobi).
    pub diag: Vec<f64>,
    /// Owned diagonal block (block-Jacobi), if requested at build.
    pub block: Option<SerialCsr>,
    /// Bytes the operator stores locally.
    pub storage_bytes: usize,
    /// FLOPs per operator application on this rank.
    pub flops_per_apply: u64,
}

impl FemSystem {
    /// Assemble the system on this rank's partition. Collective.
    ///
    /// # Panics
    /// On `opts.threads == 0` (whatever the method), before any work.
    pub fn build(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: Arc<dyn ElementKernel>,
        spec: &DirichletSpec,
        opts: BuildOptions,
    ) -> FemSystem {
        assert_thread_count(opts.threads);
        let ndof = kernel.ndof_per_node();
        assert_eq!(
            spec.ndof(),
            ndof,
            "Dirichlet spec dof count must match the kernel"
        );

        // Shared infrastructure (not part of the method-specific setup
        // cost): maps for rhs assembly, coordinates, constraints.
        let maps = HymvMaps::build(part);
        let exchange = GhostExchange::build(comm, &maps);
        let owned_coords = owned_node_coords(&maps, part);
        let global_constraints = constrained_dofs(part, spec);
        let constrained = owned_constraints(&maps, ndof, &global_constraints);

        let mut raw_rhs = assemble_rhs(comm, &maps, &exchange, part, &*kernel);
        if let Some(tr) = &opts.traction {
            assert_eq!(tr.ndof(), ndof, "traction dof count must match the kernel");
            assemble_traction(comm, &maps, &exchange, part, tr, &mut raw_rhs);
        }

        // Method-specific operator + diagonal (+ optional block).
        let (boxed, setup, mut diag, block): (
            Box<dyn LinOp>,
            SetupBreakdown,
            Vec<f64>,
            Option<SerialCsr>,
        ) = match opts.method {
            Method::Hymv => {
                let (mut op, t) = HymvOperator::setup(comm, part, &*kernel);
                op.set_threads(opts.threads);
                let diag = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), ndof);
                let block = if opts.want_block_jacobi {
                    Some(owned_block_csr(
                        comm,
                        op.maps(),
                        op.store(),
                        ndof,
                        &constrained,
                    ))
                } else {
                    None
                };
                let setup = SetupBreakdown {
                    emat_s: t.emat_compute_s,
                    overhead_s: t.local_copy_s + t.maps_s + t.comm_maps_s,
                };
                (Box::new(op), setup, diag, block)
            }
            Method::MatFree => {
                let op = MatFreeOperator::setup(comm, part, Arc::clone(&kernel));
                // Matrix-free Jacobi setup: one transient pass over element
                // matrices (not stored — the diagonal only).
                let diag = computed_jacobi_diagonal(comm, &maps, &exchange, part, &*kernel);
                assert!(
                    !opts.want_block_jacobi,
                    "block-Jacobi requires stored matrices (HYMV or assembled)"
                );
                (Box::new(op), SetupBreakdown::default(), diag, None)
            }
            Method::Assembled => {
                let (op, t) = AssembledOperator::setup(comm, part, &*kernel);
                let diag = op.diagonal();
                let block = opts
                    .want_block_jacobi
                    .then(|| mask_csr(&op.matrix().diag, &constrained));
                let setup = SetupBreakdown {
                    emat_s: t.emat_compute_s,
                    overhead_s: t.assembly_s,
                };
                (Box::new(op), setup, diag, block)
            }
        };

        let storage_bytes = boxed.storage_bytes();
        let flops_per_apply = boxed.flops_per_apply();
        let mut op = DirichletOp::new(boxed, constrained);
        op.mask_diagonal(&mut diag);
        let rhs = op.build_rhs(comm, &raw_rhs);

        FemSystem {
            method: opts.method,
            ndof,
            op,
            rhs,
            owned_coords,
            setup,
            diag,
            block,
            storage_bytes,
            flops_per_apply,
        }
    }

    /// Owned dof count.
    pub fn n_owned(&self) -> usize {
        self.op.n_owned()
    }

    /// Solve with standard CG; returns the owned solution and convergence
    /// report.
    pub fn solve(
        &mut self,
        comm: &mut Comm,
        precond: PrecondKind,
        rtol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, CgResult) {
        self.solve_with(comm, SolverKind::Cg, precond, rtol, max_iter)
    }

    /// Solve with an explicit Krylov method.
    pub fn solve_with(
        &mut self,
        comm: &mut Comm,
        solver: SolverKind,
        precond: PrecondKind,
        rtol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, CgResult) {
        let krylov = match solver {
            SolverKind::Cg => cg,
            SolverKind::PipelinedCg => hymv_la::pipelined_cg,
        };
        let mut x = vec![0.0; self.n_owned()];
        let rhs = std::mem::take(&mut self.rhs);
        let res = match precond {
            PrecondKind::None => krylov(
                comm,
                &mut self.op,
                &mut Identity,
                &rhs,
                &mut x,
                rtol,
                max_iter,
            ),
            PrecondKind::Jacobi => {
                let mut pc = Jacobi::new(&self.diag);
                krylov(comm, &mut self.op, &mut pc, &rhs, &mut x, rtol, max_iter)
            }
            PrecondKind::BlockJacobi => {
                let block = self
                    .block
                    .as_ref()
                    .expect("build with want_block_jacobi = true to use BlockJacobi");
                let mut pc = BlockJacobi::ilu0(block);
                krylov(comm, &mut self.op, &mut pc, &rhs, &mut x, rtol, max_iter)
            }
        };
        self.rhs = rhs;
        (x, res)
    }

    /// Run `n` SPMVs on a deterministic vector; returns elapsed virtual
    /// seconds on this rank (the paper's "time for ten SPMV operations").
    pub fn time_spmvs(&mut self, comm: &mut Comm, n: usize) -> f64 {
        let len = self.n_owned();
        let x: Vec<f64> = (0..len).map(|i| ((i % 97) as f64) * 0.01 - 0.5).collect();
        let mut y = vec![0.0; len];
        comm.barrier();
        let vt0 = comm.vt();
        for _ in 0..n {
            self.op.apply(comm, &x, &mut y);
        }
        comm.vt() - vt0
    }

    /// Global infinity-norm error of a nodal solution against an exact
    /// field. Collective.
    pub fn inf_error(
        &self,
        comm: &mut Comm,
        solution: &[f64],
        exact: impl Fn([f64; 3]) -> Vec<f64>,
    ) -> f64 {
        let local = hymv_fem::analytic::inf_error(&self.owned_coords, solution, self.ndof, exact);
        comm.allreduce_max_f64(local)
    }
}

/// Replace constrained rows/columns of a CSR block by the identity
/// (assembled-method block-Jacobi setup).
fn mask_csr(block: &SerialCsr, constrained: &[(u32, f64)]) -> SerialCsr {
    let n = block.n_rows();
    let mut mask = vec![false; n];
    for &(d, _) in constrained {
        mask[d as usize] = true;
    }
    let mut triples: Vec<(u32, u32, f64)> = Vec::with_capacity(block.nnz());
    for r in 0..n {
        for idx in block.ptr[r]..block.ptr[r + 1] {
            let c = block.cols[idx] as usize;
            if !mask[r] && !mask[c] && block.vals[idx] != 0.0 {
                triples.push((r as u32, c as u32, block.vals[idx]));
            }
        }
    }
    for (d, _) in constrained {
        triples.push((*d, *d, 1.0));
    }
    SerialCsr::from_triples(n, n, triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::analytic::PoissonProblem;
    use hymv_fem::PoissonKernel;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    fn poisson_kernel() -> Arc<dyn ElementKernel> {
        Arc::new(PoissonKernel::with_body(
            ElementType::Hex8,
            PoissonProblem::body(),
        ))
    }

    #[test]
    fn all_methods_solve_poisson_to_same_solution() {
        let mesh = StructuredHexMesh::unit(6, ElementType::Hex8).build();
        let p = 3;
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let mut solutions: Vec<Vec<f64>> = Vec::new();
        let mut errors = Vec::new();
        for method in [Method::Hymv, Method::MatFree, Method::Assembled] {
            let out = Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let mut sys = FemSystem::build(
                    comm,
                    part,
                    poisson_kernel(),
                    &PoissonProblem::dirichlet(),
                    BuildOptions::new(method),
                );
                let (x, res) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 2000);
                assert!(res.converged, "{method:?}: {res:?}");
                let err = sys.inf_error(comm, &x, |p| vec![PoissonProblem::exact(p)]);
                (x, err)
            });
            let mut flat = Vec::new();
            for (x, err) in out {
                flat.extend(x);
                errors.push(err);
            }
            solutions.push(flat);
        }
        // All three methods produce the same discrete solution.
        for s in &solutions[1..] {
            for (a, b) in s.iter().zip(&solutions[0]) {
                assert!((a - b).abs() < 1e-7, "{a} vs {b}");
            }
        }
        // And it approximates the analytic solution (coarse mesh: loose).
        for err in errors {
            assert!(err < 5e-3, "discretization error {err}");
        }
    }

    #[test]
    fn block_jacobi_converges_faster_than_jacobi() {
        // A jittered mesh: on a perfectly uniform grid the sin-product rhs
        // is an exact eigenvector of the discrete Laplacian and CG
        // converges in one iteration regardless of preconditioning.
        let mesh = hymv_mesh::unstructured_hex_mesh(
            6,
            6,
            6,
            ElementType::Hex8,
            [0.0; 3],
            [1.0; 3],
            0.2,
            3,
        );
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let mut opts = BuildOptions::new(Method::Hymv);
            opts.want_block_jacobi = true;
            let mut sys = FemSystem::build(
                comm,
                part,
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                opts,
            );
            let (_, rj) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 2000);
            let (_, rb) = sys.solve(comm, PrecondKind::BlockJacobi, 1e-10, 2000);
            assert!(rj.converged && rb.converged);
            (rj.iterations, rb.iterations)
        });
        let (j, b) = out[0];
        assert!(b < j, "block-Jacobi {b} should beat Jacobi {j}");
    }

    #[test]
    fn time_spmvs_returns_positive_time() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let mut sys = FemSystem::build(
                comm,
                &pm.parts[comm.rank()],
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            sys.time_spmvs(comm, 10)
        });
        assert!(out.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn setup_breakdown_ordering() {
        // HYMV overhead (local copy) must be far below assembled overhead
        // (global communication) on a multi-rank run.
        let mesh = StructuredHexMesh::unit(6, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
        let out = Universe::run(4, |comm| {
            let part = &pm.parts[comm.rank()];
            let h = FemSystem::build(
                comm,
                part,
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let a = FemSystem::build(
                comm,
                part,
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Assembled),
            );
            let m = FemSystem::build(
                comm,
                part,
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::MatFree),
            );
            (h.setup, a.setup, m.setup)
        });
        for (h, a, m) in out {
            assert_eq!(m.total(), 0.0, "matrix-free has no setup");
            assert!(
                h.overhead_s < a.overhead_s,
                "HYMV overhead {} must beat assembly {}",
                h.overhead_s,
                a.overhead_s
            );
        }
    }

    #[test]
    #[should_panic(expected = "want_block_jacobi")]
    fn block_jacobi_requires_prebuild() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let _ = Universe::run(1, |comm| {
            let mut sys = FemSystem::build(
                comm,
                &pm.parts[0],
                poisson_kernel(),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let _ = sys.solve(comm, PrecondKind::BlockJacobi, 1e-6, 10);
        });
    }
}
