//! Solver-level integration: standard CG, pipelined CG, and the
//! GPU-resident CG produce the same solutions through the full FEM stack.

use std::sync::Arc;

use hymv::comm::Comm;
use hymv::la::solver::{dot, norm2};
use hymv::la::{resilient_cg, CgResult, Precond, RecoveryPolicy};
use hymv::prelude::*;

fn jittered_poisson(n: usize) -> GlobalMesh {
    unstructured_hex_mesh(n, n, n, ElementType::Hex8, [0.0; 3], [1.0; 3], 0.2, 29)
}

/// Preconditioned CG written out with three blocking reductions per
/// iteration (`pᵀAp`, `rᵀz`, `‖r‖`), through the public API only: the
/// reference the library's fused two-reduction recurrence must equal bit
/// for bit.
fn reference_cg(
    comm: &mut Comm,
    op: &mut dyn LinOp,
    precond: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> CgResult {
    let n = op.n_owned();
    let (mut r, mut z, mut p, mut ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    op.apply(comm, x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let bnorm = norm2(comm, b);
    precond.apply(comm, &r, &mut z);
    p.copy_from_slice(&z);
    let mut rz = dot(comm, &r, &z);
    let mut rnorm = norm2(comm, &r);
    let mut history = vec![rnorm / bnorm];
    let mut iterations = 0;
    while rnorm / bnorm > rtol && iterations < max_iter {
        op.apply(comm, &p, &mut ap);
        let alpha = rz / dot(comm, &p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        precond.apply(comm, &r, &mut z);
        let rz_new = dot(comm, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        rnorm = norm2(comm, &r);
        history.push(rnorm / bnorm);
        iterations += 1;
    }
    CgResult {
        iterations,
        converged: rnorm / bnorm <= rtol,
        rel_residual: rnorm / bnorm,
        history,
    }
}

/// `cg` and a healthy `resilient_cg` fuse `rᵀz` and `‖r‖` into one
/// reduction; the vector sum adds the rank contributions in the same order
/// as the scalar one, so iterate, history and iteration count keep the
/// three-reduction reference's bits at every rank count.
#[test]
fn cg_and_resilient_cg_equal_the_three_reduction_reference_bitwise() {
    let mesh = StructuredHexMesh::unit(7, ElementType::Hex8).build();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for p in [1, 2, 3, 5] {
        let pm = partition_mesh(&mesh, p, PartitionMethod::Rcb);
        Universe::run(p, |comm| {
            let mut sys = FemSystem::build(
                comm,
                &pm.parts[comm.rank()],
                Arc::new(PoissonKernel::new(ElementType::Hex8)),
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let n = sys.n_owned();
            let b: Vec<f64> = (0..n)
                .map(|i| ((i + 97 * comm.rank()) as f64 * 0.37).sin())
                .collect();
            let mut pc = Jacobi::new(&sys.diag);
            let (rtol, max_iter) = (1e-9, 500);

            let mut x_ref = vec![0.0; n];
            let want = reference_cg(comm, &mut sys.op, &mut pc, &b, &mut x_ref, rtol, max_iter);
            assert!(want.converged, "p={p}: {want:?}");

            let mut x = vec![0.0; n];
            let got = cg(comm, &mut sys.op, &mut pc, &b, &mut x, rtol, max_iter);
            assert_eq!(got.iterations, want.iterations, "p={p}: cg iterations");
            assert_eq!(bits(&got.history), bits(&want.history), "p={p}: cg history");
            assert_eq!(bits(&x), bits(&x_ref), "p={p}: cg solution");

            let mut x = vec![0.0; n];
            let res = resilient_cg(
                comm,
                &mut sys.op,
                &mut pc,
                &b,
                &mut x,
                rtol,
                max_iter,
                &RecoveryPolicy::default(),
            )
            .expect("healthy operator");
            assert_eq!(res.rollbacks + res.restarts, 0);
            let got = res.result;
            assert_eq!(
                got.iterations, want.iterations,
                "p={p}: resilient iterations"
            );
            assert_eq!(
                bits(&got.history),
                bits(&want.history),
                "p={p}: resilient history"
            );
            assert_eq!(bits(&x), bits(&x_ref), "p={p}: resilient solution");
        });
    }
}

#[test]
fn pipelined_cg_equals_cg_through_fem_system() {
    let mesh = jittered_poisson(6);
    let p = 3;
    let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = Arc::new(PoissonKernel::with_body(
            ElementType::Hex8,
            PoissonProblem::body(),
        ));
        let mut sys = FemSystem::build(
            comm,
            part,
            kernel,
            &PoissonProblem::dirichlet(),
            BuildOptions::new(Method::Hymv),
        );
        let (x_cg, r_cg) = sys.solve_with(comm, SolverKind::Cg, PrecondKind::Jacobi, 1e-11, 50_000);
        let (x_p, r_p) = sys.solve_with(
            comm,
            SolverKind::PipelinedCg,
            PrecondKind::Jacobi,
            1e-11,
            50_000,
        );
        assert!(r_cg.converged && r_p.converged, "{r_cg:?} {r_p:?}");
        let d = x_cg
            .iter()
            .zip(&x_p)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        comm.allreduce_max_f64(d)
    });
    assert!(out[0] < 1e-8, "solutions diverge by {}", out[0]);
}

#[test]
fn pipelined_cg_all_methods_same_iterations() {
    let mesh = jittered_poisson(5);
    let p = 2;
    let pm = partition_mesh(&mesh, p, PartitionMethod::Rcb);
    let mut iters = Vec::new();
    for method in [Method::Hymv, Method::MatFree, Method::Assembled] {
        let out = Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = Arc::new(PoissonKernel::with_body(
                ElementType::Hex8,
                PoissonProblem::body(),
            ));
            let mut sys = FemSystem::build(
                comm,
                part,
                kernel,
                &PoissonProblem::dirichlet(),
                BuildOptions::new(method),
            );
            let (_, res) = sys.solve_with(
                comm,
                SolverKind::PipelinedCg,
                PrecondKind::Jacobi,
                1e-9,
                50_000,
            );
            assert!(res.converged);
            res.iterations
        });
        iters.push(out[0]);
    }
    assert_eq!(iters[0], iters[1]);
    assert_eq!(iters[0], iters[2]);
}

#[test]
fn gpu_resident_cg_through_full_stack() {
    use hymv::core::assemble::{assemble_rhs, jacobi_diagonal, owned_node_coords};
    use hymv::core::dirichlet_op::{owned_constraints, DirichletOp};
    use hymv::fem::dirichlet::constrained_dofs;

    let mesh = jittered_poisson(5);
    let p = 2;
    let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
    let out = Universe::run(p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = PoissonKernel::with_body(ElementType::Hex8, PoissonProblem::body());
        let maps = HymvMaps::build(part);
        let exchange = GhostExchange::build(comm, &maps);
        let raw_rhs = assemble_rhs(comm, &maps, &exchange, part, &kernel);
        let spec = PoissonProblem::dirichlet();
        let constrained = owned_constraints(&maps, 1, &constrained_dofs(part, &spec));

        let (op, _) = HymvGpuOperator::setup(
            comm,
            part,
            &kernel,
            GpuModel::default(),
            4,
            GpuScheme::OverlapGpu,
            2,
        );
        let mut diag = jacobi_diagonal(comm, &maps, &exchange, op.store(), 1);
        let boxed: Box<dyn LinOp> = Box::new(op);
        let mut wrapped = DirichletOp::new(boxed, constrained);
        wrapped.mask_diagonal(&mut diag);
        let rhs = wrapped.build_rhs(comm, &raw_rhs);

        // The device-resident solve: the CG core with device vector loops
        // and a device Jacobi.
        let model = GpuModel::default();
        let mut x = vec![0.0; wrapped.n_owned()];
        let mut jacobi = DeviceJacobi::new(&diag, model);
        let mut blas = DeviceBlas::new(model);
        let res = cg_on(
            comm,
            &mut blas,
            &mut wrapped,
            &mut jacobi,
            &rhs,
            &mut x,
            1e-10,
            50_000,
        );
        assert!(res.converged, "{res:?}");
        // Host CG on the same operator: the same bits and iterations.
        let mut x_host = vec![0.0; wrapped.n_owned()];
        let mut host_jacobi = Jacobi::new(&diag);
        let host = cg(
            comm,
            &mut wrapped,
            &mut host_jacobi,
            &rhs,
            &mut x_host,
            1e-10,
            50_000,
        );
        assert_eq!(host.iterations, res.iterations);
        assert!(x
            .iter()
            .zip(&x_host)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let coords = owned_node_coords(&maps, part);
        let err =
            hymv::fem::analytic::inf_error(&coords, &x, 1, |p| vec![PoissonProblem::exact(p)]);
        comm.allreduce_max_f64(err)
    });
    assert!(out[0] < 5e-3, "solution error {}", out[0]);
}

#[test]
fn pipelined_cg_elasticity_with_block_jacobi() {
    let bar = BarProblem::default_unit();
    let (lo, hi) = bar.bbox();
    let mesh = unstructured_hex_mesh(5, 5, 5, ElementType::Hex8, lo, hi, 0.15, 41);
    let pm = partition_mesh(&mesh, 2, PartitionMethod::Rcb);
    let out = Universe::run(2, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = Arc::new(ElasticityKernel::new(
            ElementType::Hex8,
            bar.young,
            bar.poisson,
            bar.body_force(),
        ));
        let mut opts = BuildOptions::new(Method::Hymv);
        opts.want_block_jacobi = true;
        let mut sys = FemSystem::build(comm, part, kernel, &bar.dirichlet(), opts);
        let (u, res) = sys.solve_with(
            comm,
            SolverKind::PipelinedCg,
            PrecondKind::BlockJacobi,
            1e-10,
            50_000,
        );
        assert!(res.converged);
        sys.inf_error(comm, &u, |x| bar.exact(x).to_vec())
    });
    assert!(out[0] < 5e-3, "error {}", out[0]);
}
