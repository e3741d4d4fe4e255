//! GPU-resident conjugate gradients — the paper's stated future work.
//!
//! §V-F: "HYMV only uses the GPU for accelerating SPMV but not for other
//! operations part of the CG solve (handled by PETSc)." This module closes
//! that gap in the simulated setting: the CG vectors live on the device,
//! the axpy/dot/preconditioner updates run as device kernels (modeled on
//! the simulator, executed bit-exactly on the host), and per iteration
//! only ghost values and reduction scalars cross PCIe.
//!
//! Compare with the host-CG-plus-GPU-SPMV configuration via
//! `fig11 c-resident` (`crates/bench/src/bin/fig11.rs`).

use hymv_comm::Comm;
use hymv_la::{CgResult, LinOp};

use crate::sim::DeviceSim;

/// Device-modeled BLAS-1 operations: numerics on the host, time from the
/// device model. One instance per rank, sharing the operator's simulator
/// parameters.
pub struct DeviceBlas {
    sim: DeviceSim,
}

impl DeviceBlas {
    /// New device-BLAS context on a one-stream timeline.
    pub fn new(sim: DeviceSim) -> Self {
        DeviceBlas { sim }
    }

    fn charge_kernel(&mut self, comm: &mut Comm, flops: u64, bytes: usize, label: &str) {
        self.sim.begin_window();
        self.sim.kernel(0, flops, bytes, label);
        let dt = self.sim.window_elapsed();
        comm.add_modeled_time(dt);
    }

    /// `y += α x` on the device.
    pub fn axpy(&mut self, comm: &mut Comm, alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
        self.charge_kernel(comm, 2 * x.len() as u64, 3 * x.len() * 8, "axpy");
    }

    /// `y = x + β y` on the device.
    pub fn xpby(&mut self, comm: &mut Comm, x: &[f64], beta: f64, y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = xi + beta * *yi;
        }
        self.charge_kernel(comm, 2 * x.len() as u64, 3 * x.len() * 8, "xpby");
    }

    /// Pointwise `z = d ⊙ r` (device Jacobi application).
    pub fn pointwise(&mut self, comm: &mut Comm, d: &[f64], r: &[f64], z: &mut [f64]) {
        for ((zi, di), ri) in z.iter_mut().zip(d).zip(r) {
            *zi = di * ri;
        }
        self.charge_kernel(comm, d.len() as u64, 3 * d.len() * 8, "jacobi");
    }

    /// Device dot product + global reduction: the kernel reads both
    /// vectors, a scalar crosses PCIe, then the MPI allreduce runs.
    pub fn dot(&mut self, comm: &mut Comm, x: &[f64], y: &[f64]) -> f64 {
        let local: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        self.sim.begin_window();
        self.sim
            .kernel(0, 2 * x.len() as u64, 2 * x.len() * 8, "dot");
        self.sim.d2h(0, 8, "dot scalar");
        let dt = self.sim.window_elapsed();
        comm.add_modeled_time(dt);
        comm.allreduce_sum_f64(local)
    }
}

/// Jacobi-preconditioned CG with all vector operations on the device.
///
/// `inv_diag` is the owned inverse diagonal (device-resident, uploaded by
/// the caller's setup). The operator is applied as usual (HYMV-GPU's
/// batched EMV already runs on the device).
#[allow(clippy::too_many_arguments)]
pub fn gpu_resident_cg(
    comm: &mut Comm,
    op: &mut dyn LinOp,
    blas: &mut DeviceBlas,
    inv_diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> CgResult {
    let n = op.n_owned();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    assert_eq!(inv_diag.len(), n);

    let mut r = vec![0.0; n];
    op.apply(comm, x, &mut r);
    // r = b − Ax as one device kernel (fused with the sign flip).
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    blas.charge_kernel(comm, n as u64, 3 * n * 8, "residual");

    let bnorm = blas.dot(comm, b, b).sqrt();
    if bnorm == 0.0 {
        x.fill(0.0);
        return CgResult {
            iterations: 0,
            converged: true,
            rel_residual: 0.0,
            history: vec![0.0],
        };
    }

    let mut z = vec![0.0; n];
    blas.pointwise(comm, inv_diag, &r, &mut z);
    let mut p = z.clone();
    blas.charge_kernel(comm, 0, 2 * n * 8, "copy p");
    let mut ap = vec![0.0; n];
    let mut rz = blas.dot(comm, &r, &z);
    let mut rnorm = blas.dot(comm, &r, &r).sqrt();
    let mut history = vec![rnorm / bnorm];

    let mut iterations = 0;
    while rnorm / bnorm > rtol && iterations < max_iter {
        op.apply(comm, &p, &mut ap);
        let pap = blas.dot(comm, &p, &ap);
        assert!(pap > 0.0, "GPU-resident CG requires SPD (pᵀAp = {pap})");
        let alpha = rz / pap;
        blas.axpy(comm, alpha, &p, x);
        blas.axpy(comm, -alpha, &ap, &mut r);
        blas.pointwise(comm, inv_diag, &r, &mut z);
        let rz_new = blas.dot(comm, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        blas.xpby(comm, &z, beta, &mut p);
        rnorm = blas.dot(comm, &r, &r).sqrt();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpuModel;
    use crate::operator::{GpuScheme, HymvGpuOperator};
    use hymv_comm::Universe;
    use hymv_core::assemble::jacobi_diagonal;
    use hymv_core::exchange::GhostExchange;
    use hymv_core::maps::HymvMaps;
    use hymv_core::system::{BuildOptions, FemSystem, Method, PrecondKind};
    use hymv_fem::analytic::PoissonProblem;
    use hymv_fem::PoissonKernel;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};
    use std::sync::Arc;

    #[test]
    fn resident_cg_matches_host_cg() {
        let mesh = StructuredHexMesh::unit(6, ElementType::Hex8).build();
        let p = 2;
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let out = Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            // Reference: the standard FemSystem host solve.
            let kernel = Arc::new(PoissonKernel::with_body(
                ElementType::Hex8,
                PoissonProblem::body(),
            ));
            let mut sys = FemSystem::build(
                comm,
                part,
                Arc::clone(&kernel) as Arc<dyn hymv_fem::ElementKernel>,
                &PoissonProblem::dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let rhs = sys.rhs.clone();
            let inv_diag: Vec<f64> = sys.diag.iter().map(|d| 1.0 / d).collect();
            let (x_host, res_host) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 5000);

            // GPU-resident solve on the same Dirichlet-wrapped operator.
            let mut blas = DeviceBlas::new(crate::sim::DeviceSim::new(GpuModel::default(), 1));
            let mut x_dev = vec![0.0; sys.n_owned()];
            let res_dev = gpu_resident_cg(
                comm,
                &mut sys.op,
                &mut blas,
                &inv_diag,
                &rhs,
                &mut x_dev,
                1e-10,
                5000,
            );
            assert!(res_host.converged && res_dev.converged);
            assert_eq!(res_host.iterations, res_dev.iterations);
            x_host
                .iter()
                .zip(&x_dev)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        });
        assert!(out.iter().all(|&e| e < 1e-9), "{out:?}");
    }

    #[test]
    fn resident_cg_with_gpu_operator() {
        // Full device configuration: HYMV-GPU SPMV + device BLAS.
        let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let maps = HymvMaps::build(part);
            let exchange = GhostExchange::build(comm, &maps);
            let (mut op, _) = HymvGpuOperator::setup(
                comm,
                part,
                &kernel,
                GpuModel::default(),
                4,
                GpuScheme::Blocking,
                2,
            );
            let diag = jacobi_diagonal(comm, &maps, &exchange, op.store(), 1);
            let inv_diag: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
            // SPD raw Laplacian is singular (constants); shift it by
            // solving on the subspace via rhs orthogonal to constants is
            // overkill for a smoke test — add a mass-like shift through
            // the rhs instead: solve (A + I)y = b using a wrapped op.
            struct Shifted<'a>(&'a mut HymvGpuOperator);
            impl LinOp for Shifted<'_> {
                fn n_owned(&self) -> usize {
                    self.0.n_owned()
                }
                fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
                    self.0.matvec(comm, x, y);
                    for (yi, xi) in y.iter_mut().zip(x) {
                        *yi += xi;
                    }
                }
            }
            let n = op.n_owned();
            let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
            let mut x = vec![0.0; n];
            let mut blas = DeviceBlas::new(crate::sim::DeviceSim::new(GpuModel::default(), 1));
            let inv_shifted: Vec<f64> = inv_diag.iter().map(|d| 1.0 / (1.0 / d + 1.0)).collect();
            let res = gpu_resident_cg(
                comm,
                &mut Shifted(&mut op),
                &mut blas,
                &inv_shifted,
                &b,
                &mut x,
                1e-9,
                2000,
            );
            res.converged
        });
        assert!(out.iter().all(|&c| c));
    }

    /// A NaN operator must not read as converged: the residual norm is a
    /// square root of a sum of squares, never clamped.
    #[test]
    fn nan_operator_does_not_report_convergence() {
        struct NanOp;
        impl LinOp for NanOp {
            fn n_owned(&self) -> usize {
                4
            }
            fn apply(&mut self, _comm: &mut Comm, _x: &[f64], y: &mut [f64]) {
                y.fill(f64::NAN);
            }
        }
        let out = Universe::run(1, |comm| {
            let mut blas = DeviceBlas::new(crate::sim::DeviceSim::new(GpuModel::default(), 1));
            let mut x = vec![0.0; 4];
            gpu_resident_cg(
                comm, &mut NanOp, &mut blas, &[1.0; 4], &[1.0; 4], &mut x, 1e-8, 10,
            )
        });
        assert!(!out[0].converged, "{:?}", out[0]);
        assert!(out[0].rel_residual.is_nan(), "{:?}", out[0]);
    }
}
