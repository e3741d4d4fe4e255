//! GPU-resident conjugate gradients — the paper's stated future work.
//!
//! §V-F: "HYMV only uses the GPU for accelerating SPMV but not for other
//! operations part of the CG solve (handled by PETSc)." In the simulated
//! setting the CG vectors live on the device: [`hymv_la::cg_on`] runs the
//! one CG core with [`DeviceBlas`] as its vector loops and
//! [`DeviceJacobi`] as its preconditioner, so every vector loop is a
//! modeled device kernel (executed bit-exactly on the host) and per
//! iteration only ghost values and reduction scalars cross PCIe. The
//! result is host `cg`'s, bit for bit; only the charge differs.
//!
//! Compare with the host-CG-plus-GPU-SPMV configuration via
//! `fig11 c-resident` (`crates/bench/src/bin/fig11.rs`).

use hymv_comm::Comm;
use hymv_la::{Jacobi, Precond, VectorLoops};

use crate::model::GpuModel;

/// The device's vector loops: each runs on the host and is charged as
/// one modeled kernel of the loop's flops and bytes; a local-sum loop
/// also pays the D2H of its scalars before the allreduce.
pub struct DeviceBlas {
    model: GpuModel,
}

impl DeviceBlas {
    /// Device vector loops on `model`.
    pub fn new(model: GpuModel) -> Self {
        DeviceBlas { model }
    }
}

impl VectorLoops for DeviceBlas {
    fn vector_update(&mut self, comm: &mut Comm, flops: u64, bytes: usize, f: impl FnOnce()) {
        f();
        comm.add_modeled_time(self.model.kernel_time(flops, bytes));
    }

    fn vector_sums<const K: usize>(
        &mut self,
        comm: &mut Comm,
        flops: u64,
        bytes: usize,
        f: impl FnOnce() -> [f64; K],
    ) -> [f64; K] {
        let sums = f();
        let kernel = self.model.kernel_time(flops, bytes);
        comm.add_modeled_time(kernel + self.model.d2h_time(K * 8));
        sums
    }
}

/// Point-Jacobi on the device: [`Jacobi::scale`]'s loop, charged as one
/// modeled pointwise kernel instead of host time.
pub struct DeviceJacobi {
    jacobi: Jacobi,
    model: GpuModel,
}

impl DeviceJacobi {
    /// Build from the owned diagonal entries, as [`Jacobi::new`].
    pub fn new(diag: &[f64], model: GpuModel) -> Self {
        DeviceJacobi {
            jacobi: Jacobi::new(diag),
            model,
        }
    }
}

impl Precond for DeviceJacobi {
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        self.jacobi.scale(r, z);
        let n = r.len();
        comm.add_modeled_time(self.model.kernel_time(n as u64, 3 * n * 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_core::system::{BuildOptions, FemSystem, Method, PrecondKind};
    use hymv_fem::analytic::PoissonProblem;
    use hymv_fem::PoissonKernel;
    use hymv_la::{cg_on, LinOp};
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};
    use std::sync::Arc;

    /// The device solve is host `cg` with another charge: same bits, same
    /// iteration count (`tests/solvers.rs` checks it on the GPU operator).
    #[test]
    fn resident_cg_matches_host_cg() {
        let mesh = StructuredHexMesh::unit(6, ElementType::Hex8).build();
        let p = 2;
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let out = Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
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
            let (x_host, res_host) = sys.solve(comm, PrecondKind::Jacobi, 1e-10, 5000);

            let model = GpuModel::default();
            let mut x_dev = vec![0.0; sys.n_owned()];
            let mut jacobi = DeviceJacobi::new(&sys.diag, model);
            let res_dev = cg_on(
                comm,
                &mut DeviceBlas::new(model),
                &mut sys.op,
                &mut jacobi,
                &rhs,
                &mut x_dev,
                1e-10,
                5000,
            );
            assert!(res_host.converged);
            assert_eq!(res_host.iterations, res_dev.iterations);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            bits(&x_host) == bits(&x_dev)
        });
        assert!(out.iter().all(|&same| same), "{out:?}");
    }

    /// A NaN operator must not read as converged: the core reports a
    /// non-finite recurrence, which the plain entry raises.
    #[test]
    #[should_panic(expected = "non-finite CG recurrence")]
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
        Universe::run(1, |comm| {
            let model = GpuModel::default();
            let (mut blas, mut jacobi) =
                (DeviceBlas::new(model), DeviceJacobi::new(&[1.0; 4], model));
            let (b, mut x) = ([1.0; 4], [0.0; 4]);
            cg_on(
                comm,
                &mut blas,
                &mut NanOp,
                &mut jacobi,
                &b,
                &mut x,
                1e-8,
                10,
            )
        });
    }
}
