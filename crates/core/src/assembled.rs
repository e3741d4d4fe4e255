//! The matrix-assembled baseline: PETSc-style global assembly into a
//! distributed CSR, and its SPMV (`MatMult`).

use hymv_comm::Comm;
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::{DistCsr, LinOp};
use hymv_mesh::MeshPartition;

use crate::operator::KE_CHUNK;

/// Setup cost breakdown, matching the stacked bars of Figs 5 and 7:
/// element-matrix computation vs global-assembly communication + CSR
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AssembledSetupTimings {
    /// Element-matrix computation (same work as HYMV's).
    pub emat_compute_s: f64,
    /// Triple generation, routing to owner ranks, and CSR compression —
    /// the global-assembly overhead HYMV avoids.
    pub assembly_s: f64,
}

impl AssembledSetupTimings {
    /// Total setup seconds.
    pub fn total(&self) -> f64 {
        self.emat_compute_s + self.assembly_s
    }
}

/// The assembled operator (global distributed CSR).
pub struct AssembledOperator {
    mat: DistCsr,
    n_owned: usize,
}

impl AssembledOperator {
    /// Global assembly: compute element matrices, scatter their entries as
    /// (row, col, value) triples to the owning ranks, compress to CSR.
    /// Collective.
    pub fn setup(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
    ) -> (Self, AssembledSetupTimings) {
        let ndof = kernel.ndof_per_node();
        let npe = part.elem_type.nodes_per_elem();
        let nd = npe * ndof;
        let n_owned = part.n_owned() * ndof;
        let mut t = AssembledSetupTimings::default();

        // Element matrices → global triples, a chunk of elements at a
        // time like HYMV's own setup loop, so the emat/assembly split
        // costs both operators the same two clock pairs per chunk. The
        // ledger owns all clock reads (`Comm::timed_work`), so this stays
        // lintable against direct `thread_cpu_time` access.
        let mut triples: Vec<(u64, u64, f64)> = Vec::with_capacity(part.n_elems() * nd * nd);
        let mut kes = vec![0.0; KE_CHUNK * nd * nd];
        let mut scratch = KernelScratch::default();
        for lo in (0..part.n_elems()).step_by(KE_CHUNK) {
            let chunk = lo..(lo + KE_CHUNK).min(part.n_elems());
            let ((), te) = comm.timed_work(|_| {
                for (e, ke) in chunk.clone().zip(kes.chunks_exact_mut(nd * nd)) {
                    kernel.compute_ke(part.elem_node_coords(e), ke, &mut scratch);
                }
            });
            t.emat_compute_s += te;
            let ((), ta) = comm.timed_work(|_| {
                for (e, ke) in chunk.zip(kes.chunks_exact(nd * nd)) {
                    let nodes = part.elem_nodes(e);
                    for (bj, &gj) in nodes.iter().enumerate() {
                        for cj in 0..ndof {
                            let col = gj * ndof as u64 + cj as u64;
                            let kcol = (bj * ndof + cj) * nd;
                            for (bi, &gi) in nodes.iter().enumerate() {
                                for ci in 0..ndof {
                                    let row = gi * ndof as u64 + ci as u64;
                                    let v = ke[kcol + bi * ndof + ci];
                                    if v != 0.0 {
                                        triples.push((row, col, v));
                                    }
                                }
                            }
                        }
                    }
                }
            });
            t.assembly_s += ta;
        }

        // Route and compress — the communication-heavy part.
        let vt0 = comm.vt();
        let mat = DistCsr::from_triples(comm, n_owned, triples);
        t.assembly_s += comm.vt() - vt0;

        (AssembledOperator { mat, n_owned }, t)
    }

    /// The underlying distributed matrix.
    pub fn matrix(&self) -> &DistCsr {
        &self.mat
    }

    /// Mutable access to the distributed matrix (the simulated-GPU backend
    /// drives the SPMV itself).
    pub fn matrix_mut(&mut self) -> &mut DistCsr {
        &mut self.mat
    }

    /// Owned diagonal (Jacobi preconditioner setup).
    pub fn diagonal(&self) -> Vec<f64> {
        self.mat.diagonal()
    }
}

impl LinOp for AssembledOperator {
    fn n_owned(&self) -> usize {
        self.n_owned
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.mat.spmv(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        self.mat.spmv_flops()
    }

    fn storage_bytes(&self) -> usize {
        self.mat.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::HymvOperator;
    use hymv_comm::Universe;
    use hymv_fem::{ElasticityKernel, PoissonKernel};
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{unstructured_tet_mesh, ElementType, StructuredHexMesh};

    /// The golden equivalence: assembled SPMV == HYMV SPMV.
    #[test]
    fn assembled_equals_hymv() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        for p in [1usize, 2, 4] {
            let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
            let ok = Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let kernel = PoissonKernel::new(ElementType::Hex8);
                let (mut hymv, _) = HymvOperator::setup(comm, part, &kernel);
                let (mut asm, t) = AssembledOperator::setup(comm, part, &kernel);
                assert!(t.total() > 0.0);
                let x: Vec<f64> = (0..hymv.n_owned())
                    .map(|i| ((i * 11 % 19) as f64) * 0.2 - 1.5)
                    .collect();
                let mut y_h = vec![0.0; hymv.n_owned()];
                let mut y_a = vec![0.0; asm.n_owned()];
                hymv.matvec(comm, &x, &mut y_h);
                asm.apply(comm, &x, &mut y_a);
                y_h.iter().zip(&y_a).all(|(a, b)| (a - b).abs() < 1e-9)
            });
            assert!(ok.iter().all(|&b| b), "p={p}");
        }
    }

    #[test]
    fn assembled_equals_hymv_elasticity_unstructured() {
        let mesh = unstructured_tet_mesh(2, ElementType::Tet4, 0.15, 11);
        let p = 3;
        let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
        let ok = Universe::run(p, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = ElasticityKernel::new(ElementType::Tet4, 50.0, 0.25, [0.0, 0.0, -9.8]);
            let (mut hymv, _) = HymvOperator::setup(comm, part, &kernel);
            let (mut asm, _) = AssembledOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..hymv.n_owned())
                .map(|i| (i as f64 * 0.17).sin())
                .collect();
            let mut y_h = vec![0.0; hymv.n_owned()];
            let mut y_a = vec![0.0; asm.n_owned()];
            hymv.matvec(comm, &x, &mut y_h);
            asm.apply(comm, &x, &mut y_a);
            y_h.iter().zip(&y_a).all(|(a, b)| (a - b).abs() < 1e-9)
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn assembled_storage_smaller_than_hymv_for_shared_nodes() {
        // Assembled CSR merges duplicate entries; HYMV stores every element
        // matrix in full. On a connected mesh the CSR is smaller.
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (hymv, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            let (asm, _) = AssembledOperator::setup(comm, &pm.parts[0], &kernel);
            (hymv.storage_bytes(), asm.storage_bytes())
        });
        let (h, a) = out[0];
        assert!(a < h, "CSR {a} must be smaller than element store {h}");
    }

    #[test]
    fn setup_reports_assembly_communication() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
        let out = Universe::run(4, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (asm, t) = AssembledOperator::setup(comm, &pm.parts[comm.rank()], &kernel);
            (asm.matrix().assembly_stats, t)
        });
        // Interior ranks must ship triples for rows owned by neighbours.
        assert!(out.iter().any(|(s, _)| s.triples_sent > 0));
        for (_, t) in &out {
            assert!(t.emat_compute_s >= 0.0 && t.assembly_s >= 0.0);
        }
    }
}
