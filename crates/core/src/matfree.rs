//! The matrix-free baseline (paper Algorithm 4): identical communication
//! structure to HYMV, but element matrices are **recomputed inside every
//! SPMV** instead of loaded from memory.

use std::sync::Arc;

use hymv_comm::Comm;
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::dense::{emv_batch_flops, interleave_ke, select_batch_kernel, EmvBatchKernel};
use hymv_la::LinOp;
use hymv_mesh::MeshPartition;
use hymv_trace::Phase;

use crate::block::{BlockPlan, DEFAULT_BATCH_WIDTH};
use crate::da::DistArray;
use crate::exchange::GhostExchange;
use crate::maps::HymvMaps;

/// The matrix-free operator.
pub struct MatFreeOperator {
    maps: HymvMaps,
    exchange: GhostExchange,
    kernel: Arc<dyn ElementKernel>,
    /// Per-element nodal coordinates (the mesh data the recomputation
    /// needs), flat `n_elems × npe`.
    elem_coords: Vec<[f64; 3]>,
    ndof: usize,
    u: DistArray,
    v: DistArray,
    /// Block tables shared with HYMV's batched engine (matrices are still
    /// recomputed per apply — the slabs stay in [`Self::keb`] scratch).
    plan: BlockPlan,
    batch_kernel: EmvBatchKernel,
    ke: Vec<f64>,
    /// Batch-interleaved scratch slab, `nd² × bw`.
    keb: Vec<f64>,
    ue: Vec<f64>,
    ve: Vec<f64>,
    scratch: KernelScratch,
}

impl MatFreeOperator {
    /// Setup: maps and communication plan only — there is no matrix setup
    /// cost in the matrix-free method (the paper's figures show no setup
    /// bar for it). Collective.
    pub fn setup(comm: &mut Comm, part: &MeshPartition, kernel: Arc<dyn ElementKernel>) -> Self {
        let setup_span = hymv_trace::SpanGuard::open(Phase::Setup, comm.vt());
        let ndof = kernel.ndof_per_node();
        let nd = kernel.ndof_elem();
        let maps = comm.traced(Phase::MapsBuild, |comm| {
            comm.work_with(|_| HymvMaps::build(part))
        });
        let exchange = GhostExchange::build(comm, &maps);
        let u = DistArray::new(&maps, ndof);
        let v = DistArray::new(&maps, ndof);
        let bw = DEFAULT_BATCH_WIDTH;
        // Gather/scatter tables only — matrices are recomputed per apply,
        // so no store is attached and no slabs are allocated in the plan.
        let plan = comm.traced(Phase::PlanBuild, |comm| {
            comm.work_with(|_| BlockPlan::build(&maps, ndof, bw))
        });
        setup_span.close(comm.vt());
        MatFreeOperator {
            maps,
            exchange,
            kernel,
            elem_coords: part.elem_coords.clone(),
            ndof,
            u,
            v,
            plan,
            batch_kernel: select_batch_kernel(bw),
            ke: vec![0.0; nd * nd],
            keb: vec![0.0; nd * nd * bw],
            ue: vec![0.0; nd * bw],
            ve: vec![0.0; nd * bw],
            scratch: KernelScratch::default(),
        }
    }

    /// The maps (tests, diagnostics).
    pub fn maps(&self) -> &HymvMaps {
        &self.maps
    }

    /// Current batch width.
    pub fn batch_width(&self) -> usize {
        self.plan.batch_width()
    }

    fn run_subset(&mut self, comm: &mut Comm, dependent: bool) {
        let npe = self.maps.npe;
        let (nd, bw) = (self.plan.nd(), self.plan.batch_width());
        let set = self.plan.set(dependent);
        let batch_kernel = self.batch_kernel;
        let (kernel, coords, u, v) = (&*self.kernel, &self.elem_coords, &self.u, &mut self.v);
        let (ke, keb, ue, ve, scratch) = (
            &mut self.ke,
            &mut self.keb,
            &mut self.ue,
            &mut self.ve,
            &mut self.scratch,
        );
        comm.work(|| {
            for k in 0..set.n_blocks() {
                let len = set.len(k);
                if len < bw {
                    // Tail block: padded lanes must multiply by zero.
                    keb.fill(0.0);
                }
                for (b, &e) in set.elems(k).iter().enumerate().take(len) {
                    let e = e as usize;
                    // The defining step of Algorithm 4: compute Ke here.
                    kernel.compute_ke(&coords[e * npe..(e + 1) * npe], ke, scratch);
                    interleave_ke(ke, keb, nd, bw, b);
                }
                set.gather(k, &u.data, ue);
                batch_kernel(keb, ue, ve, nd, bw);
                set.scatter_with(k, ve, |i, val| v.data[i] += val);
            }
        });
    }

    /// Bench/ablation hook: bypass the envelope wire format on the
    /// per-SPMV scatter/gather (see [`GhostExchange::set_raw_transport`]).
    pub fn set_raw_exchange(&mut self, raw: bool) {
        self.exchange.set_raw_transport(raw);
    }

    /// Algorithm 4: matrix-free SPMV (with the same overlap structure as
    /// Algorithm 2). Like [`HymvOperator::matvec`] it degrades to the
    /// blocking schedule once the reliable channel reports persistent
    /// timeouts.
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        if comm.degraded() {
            return self.matvec_blocking(comm, x, y);
        }
        self.v.fill_zero();
        self.u.set_owned(x);
        self.exchange.scatter_begin(comm, &self.u);
        comm.traced(Phase::IndepEmv, |comm| self.run_subset(comm, false));
        self.exchange.scatter_end(comm, &mut self.u);
        comm.traced(Phase::DepEmv, |comm| self.run_subset(comm, true));
        self.exchange.gather_begin(comm, &self.v);
        self.exchange.gather_end(comm, &mut self.v);
        hymv_trace::counter_add("hymv_emv_flops_total", &[], self.flops_per_apply());
        y.copy_from_slice(self.v.owned());
    }

    /// Non-overlapped matrix-free SPMV: blocking exchange up front, then
    /// all elements (ablation counterpart / degraded-mode schedule).
    pub fn matvec_blocking(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.v.fill_zero();
        self.u.set_owned(x);
        self.exchange.scatter_begin(comm, &self.u);
        self.exchange.scatter_end(comm, &mut self.u);
        comm.traced(Phase::IndepEmv, |comm| self.run_subset(comm, false));
        comm.traced(Phase::DepEmv, |comm| self.run_subset(comm, true));
        self.exchange.gather_begin(comm, &self.v);
        self.exchange.gather_end(comm, &mut self.v);
        hymv_trace::counter_add("hymv_emv_flops_total", &[], self.flops_per_apply());
        y.copy_from_slice(self.v.owned());
    }
}

impl LinOp for MatFreeOperator {
    fn n_owned(&self) -> usize {
        self.maps.n_owned() * self.ndof
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        let nd = self.kernel.ndof_elem();
        // Ke recomputation runs per live element; the EMV part executes
        // padded tail lanes too.
        let ke = self.maps.n_elems as u64 * self.kernel.ke_flops();
        let emv = self.plan.n_blocks_total() as u64 * emv_batch_flops(nd, self.plan.batch_width());
        ke + emv
    }

    fn storage_bytes(&self) -> usize {
        // Only the mesh coordinates — the matrix-free advantage.
        self.elem_coords.len() * 24
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

    /// The golden equivalence: matrix-free SPMV == HYMV SPMV, for scalar
    /// and vector operators, structured and unstructured meshes.
    #[test]
    fn matfree_equals_hymv() {
        let cases: Vec<(hymv_mesh::GlobalMesh, Arc<dyn ElementKernel>)> = vec![
            (
                StructuredHexMesh::unit(3, ElementType::Hex8).build(),
                Arc::new(PoissonKernel::new(ElementType::Hex8)),
            ),
            (
                StructuredHexMesh::unit(2, ElementType::Hex20).build(),
                Arc::new(ElasticityKernel::new(
                    ElementType::Hex20,
                    100.0,
                    0.3,
                    [0.0, 0.0, -1.0],
                )),
            ),
            (
                unstructured_tet_mesh(2, ElementType::Tet10, 0.12, 7),
                Arc::new(PoissonKernel::new(ElementType::Tet10)),
            ),
        ];
        for (mesh, kernel) in cases {
            let p = 3;
            let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
            let ok = Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let (mut hymv, _) = HymvOperator::setup(comm, part, &*kernel);
                let mut mf = MatFreeOperator::setup(comm, part, Arc::clone(&kernel));
                assert_eq!(hymv.n_owned(), mf.n_owned());
                let x: Vec<f64> = (0..hymv.n_owned())
                    .map(|i| ((i * 7 % 23) as f64) * 0.1 - 1.0)
                    .collect();
                let mut y_h = vec![0.0; hymv.n_owned()];
                let mut y_m = vec![0.0; mf.n_owned()];
                hymv.matvec(comm, &x, &mut y_h);
                mf.matvec(comm, &x, &mut y_m);
                y_h.iter().zip(&y_m).all(|(a, b)| (a - b).abs() < 1e-10)
            });
            assert!(ok.iter().all(|&b| b), "{:?}", mesh.elem_type);
        }
    }

    #[test]
    fn matfree_flops_exceed_hymv() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel: Arc<dyn ElementKernel> = Arc::new(PoissonKernel::new(ElementType::Hex8));
            let (hymv, _) = HymvOperator::setup(comm, &pm.parts[0], &*kernel);
            let mf = MatFreeOperator::setup(comm, &pm.parts[0], kernel);
            (
                hymv.flops_per_apply(),
                mf.flops_per_apply(),
                hymv.storage_bytes(),
                mf.storage_bytes(),
            )
        });
        let (h_flops, m_flops, h_bytes, m_bytes) = out[0];
        assert!(
            m_flops > 5 * h_flops,
            "matrix-free must do far more work: {h_flops} vs {m_flops}"
        );
        assert!(
            m_bytes < h_bytes,
            "matrix-free must store far less: {h_bytes} vs {m_bytes}"
        );
    }
}
