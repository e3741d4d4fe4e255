//! The matrix-free baseline (paper Algorithm 4): HYMV's one schedule with
//! another element source — element matrices are **recomputed inside every
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
use crate::schedule::{apply, ElementSource, Overlap};

/// The matrix-free operator.
pub struct MatFreeOperator {
    maps: HymvMaps,
    exchange: GhostExchange,
    ndof: usize,
    u: DistArray,
    v: DistArray,
    src: Recompute,
}

/// The matrix-free element source: `Ke` recomputed block by block into
/// scratch, then run through HYMV's batched engine.
struct Recompute {
    kernel: Arc<dyn ElementKernel>,
    /// Per-element nodal coordinates (the mesh data the recomputation
    /// needs), flat `n_elems × npe`.
    elem_coords: Vec<[f64; 3]>,
    npe: usize,
    /// Block tables shared with HYMV's batched engine (matrices are still
    /// recomputed per apply — the slabs stay in [`Self::keb`] scratch).
    plan: BlockPlan,
    batch_kernel: EmvBatchKernel,
    /// One block's matrices, column-major and back to back.
    kes: Vec<f64>,
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
        let src = Recompute {
            kernel,
            elem_coords: part.elem_coords.clone(),
            npe: maps.npe,
            plan,
            batch_kernel: select_batch_kernel(bw),
            kes: vec![0.0; nd * nd * bw],
            keb: vec![0.0; nd * nd * bw],
            ue: vec![0.0; nd * bw],
            ve: vec![0.0; nd * bw],
            scratch: KernelScratch::default(),
        };
        MatFreeOperator {
            maps,
            exchange,
            ndof,
            u,
            v,
            src,
        }
    }

    /// Algorithm 4: matrix-free SPMV — Algorithm 2's schedule, overlap
    /// policy and degraded-channel fallback included, over recomputed
    /// element matrices.
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.u.set_owned(x);
        let flops = self.flops_per_apply();
        let (src, u, v) = (&mut self.src, &mut self.u, &mut self.v);
        apply(comm, &self.exchange, Overlap::Overlapped, src, u, v, flops);
        y.copy_from_slice(self.v.owned());
    }
}

impl ElementSource for Recompute {
    fn run_element_set(
        &mut self,
        comm: &mut Comm,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
    ) {
        let npe = self.npe;
        let (nd, bw) = (self.plan.nd(), self.plan.batch_width());
        let set = self.plan.set(dependent);
        let batch_kernel = self.batch_kernel;
        let (kernel, coords) = (&*self.kernel, &self.elem_coords);
        let (kes, keb, ue, ve, scratch) = (
            &mut self.kes,
            &mut self.keb,
            &mut self.ue,
            &mut self.ve,
            &mut self.scratch,
        );
        let mut block: [&[[f64; 3]]; DEFAULT_BATCH_WIDTH] = [&[]; DEFAULT_BATCH_WIDTH];
        comm.work(|| {
            for k in 0..set.n_blocks() {
                let len = set.len(k);
                if len < bw {
                    // Tail block: padded lanes must multiply by zero.
                    keb.fill(0.0);
                }
                for (c, &e) in block.iter_mut().zip(&set.elems(k)[..len]) {
                    let e = e as usize;
                    *c = &coords[e * npe..(e + 1) * npe];
                }
                // The defining step of Algorithm 4: compute Ke here, the
                // block's elements as one lane group.
                let kes = &mut kes[..len * nd * nd];
                kernel.compute_ke_chunk(&block[..len], kes, scratch);
                for (b, ke) in kes.chunks_exact(nd * nd).enumerate() {
                    interleave_ke(ke, keb, nd, bw, b);
                }
                set.gather(k, &u.data, ue);
                batch_kernel(keb, ue, ve, nd, bw);
                set.scatter_with(k, ve, |i, val| v.data[i] += val);
            }
        });
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
        let src = &self.src;
        let nd = src.kernel.ndof_elem();
        // Ke recomputation runs per live element; the EMV part executes
        // padded tail lanes too.
        let ke = self.maps.n_elems as u64 * src.kernel.ke_flops();
        let emv = src.plan.n_blocks_total() as u64 * emv_batch_flops(nd, src.plan.batch_width());
        ke + emv
    }

    fn storage_bytes(&self) -> usize {
        // Only the mesh coordinates — the matrix-free advantage.
        self.src.elem_coords.len() * 24
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

    /// The matrix-free apply computes each block's matrices as one lane
    /// group and gives HYMV's apply to the bit — whose slabs are those of
    /// per-element `compute_ke` matrices
    /// (`chunked_ke_slabs_equal_per_element_slabs_bitwise`).
    #[test]
    fn matfree_apply_equals_hymv_apply_bitwise() {
        let cases: Vec<(hymv_mesh::GlobalMesh, Arc<dyn ElementKernel>)> = vec![
            (
                StructuredHexMesh::unit(2, ElementType::Hex20).build(),
                Arc::new(ElasticityKernel::new(
                    ElementType::Hex20,
                    207.3,
                    0.29,
                    [0.0, 0.0, -1.0],
                )),
            ),
            (
                unstructured_tet_mesh(3, ElementType::Tet10, 0.12, 7),
                Arc::new(PoissonKernel::new(ElementType::Tet10)),
            ),
        ];
        for (mesh, kernel) in cases {
            let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
            Universe::run(2, |comm| {
                let part = &pm.parts[comm.rank()];
                let (mut hymv, _) = HymvOperator::setup(comm, part, &*kernel);
                let mut mf = MatFreeOperator::setup(comm, part, Arc::clone(&kernel));
                let x: Vec<f64> = (0..hymv.n_owned())
                    .map(|i| ((i * 7 % 23) as f64) * 0.1 - 1.0)
                    .collect();
                let mut y_h = vec![0.0; hymv.n_owned()];
                let mut y_m = vec![0.0; mf.n_owned()];
                hymv.matvec(comm, &x, &mut y_h);
                mf.matvec(comm, &x, &mut y_m);
                for (i, (a, b)) in y_h.iter().zip(&y_m).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{:?} dof {i}", mesh.elem_type);
                }
            });
        }
    }

    /// The matrix-free apply notes every exchange outcome, so a degraded
    /// rank re-arms: under seeded drops with `degrade_after: 1,
    /// rearm_after: 1`, every apply that met no timeout leaves its rank
    /// overlapped again, and every apply equals the fault-free one bitwise.
    #[test]
    fn matfree_rearms_after_a_timeout_free_apply() {
        use hymv_comm::{AuditMode, CostModel, FaultPlan, RetryPolicy, RunConfig};
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let cfg = |fault: Option<FaultPlan>| RunConfig {
            model: CostModel::default(),
            perturb_seed: None,
            audit: AuditMode::Disabled,
            fault,
            retry: RetryPolicy {
                degrade_after: 1,
                rearm_after: 1,
                ..RetryPolicy::default()
            },
            trace: false,
        };
        // Per apply: (result bits, timeouts seen, degraded afterwards).
        let program = |comm: &mut Comm| {
            let kernel: Arc<dyn ElementKernel> = Arc::new(PoissonKernel::new(ElementType::Hex8));
            let mut mf = MatFreeOperator::setup(comm, &pm.parts[comm.rank()], kernel);
            let x: Vec<f64> = (0..mf.n_owned()).map(|i| (i as f64 * 0.4).cos()).collect();
            let mut y = vec![0.0; mf.n_owned()];
            (0..16)
                .map(|_| {
                    let t0 = comm.stats().timeouts;
                    mf.matvec(comm, &x, &mut y);
                    let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    let out = (bits, comm.stats().timeouts - t0, comm.degraded());
                    // A rank that is done may not leave while its peer can
                    // still need one of its envelopes resent.
                    comm.barrier();
                    out
                })
                .collect::<Vec<_>>()
        };
        let (clean, _) = Universe::run_configured(cfg(None), 2, program);
        let plan = FaultPlan::new(3).with_drop(0.2);
        let (faulted, _) = Universe::run_chaos(cfg(Some(plan)), 2, program);
        let mut rearms = 0;
        for (rank, res) in faulted.into_iter().enumerate() {
            let applies = res.expect("drops heal within the retry budget");
            for (k, (bits, timeouts, degraded)) in applies.iter().enumerate() {
                assert!(
                    bits == &clean[rank][k].0,
                    "rank {rank} apply {k}: bits differ"
                );
                if *timeouts == 0 {
                    assert!(!degraded, "rank {rank} apply {k}: still degraded");
                    rearms += usize::from(k > 0 && applies[k - 1].2);
                }
            }
        }
        assert!(rearms > 0, "no rank degraded and then re-armed");
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
