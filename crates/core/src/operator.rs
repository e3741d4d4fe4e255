//! [`HymvOperator`] — the adaptive-matrix SPMV (paper Algorithm 2).

use hymv_comm::{assert_thread_count, Comm};
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::dense::{
    emv_batch_flops, select_batch_kernel, select_batch_mv_kernel, EmvBatchKernel, MAX_BATCH_WIDTH,
};
use hymv_la::{ElementMatrices, LinOp, MultiLinOp, Multivector};
use hymv_mesh::MeshPartition;
use hymv_trace::Phase;

use crate::block::{BlockPlan, KeBuffers, SlabMatrices, DEFAULT_BATCH_WIDTH};
use crate::da::DistArray;
use crate::exchange::GhostExchange;
use crate::maps::HymvMaps;
use crate::schedule::{apply, ElementSource, Overlap};

/// Setup cost breakdown, matching the stacked bars of Figs 5 and 7:
/// element-matrix computation vs everything HYMV adds on top (map builds,
/// communication-map construction, and the local copy into the batched
/// slabs — there is **no global assembly**).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// Element-matrix computation (user-operator cost; identical work in
    /// the matrix-assembled baseline). The kernels write into one reused
    /// chunk of 32 matrices, never into a store of all of them.
    pub emat_compute_s: f64,
    /// Local copy of each computed chunk into the plan's interleaved
    /// slabs — the only place the matrices are kept — while the chunk is
    /// still in cache.
    pub local_copy_s: f64,
    /// E2L map construction (Algorithm 1) and the block plan's
    /// gather/scatter tables — local.
    pub maps_s: f64,
    /// LNSM/GNGM construction — the only communication in HYMV setup.
    pub comm_maps_s: f64,
}

impl SetupTimings {
    /// Total setup seconds.
    pub fn total(&self) -> f64 {
        self.emat_compute_s + self.local_copy_s + self.maps_s + self.comm_maps_s
    }
}

/// The HYMV operator: locally stored element matrices + EBE SPMV with
/// communication/computation overlap. The block plan's interleaved slabs
/// are the only copy of the matrices it holds.
pub struct HymvOperator {
    maps: HymvMaps,
    exchange: GhostExchange,
    ndof: usize,
    /// Modeled shared-memory ("OpenMP") threads of the element loop.
    threads: usize,
    /// The batched element-block plan every SPMV runs through; its slabs
    /// hold every element matrix.
    plan: BlockPlan,
    /// Batched kernel resolved once per batch width (not per element).
    batch_kernel: EmvBatchKernel,
    /// `ke_mut` writes not yet interleaved into the slabs: one buffer per
    /// touched element, until the next flush.
    pending: KeBuffers,
    /// The SPMV's DAs and panels (`nvec = 1`).
    ws: Workspace,
    /// The SpMM's, built lazily on the first `matvec_mv` and rebuilt when
    /// the requested `nvec` changes.
    mv_ws: Option<Workspace>,
}

/// The DAs and `nd × bw × nvec` panel scratch of one apply width.
struct Workspace {
    u: DistArray,
    v: DistArray,
    ue: Vec<f64>,
    ve: Vec<f64>,
}

impl Workspace {
    fn new(maps: &HymvMaps, plan: &BlockPlan, ndof: usize, nvec: usize) -> Self {
        let pl = plan.nd() * plan.batch_width() * nvec;
        Workspace {
            u: DistArray::new_mv(maps, ndof, nvec),
            v: DistArray::new_mv(maps, ndof, nvec),
            ue: vec![0.0; pl],
            ve: vec![0.0; pl],
        }
    }
}

/// HYMV's element source: the block plan's stored slabs.
struct StoredSlabs<'a> {
    plan: &'a BlockPlan,
    threads: usize,
    kernel: EmvBatchKernel,
    ue: &'a mut [f64],
    ve: &'a mut [f64],
}

impl ElementSource for StoredSlabs<'_> {
    /// One blocked EMV loop over a subset — the SPMV loop for a single
    /// vector, the SpMM loop for a multivector — charged as run on the
    /// operator's modeled threads.
    fn run_element_set(
        &mut self,
        comm: &mut Comm,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
    ) {
        let (plan, kernel, ue, ve) = (self.plan, self.kernel, &mut *self.ue, &mut *self.ve);
        if u.nvec > 1 {
            let mv_kernel = select_batch_mv_kernel(u.nvec);
            comm.work_smp(self.threads, || {
                plan.run_serial_mv(dependent, u, v, mv_kernel, ue, ve)
            });
        } else {
            comm.work_smp(self.threads, || {
                plan.run_serial(dependent, u, v, kernel, ue, ve)
            });
        }
    }
}

impl HymvOperator {
    /// HYMV setup (paper §IV-A/§IV-D): build maps, the communication plan
    /// and the block plan's tables, then compute every element matrix once
    /// — "update every element" of an empty operator, through the routine
    /// [`Self::update_elements`] runs. Collective.
    pub fn setup(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
    ) -> (Self, SetupTimings) {
        let setup_span = hymv_trace::SpanGuard::open(Phase::Setup, comm.vt());
        let ndof = kernel.ndof_per_node();
        let nd = kernel.ndof_elem();
        let mut t = SetupTimings::default();

        let (maps, dt) = comm.traced(Phase::MapsBuild, |comm| {
            comm.timed_work(|_| HymvMaps::build(part))
        });
        t.maps_s = dt;

        let vt0 = comm.vt();
        let exchange = GhostExchange::build(comm, &maps);
        t.comm_maps_s = comm.vt() - vt0;

        // Block plan tables, charged to the map-construction bar: it is
        // map/layout work, purely local. The slabs start out packed; the
        // first asymmetric matrix demotes them inside the chunk that
        // computed it.
        let bw = DEFAULT_BATCH_WIDTH;
        let (mut plan, dt) = comm.traced(Phase::PlanBuild, |comm| {
            comm.timed_work(|_| {
                let mut p = BlockPlan::build(&maps, ndof, bw);
                p.alloc_slabs(true);
                p
            })
        });
        t.maps_s += dt;

        (t.emat_compute_s, t.local_copy_s) =
            recompute_elements(comm, part, kernel, &mut plan, 0..maps.n_elems);

        let ws = Workspace::new(&maps, &plan, ndof, 1);
        let op = HymvOperator {
            maps,
            exchange,
            ndof,
            threads: 1,
            plan,
            batch_kernel: select_batch_kernel(bw),
            pending: KeBuffers::new(nd),
            ws,
            mv_ws: None,
        };
        setup_span.close(comm.vt());
        (op, t)
    }

    /// Current batch width.
    pub fn batch_width(&self) -> usize {
        self.plan.batch_width()
    }

    /// The block plan.
    pub fn block_plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Rebuild the plan at batch width `bw` — the programmatic hook tests
    /// and `hymv-check`'s `-b<B>` rows use; setup builds at
    /// [`DEFAULT_BATCH_WIDTH`].
    ///
    /// # Panics
    /// On a width outside `1..=MAX_BATCH_WIDTH`, never a silent clamp.
    pub fn set_batch_width(&mut self, bw: usize) {
        assert!(
            (1..=MAX_BATCH_WIDTH).contains(&bw),
            "batch width {bw} outside 1..={MAX_BATCH_WIDTH}"
        );
        if bw != self.batch_width() {
            self.rebuild_plan(bw);
        }
    }

    /// Build the plan at width `bw` from the current plan's matrices
    /// (pending `ke_mut` buffers included), and everything derived from
    /// it: kernel, panel scratch and SpMM workspace.
    fn rebuild_plan(&mut self, bw: usize) {
        let mut plan = BlockPlan::build(&self.maps, self.ndof, bw);
        plan.attach_store(self.store());
        self.plan = plan;
        self.pending.release();
        self.batch_kernel = select_batch_kernel(bw);
        self.ws = Workspace::new(&self.maps, &self.plan, self.ndof, 1);
        self.mv_ws = None;
    }

    /// Set the modeled shared-memory ("OpenMP") threads per rank: every
    /// element loop's measured CPU time is divided by their Amdahl
    /// speedup. The loop itself, and so every result bit, is the same at
    /// any count. The default is 1.
    ///
    /// # Panics
    /// On 0, never a silent clamp.
    pub fn set_threads(&mut self, threads: usize) {
        assert_thread_count(threads);
        self.threads = threads;
    }

    /// The adaptive-matrix path: recompute the element matrices of
    /// `local_elems` only (XFEM enrichment / AMR refinement touching a few
    /// elements) and re-interleave them into the batched slabs at once.
    /// Purely local — no communication, no global reassembly. Returns the
    /// update time in virtual seconds. Pending `ke_mut` writes are flushed
    /// first, so a recomputed matrix replaces them.
    ///
    /// # Panics
    /// On a kernel of another dimension, a partition of another element
    /// count, or an element id out of range — before anything is written,
    /// so a rejected call leaves the operator as it was.
    pub fn update_elements(
        &mut self,
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
        local_elems: &[usize],
    ) -> f64 {
        assert_eq!(
            kernel.ndof_elem(),
            self.plan.nd(),
            "kernel/operator dimension mismatch"
        );
        assert_eq!(
            part.n_elems(),
            self.maps.n_elems,
            "partition/operator mismatch"
        );
        if let Some(&e) = local_elems.iter().find(|&&e| e >= self.maps.n_elems) {
            self.reject_element(e);
        }
        let vt0 = comm.vt();
        self.flush_updates(comm);
        let was_packed = self.plan.is_packed();
        recompute_elements(
            comm,
            part,
            kernel,
            &mut self.plan,
            local_elems.iter().copied(),
        );
        self.count_refresh(was_packed, local_elems.len());
        comm.vt() - vt0
    }

    /// The refusal of an element id the operator does not hold.
    fn reject_element(&self, e: usize) -> ! {
        panic!(
            "element {e} out of range (operator holds {})",
            self.maps.n_elems
        );
    }

    /// Direct mutable access to one element matrix (the API users call
    /// when *they* computed the enriched matrix, e.g. XFEM): a column-major
    /// buffer seeded from the slabs and interleaved back at the next apply.
    /// A second call for the same element before then returns the same
    /// buffer.
    ///
    /// # Panics
    /// On an element id out of range, before anything is recorded.
    pub fn ke_mut(&mut self, local_elem: usize) -> &mut [f64] {
        if local_elem >= self.maps.n_elems {
            self.reject_element(local_elem);
        }
        let plan = &self.plan;
        self.pending
            .buffer_for(local_elem, |ke| plan.read_slab_ke(local_elem, ke))
    }

    /// Interleave the pending `ke_mut` buffers into the plan's block slabs
    /// and drop them (no-op when there are none). A matrix that is no
    /// longer bitwise symmetric demotes a packed plan to full slabs inside
    /// this refresh (see [`BlockPlan::refresh`]); the result is that of a
    /// fresh setup on the same matrices either way.
    fn flush_updates(&mut self, comm: &mut Comm) {
        let n = self.pending.held_elems().len();
        if n == 0 {
            return;
        }
        let (plan, pending) = (&mut self.plan, &self.pending);
        let was_packed = plan.is_packed();
        comm.traced(Phase::BlockRefresh, |comm| {
            comm.work_with(|_| plan.refresh(pending, pending.held_elems()));
        });
        self.count_refresh(was_packed, n);
        self.pending.release();
    }

    /// Publish what an adaptive refresh of `n` matrices did to the plan.
    fn count_refresh(&self, was_packed: bool, n: usize) {
        hymv_trace::counter_add("hymv_block_refresh_total", &[], n as u64);
        if was_packed && !self.plan.is_packed() {
            hymv_trace::counter_add("hymv_block_demotions_total", &[], 1);
        }
    }

    /// The maps (tests, diagnostics).
    pub fn maps(&self) -> &HymvMaps {
        &self.maps
    }

    /// The communication plan.
    pub fn exchange(&self) -> &GhostExchange {
        &self.exchange
    }

    /// The element matrices, read back from the slabs (pending `ke_mut`
    /// buffers first). Its `bytes()` counts only what is held beside the
    /// slabs: the pending buffers.
    pub fn store(&self) -> SlabMatrices<'_> {
        SlabMatrices::with_pending(&self.plan, &self.pending)
    }

    /// Dofs per node.
    pub fn ndof(&self) -> usize {
        self.ndof
    }

    /// Decompose into the maps, communication plan and block plan, its
    /// slabs holding every pending `ke_mut` write (the GPU backend reuses
    /// them without copying), and the dofs per node.
    pub fn into_parts(mut self) -> (HymvMaps, GhostExchange, BlockPlan, usize) {
        if !self.pending.held_elems().is_empty() {
            self.plan.refresh(&self.pending, self.pending.held_elems());
        }
        (self.maps, self.exchange, self.plan, self.ndof)
    }

    /// Algorithm 2: the HYMV SPMV. Overlapped, unless the reliable channel
    /// has degraded (persistent timeouts under an active fault plan) —
    /// then blocking, with the same envelopes.
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec_with(comm, Overlap::Overlapped, x, y);
    }

    /// A deliberately non-overlapped SPMV (blocking exchange up front, then
    /// all elements) — the ablation counterpart of Algorithm 2.
    pub fn matvec_blocking(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec_with(comm, Overlap::Blocking, x, y);
    }

    fn matvec_with(&mut self, comm: &mut Comm, overlap: Overlap, x: &[f64], y: &mut [f64]) {
        self.flush_updates(comm);
        self.ws.u.set_owned(x);
        self.apply_stored(comm, overlap, false);
        y.copy_from_slice(self.ws.v.owned());
    }

    /// Algorithm 2 over a whole multivector: the SpMM `V = K·U`, on the
    /// same schedule as [`Self::matvec`] with an `nvec`-column DA. Every
    /// `Ke` slab is loaded once per block and reused across all `nvec`
    /// columns, and the ghost exchange ships every column of a fragment in
    /// one envelope per (neighbour, tag) — on a degraded channel too.
    pub fn matvec_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        assert_eq!(x.nrows(), self.n_owned(), "input row mismatch");
        assert_eq!(y.nrows(), self.n_owned(), "output row mismatch");
        assert_eq!(x.nvec(), y.nvec(), "column-count mismatch");
        let nvec = x.nvec();
        self.flush_updates(comm);
        if self.mv_ws.as_ref().is_none_or(|ws| ws.u.nvec != nvec) {
            self.mv_ws = Some(Workspace::new(&self.maps, &self.plan, self.ndof, nvec));
        }
        let ws = self.mv_ws.as_mut().expect("built above");
        comm.work(|| ws.u.set_owned_mv(x));
        self.apply_stored(comm, Overlap::Overlapped, true);
        let ws = self.mv_ws.as_ref().expect("built above");
        comm.work(|| ws.v.copy_owned_to(y));
    }

    /// [`apply`] over the stored slabs, on the SpMM workspace or the SPMV's.
    fn apply_stored(&mut self, comm: &mut Comm, overlap: Overlap, mv: bool) {
        let flops = self.flops_per_apply();
        let ws = if mv {
            self.mv_ws.as_mut().expect("matvec_mv builds it")
        } else {
            &mut self.ws
        };
        let flops = flops * ws.u.nvec as u64;
        let mut src = StoredSlabs {
            plan: &self.plan,
            threads: self.threads,
            kernel: self.batch_kernel,
            ue: &mut ws.ue,
            ve: &mut ws.ve,
        };
        apply(
            comm,
            &self.exchange,
            overlap,
            &mut src,
            &mut ws.u,
            &mut ws.v,
            flops,
        );
    }
}

/// Elements per chunk of [`recompute_elements`]: enough that the two
/// clock pairs a chunk pays vanish beside its work (a pair costs about
/// half a Tet10 Poisson `compute_ke`), few enough that a chunk of the
/// largest matrices (Hex27 elasticity, 52 KB each) is still in L2 when it
/// is interleaved.
pub(crate) const KE_CHUNK: usize = 32;

/// One chunk of freshly computed matrices: `kes` holds the matrix of
/// `ids[i]` at position `i`.
struct ComputedChunk<'a> {
    nd: usize,
    ids: &'a [u32],
    kes: &'a [f64],
}

impl ElementMatrices for ComputedChunk<'_> {
    fn ke_dim(&self) -> usize {
        self.nd
    }

    fn read_ke<'s>(&'s self, e: usize, _scratch: &'s mut [f64]) -> &'s [f64] {
        let sz = self.nd * self.nd;
        let i = self
            .ids
            .iter()
            .position(|&id| id as usize == e)
            .expect("element of this chunk");
        &self.kes[i * sz..(i + 1) * sz]
    }
}

/// The one routine that computes element matrices, for initial setup (all
/// elements into fresh slabs) and for adaptive updates (the touched few)
/// alike. Walks `elems` in chunks of [`KE_CHUNK`]: the kernel writes the
/// chunk's matrices into one reused chunk of scratch
/// ([`ElementKernel::compute_ke_chunk`], eight elements per lane group),
/// then the chunk is interleaved into `plan`'s slabs while it is still in
/// cache. A matrix that is not
/// bitwise symmetric demotes a packed plan inside its chunk's
/// [`BlockPlan::refresh`], so the slabs end up those of an `attach_store`
/// of the finished matrices either way.
///
/// Returns the virtual seconds charged to `(compute, interleave)` — one
/// `timed_work` each per chunk, never per element.
fn recompute_elements(
    comm: &mut Comm,
    part: &MeshPartition,
    kernel: &dyn ElementKernel,
    plan: &mut BlockPlan,
    elems: impl IntoIterator<Item = usize>,
) -> (f64, f64) {
    let mut scratch = KernelScratch::default();
    let mut ids = [0u32; KE_CHUNK];
    let mut coords: [&[[f64; 3]]; KE_CHUNK] = [&[]; KE_CHUNK];
    let nd = plan.nd();
    let sz = nd * nd;
    let mut kes = vec![0.0; KE_CHUNK * sz];
    let mut elems = elems.into_iter();
    comm.traced(Phase::EmatCompute, |comm| {
        let (mut compute_s, mut interleave_s) = (0.0, 0.0);
        loop {
            let mut n = 0;
            for e in elems.by_ref().take(KE_CHUNK) {
                ids[n] = e as u32;
                coords[n] = part.elem_node_coords(e);
                n += 1;
            }
            if n == 0 {
                break (compute_s, interleave_s);
            }
            let chunk = &ids[..n];
            let ((), dt) = comm.timed_work(|_| {
                kernel.compute_ke_chunk(&coords[..n], &mut kes[..n * sz], &mut scratch);
            });
            compute_s += dt;
            let computed = ComputedChunk {
                nd,
                ids: chunk,
                kes: &kes,
            };
            let ((), dt) = comm.timed_work(|_| plan.refresh(computed, chunk));
            interleave_s += dt;
        }
    })
}

impl MultiLinOp for HymvOperator {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        self.matvec_mv(comm, x, y);
    }
}

impl LinOp for HymvOperator {
    fn n_owned(&self) -> usize {
        self.maps.n_owned() * self.ndof
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        // Padded tail lanes execute (zero-matrix) FLOPs too — count what
        // actually runs.
        let plan = &self.plan;
        plan.n_blocks_total() as u64 * emv_batch_flops(plan.nd(), plan.batch_width())
    }

    fn storage_bytes(&self) -> usize {
        // The interleaved slabs (packed or full, as held) are the only
        // copy of the matrices; pending `ke_mut` buffers count until the
        // next apply interleaves them.
        self.plan.bytes() + self.store().bytes()
    }

    /// LFLR world repair: the partition is unchanged, but a resurrected
    /// rank's exchange plan is gone and its derived layouts are stale.
    /// `GhostExchange::build` is collective (it runs a sparse all-to-all),
    /// so every rank rebuilds — survivors get a bit-identical plan, the
    /// resurrected ranks get theirs back from the unchanged maps. The
    /// purely local derived state (block plan, panel scratch) is
    /// rebuilt on the resurrected ranks only.
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        self.exchange = GhostExchange::build(comm, &self.maps);
        if dead.contains(&comm.rank()) {
            self.rebuild_plan(self.batch_width());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::PoissonKernel;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    /// `K x` by the per-element reference loop over a contiguous copy of
    /// the operator's matrices, on one rank (where the owned dofs are all
    /// the dofs).
    fn per_element_reference(op: &HymvOperator, x: &[f64]) -> Vec<f64> {
        let maps = op.maps();
        let store = hymv_la::ElementMatrixStore::collect_from(op.store(), maps.n_elems);
        let nd = store.nd();
        assert_eq!(maps.n_owned(), maps.n_total(), "one rank only");
        let mut u = DistArray::new(maps, op.ndof());
        u.set_owned(x);
        let mut v = DistArray::new(maps, op.ndof());
        let all: Vec<u32> = (0..maps.n_elems as u32).collect();
        let (mut ue, mut ve) = (vec![0.0; nd], vec![0.0; nd]);
        crate::hybrid::emv_loop_serial(maps, &store, &u, &mut v, &all, &mut ue, &mut ve);
        v.owned().to_vec()
    }

    /// Serial dense reference: assemble the global matrix from element
    /// matrices and multiply directly.
    fn dense_reference(
        mesh: &hymv_mesh::GlobalMesh,
        kernel: &dyn ElementKernel,
        x: &[f64],
    ) -> Vec<f64> {
        let npe = mesh.elem_type.nodes_per_elem();
        let ndof = kernel.ndof_per_node();
        let n = mesh.n_nodes() * ndof;
        let nd = npe * ndof;
        let mut y = vec![0.0; n];
        let mut ke = vec![0.0; nd * nd];
        let mut scratch = KernelScratch::default();
        for e in 0..mesh.n_elems() {
            let nodes = mesh.elem_nodes(e);
            let coords: Vec<[f64; 3]> = nodes.iter().map(|&g| mesh.coords[g as usize]).collect();
            kernel.compute_ke(&coords, &mut ke, &mut scratch);
            for (bj, &gj) in nodes.iter().enumerate() {
                for cj in 0..ndof {
                    let xj = x[gj as usize * ndof + cj];
                    let col = (bj * ndof + cj) * nd;
                    for (bi, &gi) in nodes.iter().enumerate() {
                        for ci in 0..ndof {
                            y[gi as usize * ndof + ci] += ke[col + bi * ndof + ci] * xj;
                        }
                    }
                }
            }
        }
        y
    }

    #[test]
    fn hymv_matvec_matches_dense_reference() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let n = mesh.n_nodes();
        let x_global: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();

        for p in [1usize, 2, 4] {
            for method in [PartitionMethod::Slabs, PartitionMethod::GreedyGraph] {
                let pm = partition_mesh(&mesh, p, method);
                // Renumbering permutes nodes; build the permuted reference.
                // partition_mesh renumbers nodes; recover old→new from
                // coordinate identity: instead simply compute reference on
                // the renumbered system by re-deriving a "renumbered mesh".
                let results = Universe::run(p, |comm| {
                    let part = &pm.parts[comm.rank()];
                    let kernel = PoissonKernel::new(ElementType::Hex8);
                    let (mut op, t) = HymvOperator::setup(comm, part, &kernel);
                    assert!(t.total() >= 0.0);
                    let lo = part.node_range.0 as usize;
                    let x_local = x_global[lo..lo + op.n_owned()].to_vec();
                    let mut y = vec![0.0; op.n_owned()];
                    op.matvec(comm, &x_local, &mut y);
                    // Blocking variant must agree.
                    let mut yb = vec![0.0; op.n_owned()];
                    op.matvec_blocking(comm, &x_local, &mut yb);
                    for (a, b) in y.iter().zip(&yb) {
                        assert!((a - b).abs() < 1e-12);
                    }
                    (lo, y)
                });
                // Reference on the *renumbered* mesh: rebuild a GlobalMesh
                // in the new numbering from the partitions.
                let renum = renumbered_mesh(&pm, &mesh);
                let y_ref = dense_reference(&renum, &kernel, &x_global);
                for (lo, y) in results {
                    for (i, &v) in y.iter().enumerate() {
                        assert!(
                            (v - y_ref[lo + i]).abs() < 1e-9,
                            "p={p} {method:?} dof {}: {v} vs {}",
                            lo + i,
                            y_ref[lo + i]
                        );
                    }
                }
            }
        }
    }

    /// Rebuild a serial GlobalMesh in the post-partition numbering.
    fn renumbered_mesh(
        pm: &hymv_mesh::PartitionedMesh,
        original: &hymv_mesh::GlobalMesh,
    ) -> hymv_mesh::GlobalMesh {
        let n = original.n_nodes();
        let npe = original.elem_type.nodes_per_elem();
        let mut coords = vec![[0.0; 3]; n];
        let mut connectivity = vec![0u64; original.connectivity.len()];
        for part in &pm.parts {
            for (le, &ge) in part.elem_global_ids.iter().enumerate() {
                let nodes = part.elem_nodes(le);
                let cs = part.elem_node_coords(le);
                for (m, (&g, &c)) in nodes.iter().zip(cs).enumerate() {
                    coords[g as usize] = c;
                    connectivity[ge as usize * npe + m] = g;
                }
            }
        }
        hymv_mesh::GlobalMesh {
            elem_type: original.elem_type,
            coords,
            connectivity,
        }
    }

    /// A thread count of 0 is refused, never clamped to 1.
    #[test]
    #[should_panic(expected = "thread count 0 is invalid")]
    fn set_threads_rejects_zero() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_threads(0);
        });
    }

    /// The SpMM's element loop is charged on the modeled threads, like the
    /// SPMV's: with no serial fraction, 1000 threads must charge an
    /// `nvec = 8` apply less than half of what one thread does.
    #[test]
    fn matvec_mv_is_charged_on_the_modeled_threads() {
        let mesh = StructuredHexMesh::unit(8, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let model = hymv_comm::CostModel {
            smp_serial_fraction: 0.0,
            ..Default::default()
        };
        let cfg = hymv_comm::RunConfig {
            model,
            ..Default::default()
        };
        let (out, report) = Universe::run_configured(cfg, 1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            let n = op.n_owned();
            let cols: Vec<Vec<f64>> = (0..8)
                .map(|c| (0..n).map(|i| ((i + c) as f64 * 0.37).sin()).collect())
                .collect();
            let x = Multivector::from_columns(&cols);
            let mut y = Multivector::new(n, 8);
            op.matvec_mv(comm, &x, &mut y);
            let mut charged = |op: &mut HymvOperator, comm: &mut Comm| {
                let vt0 = comm.vt();
                for _ in 0..5 {
                    op.matvec_mv(comm, &x, &mut y);
                }
                comm.vt() - vt0
            };
            let one = charged(&mut op, comm);
            op.set_threads(1000);
            (one, charged(&mut op, comm))
        });
        if let Some(report) = report {
            assert!(report.is_clean(), "communication audit failed:\n{report}");
        }
        let (one, many) = out[0];
        assert!(
            many < 0.5 * one,
            "1000 threads charged {many:e} s, 1 thread {one:e} s"
        );
    }

    #[test]
    fn adaptive_update_changes_result() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let part = &pm.parts[0];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x = vec![1.0; op.n_owned()];
            let mut y0 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y0);
            // "Enrich" element 0: scale its matrix by 2 — like a stiffness
            // change from a crack.
            for v in op.ke_mut(0) {
                *v *= 2.0;
            }
            let mut y1 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1);
            // Row sums of the Laplacian Ke are 0, so Kv with v=1 stays 0 —
            // use a non-constant vector instead.
            let x2: Vec<f64> = (0..op.n_owned()).map(|i| i as f64).collect();
            let mut y2 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x2, &mut y2);
            // Recompute element 0 back via the kernel path.
            let dt = op.update_elements(comm, part, &kernel, &[0]);
            assert!(dt >= 0.0);
            let mut y3 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x2, &mut y3);
            (y2, y3)
        });
        let (y2, y3) = &out[0];
        // After restoring Ke, results must differ from the doubled version.
        assert!(y2.iter().zip(y3).any(|(a, b)| (a - b).abs() > 1e-12));
    }

    #[test]
    fn setup_has_no_spmv_side_effects() {
        // Two setups on the same universe produce identical operators.
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Rcb);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut a, _) = HymvOperator::setup(comm, part, &kernel);
            let (mut b, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..a.n_owned()).map(|i| (i as f64).cos()).collect();
            let mut ya = vec![0.0; a.n_owned()];
            let mut yb = vec![0.0; b.n_owned()];
            a.matvec(comm, &x, &mut ya);
            b.matvec(comm, &x, &mut yb);
            ya == yb
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// The four bars are the whole of setup: every virtual second the
    /// setup charged is in exactly one of them, although the compute and
    /// interleave legs alternate chunk by chunk.
    #[test]
    fn setup_timings_add_up_to_the_charged_virtual_time() {
        let mesh = StructuredHexMesh::unit(5, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Rcb);
        Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let vt0 = comm.vt();
            let (_, t) = HymvOperator::setup(comm, part, &kernel);
            let charged = comm.vt() - vt0;
            assert!(t.emat_compute_s > 0.0 && t.local_copy_s > 0.0);
            assert!(
                (t.total() - charged).abs() <= 1e-9 * charged,
                "bars {} vs clock {charged}",
                t.total()
            );
        });
    }

    #[test]
    fn flops_and_storage_reported() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            let batched = (op.flops_per_apply(), op.storage_bytes());
            op.set_batch_width(1);
            let scalar = (op.flops_per_apply(), op.storage_bytes());
            (batched, scalar)
        });
        let (batched, scalar) = out[0];
        // bw=8, 8 elements → exactly one block: 8 lanes × 2 × 8² flops (a
        // packed slab runs the same multiplies), and storage is the
        // interleaved slab (f64; Poisson `Ke` is symmetric, so the lower
        // triangle only: 8·9/2 entries) + gather table (u32).
        assert_eq!(batched.0, 8 * 128);
        assert_eq!(batched.1, (36 * 8) * 8 + (8 * 8) * 4);
        // bw=1: eight one-lane blocks with no padding — the same flops,
        // slab entries and table entries.
        assert_eq!(scalar, batched);
    }

    /// The slabs are the only copy of `Ke`: with nothing pending the
    /// operator holds exactly its plan's bytes, and a `ke_mut` buffer
    /// counts (`nd²` doubles) until the next apply interleaves it. A second
    /// `ke_mut` of the same element is the same buffer.
    #[test]
    fn slabs_are_the_only_copy_of_ke() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            assert_eq!(op.storage_bytes(), op.block_plan().bytes());
            assert_eq!(op.store().bytes(), 0);
            let mut before = vec![0.0; 64];
            let seeded = op.store().read_ke(4, &mut before).to_vec();
            assert_eq!(op.ke_mut(4), &seeded[..], "seeded from the slab");
            op.ke_mut(4)[9] = 2.5;
            assert_eq!(op.ke_mut(4)[9], 2.5, "the same buffer");
            assert_eq!(op.store().bytes(), 64 * 8);
            assert_eq!(op.storage_bytes(), op.block_plan().bytes() + 64 * 8);
            let mut scratch = vec![0.0; 64];
            assert_eq!(
                op.store().read_ke(4, &mut scratch)[9],
                2.5,
                "pending read first"
            );
            let x = vec![1.0; op.n_owned()];
            let mut y = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y);
            assert_eq!(op.store().bytes(), 0);
            assert_eq!(op.storage_bytes(), op.block_plan().bytes());
            // Entry 9 is (row 1, col 1), on the diagonal: the plan stays
            // packed and the slab now holds the write.
            assert!(op.block_plan().is_packed());
            assert_eq!(op.store().read_ke(4, &mut scratch)[9], 2.5);
        });
    }

    /// A rejected `ke_mut` records nothing: an out-of-range id panics
    /// before it reaches the pending list, and the next apply is the one
    /// before, to the bit.
    #[test]
    fn rejected_ke_mut_leaves_the_operator_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            let n = op.n_owned();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let (mut y0, mut y1) = (vec![0.0; n], vec![0.0; n]);
            op.matvec(comm, &x, &mut y0);
            let n_elems = op.maps().n_elems;
            let rejected = catch_unwind(AssertUnwindSafe(|| {
                op.ke_mut(n_elems);
            }));
            let msg = rejected.expect_err("out-of-range id must be rejected");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains(&format!("element {n_elems} out of range")),
                "{msg}"
            );
            op.matvec(comm, &x, &mut y1);
            let same = y0.iter().zip(&y1).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "apply after a rejected ke_mut changed");
        });
    }

    #[test]
    fn batch_widths_match_dense_reference() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let x_global: Vec<f64> = (0..mesh.n_nodes())
            .map(|g| (g as f64 * 0.7).cos())
            .collect();
        let y_ref = dense_reference(&renumbered_mesh(&pm, &mesh), &kernel, &x_global);
        Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let lo = part.node_range.0 as usize;
            let x = &x_global[lo..lo + op.n_owned()];
            for bw in [1usize, 8, 16] {
                op.set_batch_width(bw);
                assert_eq!(op.batch_width(), bw);
                let mut y = vec![0.0; op.n_owned()];
                op.matvec(comm, x, &mut y);
                for (a, b) in y_ref[lo..].iter().zip(&y) {
                    assert!((a - b).abs() < 1e-12, "bw={bw}: {a} vs {b}");
                }
            }
        });
    }

    /// A width-1 operator — one-element blocks on the scalar lane — is the
    /// per-element loop over its store, for scalar and vector problems on
    /// hex and tet meshes, with packed slabs and with slabs demoted to full.
    #[test]
    fn width_one_plan_matches_per_element_reference() {
        use hymv_fem::ElasticityKernel;
        use hymv_mesh::unstructured_tet_mesh;
        let cases: Vec<(hymv_mesh::GlobalMesh, Box<dyn ElementKernel>)> = vec![
            (
                StructuredHexMesh::unit(3, ElementType::Hex8).build(),
                Box::new(PoissonKernel::new(ElementType::Hex8)),
            ),
            (
                unstructured_tet_mesh(2, ElementType::Tet10, 0.12, 7),
                Box::new(PoissonKernel::new(ElementType::Tet10)),
            ),
            (
                StructuredHexMesh::unit(3, ElementType::Hex8).build(),
                Box::new(ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3])),
            ),
        ];
        for (mesh, kernel) in &cases {
            let pm = partition_mesh(mesh, 1, PartitionMethod::Slabs);
            Universe::run(1, |comm| {
                let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], kernel.as_ref());
                op.set_batch_width(1);
                let n = op.n_owned();
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                let mut y = vec![0.0; n];
                for packed in [true, false] {
                    if !packed {
                        // An asymmetric entry demotes the plan at the next apply.
                        op.ke_mut(0)[1] += 0.25;
                    }
                    op.matvec(comm, &x, &mut y);
                    assert_eq!(op.block_plan().is_packed(), packed);
                    for (a, b) in y.iter().zip(&per_element_reference(&op, &x)) {
                        assert!(
                            (a - b).abs() < 1e-12,
                            "{:?} packed={packed}: {a} vs {b}",
                            mesh.elem_type
                        );
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "batch width 0 outside 1..=64")]
    fn set_batch_width_refuses_zero() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(0);
        });
    }

    #[test]
    #[should_panic(expected = "batch width 65 outside 1..=64")]
    fn set_batch_width_refuses_past_the_maximum() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(MAX_BATCH_WIDTH + 1);
        });
    }

    /// The plan's slabs as bits, every block of both sets.
    fn slab_bits(plan: &BlockPlan) -> Vec<u64> {
        let mut bits = Vec::new();
        for dependent in [false, true] {
            let set = plan.set(dependent);
            for k in 0..set.n_blocks() {
                bits.extend(set.keb(k).iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    /// The slabs an `attach_store` of per-element `compute_ke` matrices of
    /// `part` gives, at `op`'s maps and batch width.
    fn per_element_slab_bits(
        op: &HymvOperator,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
    ) -> Vec<u64> {
        let mut store = hymv_la::ElementMatrixStore::new(kernel.ndof_elem(), part.n_elems());
        let mut scratch = KernelScratch::default();
        for e in 0..part.n_elems() {
            kernel.compute_ke(part.elem_node_coords(e), store.ke_mut(e), &mut scratch);
        }
        let mut plan = BlockPlan::build(op.maps(), op.ndof(), op.batch_width());
        plan.attach_store(&store);
        slab_bits(&plan)
    }

    /// Setup computes `Ke` in chunks (lane groups of eight elements, the
    /// last one short and padded), and its slabs are, to the bit, those of
    /// an `attach_store` of per-element `compute_ke` matrices. So are the
    /// slabs after an `update_elements` of three moved elements: one
    /// short, padded lane group.
    #[test]
    fn chunked_ke_slabs_equal_per_element_slabs_bitwise() {
        use hymv_fem::ElasticityKernel;
        use hymv_mesh::unstructured_tet_mesh;
        let cases: [(hymv_mesh::GlobalMesh, Box<dyn ElementKernel>); 2] = [
            (
                StructuredHexMesh::unit(3, ElementType::Hex20).build(),
                Box::new(ElasticityKernel::new(
                    ElementType::Hex20,
                    207.3,
                    0.29,
                    [0.0, 0.0, -1.0],
                )),
            ),
            (
                unstructured_tet_mesh(3, ElementType::Tet10, 0.12, 7),
                Box::new(PoissonKernel::new(ElementType::Tet10)),
            ),
        ];
        for (mesh, kernel) in &cases {
            let kernel = kernel.as_ref();
            let pm = partition_mesh(mesh, 2, PartitionMethod::GreedyGraph);
            Universe::run(2, |comm| {
                let mut part = pm.parts[comm.rank()].clone();
                let (mut op, _) = HymvOperator::setup(comm, &part, kernel);
                let et = part.elem_type;
                assert!(
                    slab_bits(op.block_plan()) == per_element_slab_bits(&op, &part, kernel),
                    "{et:?}: setup"
                );
                // Each element holds its own copy of its node coordinates:
                // scaling three of them moves those elements only.
                let npe = et.nodes_per_elem();
                let touched = [0, part.n_elems() / 2, part.n_elems() - 1];
                for &e in &touched {
                    for p in &mut part.elem_coords[e * npe..(e + 1) * npe] {
                        *p = p.map(|c| c * 1.03);
                    }
                }
                op.update_elements(comm, &part, kernel, &touched);
                assert!(
                    slab_bits(op.block_plan()) == per_element_slab_bits(&op, &part, kernel),
                    "{et:?}: update"
                );
            });
        }
    }

    #[test]
    fn adaptive_update_reaches_batched_slabs() {
        // ke_mut on the batched path must change the next matvec (the
        // dirty-flush covers the plan's interleaved copies).
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let part = &pm.parts[0];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| i as f64).collect();
            let mut y0 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y0);
            for v in op.ke_mut(0) {
                *v *= 2.0;
            }
            let mut y1 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1);
            // Cross-check against the per-element loop on the same store.
            let y1_ref = per_element_reference(&op, &x);
            (y0, y1, y1_ref)
        });
        let (y0, y1, y1_ref) = &out[0];
        assert!(y0.iter().zip(y1).any(|(a, b)| (a - b).abs() > 1e-12));
        for (a, b) in y1.iter().zip(y1_ref) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The SpMM path is bitwise identical to `nvec` sequential SPMVs in
    /// every kernel-class-matched configuration: SIMD batch widths with
    /// SIMD column counts (bw = 8 against nvec ∈ {4, 8, 16}), and the
    /// portable pairs (bw = 5, nvec = 5; bw = 1, nvec = 3). Runs on
    /// 2 ranks so the coalesced exchange is exercised, for scalar
    /// (Poisson) and vector (elasticity, ndof = 3) problems.
    #[test]
    fn matvec_mv_matches_sequential_columns_bitwise() {
        use hymv_fem::ElasticityKernel;
        use hymv_la::Multivector;
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernels: [Box<dyn ElementKernel>; 2] = [
                Box::new(PoissonKernel::new(ElementType::Hex8)),
                Box::new(ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3])),
            ];
            for kernel in &kernels {
                let (mut op, _) = HymvOperator::setup(comm, part, kernel.as_ref());
                let n = op.n_owned();
                for (bw, nvecs) in [(8usize, &[4usize, 8, 16][..]), (5, &[5][..]), (1, &[3][..])] {
                    op.set_batch_width(bw);
                    for &nvec in nvecs {
                        let cols: Vec<Vec<f64>> = (0..nvec)
                            .map(|c| {
                                (0..n)
                                    .map(|i| ((i * 13 + c * 7) % 17) as f64 * 0.25 - 2.0)
                                    .collect()
                            })
                            .collect();
                        let x = Multivector::from_columns(&cols);
                        let mut y_ref = Multivector::new(n, nvec);
                        let mut yc = vec![0.0; n];
                        for c in 0..nvec {
                            op.matvec(comm, x.col(c), &mut yc);
                            y_ref.col_mut(c).copy_from_slice(&yc);
                        }
                        let mut y = Multivector::new(n, nvec);
                        op.matvec_mv(comm, &x, &mut y);
                        for c in 0..nvec {
                            for i in 0..n {
                                assert_eq!(
                                    y.col(c)[i].to_bits(),
                                    y_ref.col(c)[i].to_bits(),
                                    "bw={bw} nvec={nvec} col={c} dof={i}: {} vs {}",
                                    y.col(c)[i],
                                    y_ref.col(c)[i]
                                );
                            }
                        }
                    }
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Ragged-tail coverage for the SpMM path: 27 elements with bw = 8
    /// leaves a 3-lane tail block whose padded lanes must never write.
    #[test]
    fn matvec_mv_ragged_tail_matches() {
        use hymv_la::Multivector;
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(8); // 27 elems → 3 full blocks + tail of 3
            let n = op.n_owned();
            let nvec = 8;
            let cols: Vec<Vec<f64>> = (0..nvec)
                .map(|c| (0..n).map(|i| (i as f64 * 0.31 + c as f64).sin()).collect())
                .collect();
            let x = Multivector::from_columns(&cols);
            let mut y = Multivector::new(n, nvec);
            op.matvec_mv(comm, &x, &mut y);
            let mut y_ref = Multivector::new(n, nvec);
            let mut yc = vec![0.0; n];
            for c in 0..nvec {
                op.matvec(comm, x.col(c), &mut yc);
                y_ref.col_mut(c).copy_from_slice(&yc);
            }
            (y, y_ref)
        });
        let (y, y_ref) = &out[0];
        assert_eq!(y, y_ref);
    }

    /// A degraded rank's SpMM still sends the one coalesced envelope per
    /// (neighbour, tag) its healthy neighbour expects. Under seeded drops
    /// with `degrade_after: 1` every lost envelope degrades its receiver
    /// for good (`rearm_after: 0`), so the two ranks spend most applies in
    /// different overlap policies; every rank must complete, and every
    /// column must equal the fault-free SpMM bitwise.
    #[test]
    fn degraded_matvec_mv_keeps_the_wire_format() {
        use hymv_comm::{AuditMode, CostModel, FaultPlan, RetryPolicy, RunConfig};
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let cfg = |fault: Option<FaultPlan>| RunConfig {
            model: CostModel::default(),
            perturb_seed: None,
            audit: AuditMode::Disabled,
            fault,
            retry: RetryPolicy {
                degrade_after: 1,
                rearm_after: 0,
                ..RetryPolicy::default()
            },
            trace: false,
        };
        let program = |comm: &mut Comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[comm.rank()], &kernel);
            let n = op.n_owned();
            let mut bits = Vec::new();
            for nvec in [3usize, 4, 8] {
                let cols: Vec<Vec<f64>> = (0..nvec)
                    .map(|c| {
                        (0..n)
                            .map(|i| ((i * 7 + c * 5) % 13) as f64 - 6.0)
                            .collect()
                    })
                    .collect();
                let x = Multivector::from_columns(&cols);
                let mut y = Multivector::new(n, nvec);
                for _ in 0..4 {
                    op.matvec_mv(comm, &x, &mut y);
                    bits.extend(y.as_slice().iter().map(|v| v.to_bits()));
                }
            }
            let degraded = comm.degraded();
            // A rank that is done may not leave while its peer can still
            // need one of its envelopes resent.
            comm.barrier();
            (bits, degraded)
        };
        let (clean, _) = Universe::run_configured(cfg(None), 2, program);
        let plan = FaultPlan::new(0).with_drop(0.2);
        let (faulted, _) = Universe::run_chaos(cfg(Some(plan)), 2, program);
        let mut degraded = 0;
        for (rank, res) in faulted.into_iter().enumerate() {
            let (bits, was_degraded) = res.expect("drops heal within the retry budget");
            assert!(
                bits == clean[rank].0,
                "rank {rank}: degraded SpMM bits differ"
            );
            degraded += usize::from(was_degraded);
        }
        assert!(degraded > 0, "the drop plan never degraded a rank");
    }
}
