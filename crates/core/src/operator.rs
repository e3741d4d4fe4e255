//! [`HymvOperator`] — the adaptive-matrix SPMV (paper Algorithm 2).

use hymv_comm::Comm;
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::dense::{
    emv_batch_flops, emv_flops, select_batch_kernel, select_batch_mv_kernel, EmvBatchKernel,
    EmvBatchMvKernel, MAX_BATCH_WIDTH,
};
use hymv_la::{ElementMatrixStore, LinOp, MultiLinOp, Multivector};
use hymv_mesh::MeshPartition;
use hymv_trace::Phase;

use crate::block::{batch_width_from_env, BlockPlan};
use crate::da::{DistArray, DistMultivector};
use crate::exchange::GhostExchange;
use crate::hybrid::{
    emv_loop_chunk_private, emv_loop_colored, emv_loop_serial, try_color_elements, ParallelMode,
};
use crate::maps::HymvMaps;

/// Setup cost breakdown, matching the stacked bars of Figs 5 and 7:
/// element-matrix computation vs everything HYMV adds on top (map builds,
/// communication-map construction, and the local copy into the batched
/// slabs — there is **no global assembly**).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// Element-matrix computation (user-operator cost; identical work in
    /// the matrix-assembled baseline). The kernels write straight into
    /// HYMV's store, so there is no separate copy into it.
    pub emat_compute_s: f64,
    /// Local copy of the computed matrices into the plan's interleaved
    /// slabs, chunk by chunk while they are still in cache (zero on the
    /// per-element path, which has no slabs).
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
/// communication/computation overlap.
pub struct HymvOperator {
    maps: HymvMaps,
    exchange: GhostExchange,
    store: ElementMatrixStore,
    ndof: usize,
    u: DistArray,
    v: DistArray,
    mode: ParallelMode,
    /// Color classes for the independent / dependent sets (built lazily
    /// when a colored mode is selected). Block ids when a plan is active,
    /// element ids on the per-element (`B=1`) path.
    colors: Option<(Vec<Vec<u32>>, Vec<Vec<u32>>)>,
    /// The batched element-block plan — the default SPMV path. `None`
    /// exactly when the batch width is 1 (the per-element legacy path).
    plan: Option<BlockPlan>,
    /// Batched kernel resolved once per batch width (not per element).
    batch_kernel: EmvBatchKernel,
    /// Elements whose stored matrix changed since the plan's slabs were
    /// last refreshed (`ke_mut` / `update_elements`).
    dirty: Vec<u32>,
    /// Serial scratch (`nd × bw` panels).
    ue: Vec<f64>,
    ve: Vec<f64>,
    /// Multivector workspace, built lazily on the first `matvec_mv` and
    /// rebuilt when the requested `nvec` changes.
    mv_ws: Option<MvWorkspace>,
}

/// Cached state of the SpMM path for one multivector width.
struct MvWorkspace {
    nvec: usize,
    kernel: EmvBatchMvKernel,
    u: DistMultivector,
    v: DistMultivector,
    /// `nd × bw × nvec` panel scratch.
    ue: Vec<f64>,
    ve: Vec<f64>,
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

        // Block plan tables: the batched engine is the default path
        // (`HYMV_EMV_BATCH=1` recovers the per-element loop). Charged to
        // the map-construction bar: it is map/layout work, purely local.
        // The slabs start out packed; the first asymmetric matrix demotes
        // them inside the chunk that computed it.
        let bw = batch_width_from_env();
        let (mut plan, dt) = comm.traced(Phase::PlanBuild, |comm| {
            comm.timed_work(|_| {
                (bw > 1).then(|| {
                    let mut p = BlockPlan::build(&maps, ndof, bw);
                    p.alloc_slabs(true);
                    p
                })
            })
        });
        t.maps_s += dt;

        let mut store = ElementMatrixStore::new(nd, maps.n_elems);
        (t.emat_compute_s, t.local_copy_s) = recompute_elements(
            comm,
            part,
            kernel,
            &mut store,
            plan.as_mut(),
            0..maps.n_elems,
        );

        let u = DistArray::new(&maps, ndof);
        let v = DistArray::new(&maps, ndof);
        let op = HymvOperator {
            maps,
            exchange,
            store,
            ndof,
            u,
            v,
            mode: ParallelMode::Serial,
            colors: None,
            plan,
            batch_kernel: select_batch_kernel(bw),
            dirty: Vec::new(),
            ue: vec![0.0; nd * bw],
            ve: vec![0.0; nd * bw],
            mv_ws: None,
        };
        setup_span.close(comm.vt());
        (op, t)
    }

    /// Current batch width (`1` = per-element legacy path).
    pub fn batch_width(&self) -> usize {
        self.plan.as_ref().map_or(1, |p| p.batch_width())
    }

    /// The block plan (None on the per-element path).
    pub fn block_plan(&self) -> Option<&BlockPlan> {
        self.plan.as_ref()
    }

    /// Rebuild the plan for a different batch width (`1` disables
    /// batching entirely, recovering the original per-element loops).
    /// Ablation/test hook; production code sets `HYMV_EMV_BATCH` instead.
    pub fn set_batch_width(&mut self, bw: usize) {
        let bw = bw.clamp(1, MAX_BATCH_WIDTH);
        if bw == self.batch_width() {
            return;
        }
        self.plan = (bw > 1).then(|| {
            let mut p = BlockPlan::build(&self.maps, self.ndof, bw);
            p.attach_store(&self.store);
            p
        });
        self.batch_kernel = select_batch_kernel(bw);
        self.dirty.clear();
        let nd = self.store.nd();
        self.ue = vec![0.0; nd * bw];
        self.ve = vec![0.0; nd * bw];
        // Panel scratch was sized for the old width.
        self.mv_ws = None;
        // Colors were built at the old granularity; rebuild (or fall
        // back) for the new one.
        self.colors = None;
        self.set_parallel_mode(self.mode);
    }

    /// Select the shared-memory parallelization of the elemental loop.
    ///
    /// Coloring runs at block granularity when the batched plan is active,
    /// element granularity otherwise. If the mesh would need more than 64
    /// colors (a node valence past the color mask), the operator logs a
    /// line and falls back to chunk-private accumulation instead of
    /// aborting the SPMV.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.mode = mode;
        if let ParallelMode::Colored { threads } = mode {
            if self.colors.is_none() {
                let built = match &self.plan {
                    Some(plan) => plan.color_blocks(false).zip(plan.color_blocks(true)),
                    None => try_color_elements(&self.maps, &self.maps.independent)
                        .zip(try_color_elements(&self.maps, &self.maps.dependent)),
                };
                match built {
                    Some(classes) => self.colors = Some(classes),
                    None => {
                        eprintln!(
                            "hymv: coloring needs more than 64 colors; \
                             falling back to chunk-private accumulation"
                        );
                        self.mode = ParallelMode::ChunkPrivate { threads };
                    }
                }
            }
        }
    }

    /// The adaptive-matrix path: recompute the element matrices of
    /// `local_elems` only (XFEM enrichment / AMR refinement touching a few
    /// elements) and re-interleave them into the batched slabs at once.
    /// Purely local — no communication, no global reassembly. Returns the
    /// update time in virtual seconds.
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
            self.store.nd(),
            "kernel/operator dimension mismatch"
        );
        let n_elems = self.maps.n_elems;
        assert_eq!(part.n_elems(), n_elems, "partition/operator mismatch");
        if let Some(&e) = local_elems.iter().find(|&&e| e >= n_elems) {
            panic!("element {e} out of range (operator holds {n_elems})");
        }
        let vt0 = comm.vt();
        let was_packed = self.plan.as_ref().is_some_and(BlockPlan::is_packed);
        recompute_elements(
            comm,
            part,
            kernel,
            &mut self.store,
            self.plan.as_mut(),
            local_elems.iter().copied(),
        );
        self.count_refresh(was_packed, local_elems.len());
        comm.vt() - vt0
    }

    /// Direct mutable access to one stored element matrix (the API users
    /// call when *they* computed the enriched matrix, e.g. XFEM).
    pub fn ke_mut(&mut self, local_elem: usize) -> &mut [f64] {
        self.dirty.push(local_elem as u32);
        self.store.ke_mut(local_elem)
    }

    /// Re-interleave dirty element matrices into the plan's block slabs
    /// (no-op on the per-element path or when nothing changed). A dirty
    /// matrix that is no longer bitwise symmetric demotes a packed plan to
    /// full slabs inside this refresh (see [`BlockPlan::refresh`]); the
    /// store stays authoritative, so the result is that of a fresh setup
    /// either way.
    fn flush_updates(&mut self, comm: &mut Comm) {
        if self.dirty.is_empty() {
            return;
        }
        if let Some(plan) = &mut self.plan {
            let (store, dirty) = (&self.store, &self.dirty);
            let was_packed = plan.is_packed();
            comm.traced(Phase::BlockRefresh, |comm| {
                comm.work_with(|_| plan.refresh(store, dirty));
            });
            self.count_refresh(was_packed, self.dirty.len());
        }
        self.dirty.clear();
    }

    /// Publish what an adaptive refresh of `n` matrices did to the plan.
    fn count_refresh(&self, was_packed: bool, n: usize) {
        let Some(plan) = &self.plan else { return };
        hymv_trace::counter_add("hymv_block_refresh_total", &[], n as u64);
        if was_packed && !plan.is_packed() {
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

    /// Bench/ablation hook: bypass the envelope wire format on the
    /// per-SPMV scatter/gather (see [`GhostExchange::set_raw_transport`]).
    pub fn set_raw_exchange(&mut self, raw: bool) {
        self.exchange.set_raw_transport(raw);
    }

    /// The element-matrix store.
    pub fn store(&self) -> &ElementMatrixStore {
        &self.store
    }

    /// Dofs per node.
    pub fn ndof(&self) -> usize {
        self.ndof
    }

    /// Decompose into the maps, communication plan, and element-matrix
    /// store (the GPU backend reuses them without copying).
    pub fn into_parts(self) -> (HymvMaps, GhostExchange, ElementMatrixStore, usize) {
        (self.maps, self.exchange, self.store, self.ndof)
    }

    /// One elemental EMV loop over a subset, honoring the parallel mode.
    /// Runs through the batched block plan when one is active (the default),
    /// the per-element legacy loops otherwise (`B=1`).
    fn run_subset(&mut self, comm: &mut Comm, dependent: bool) {
        if let Some(plan) = &self.plan {
            let kernel = self.batch_kernel;
            let (u, v) = (&self.u, &mut self.v);
            match self.mode {
                ParallelMode::Serial => {
                    let (ue, ve) = (&mut self.ue, &mut self.ve);
                    comm.work(|| plan.run_serial(dependent, u, v, kernel, ue, ve));
                }
                ParallelMode::Colored { threads } => {
                    let (indep, dep) = self
                        .colors
                        .as_ref()
                        .expect("set_parallel_mode built colors");
                    let classes = if dependent { dep } else { indep };
                    comm.work_smp(threads, || {
                        plan.run_colored(dependent, classes, u, v, kernel)
                    });
                }
                ParallelMode::ChunkPrivate { threads } => {
                    comm.work_smp(threads, || plan.run_chunk_private(dependent, u, v, kernel));
                }
            }
            return;
        }
        let subset: &[u32] = if dependent {
            &self.maps.dependent
        } else {
            &self.maps.independent
        };
        match self.mode {
            ParallelMode::Serial => {
                let (maps, store, u, v) = (&self.maps, &self.store, &self.u, &mut self.v);
                let (ue, ve) = (&mut self.ue, &mut self.ve);
                comm.work(|| emv_loop_serial(maps, store, u, v, subset, ue, ve));
            }
            ParallelMode::Colored { threads } => {
                let classes = {
                    let (indep, dep) = self
                        .colors
                        .as_ref()
                        .expect("set_parallel_mode built colors");
                    if dependent {
                        dep
                    } else {
                        indep
                    }
                };
                let (maps, store, u, v) = (&self.maps, &self.store, &self.u, &mut self.v);
                comm.work_smp(threads, || emv_loop_colored(maps, store, u, v, classes));
            }
            ParallelMode::ChunkPrivate { threads } => {
                let (maps, store, u, v) = (&self.maps, &self.store, &self.u, &mut self.v);
                comm.work_smp(threads, || {
                    emv_loop_chunk_private(maps, store, u, v, subset)
                });
            }
        }
    }

    /// Algorithm 2: the HYMV SPMV.
    ///
    /// When the reliable channel has degraded (persistent timeouts under
    /// an active fault plan), the overlapped schedule gives way to the
    /// blocking exchange: with a flaky link, compute/communication overlap
    /// only widens the window in which retransmissions interleave with
    /// useful work, so the conservative schedule is the robust one.
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        if comm.degraded() {
            return self.matvec_blocking(comm, x, y);
        }
        self.flush_updates(comm);
        // v ← 0; u ← x with fresh ghosts.
        self.v.fill_zero();
        self.u.set_owned(x);

        // local_node_scatter_begin(u)
        self.exchange.scatter_begin(comm, &self.u);

        // Independent elements overlap the scatter.
        comm.traced(Phase::IndepEmv, |comm| self.run_subset(comm, false));

        // local_node_scatter_end(u); then dependent elements.
        self.exchange.scatter_end(comm, &mut self.u);
        comm.traced(Phase::DepEmv, |comm| self.run_subset(comm, true));

        // ghost_node_gather: accumulate ghost contributions to owners.
        self.exchange.gather_begin(comm, &self.v);
        self.exchange.gather_end(comm, &mut self.v);

        hymv_trace::counter_add("hymv_emv_flops_total", &[], self.flops_per_apply());
        y.copy_from_slice(self.v.owned());
        comm.note_exchange_outcome();
    }

    /// A deliberately non-overlapped SPMV (blocking exchange up front, then
    /// all elements) — the ablation counterpart of Algorithm 2.
    pub fn matvec_blocking(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.flush_updates(comm);
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
        comm.note_exchange_outcome();
    }

    /// Algorithm 2 over a whole multivector: the SpMM `V = K·U`.
    ///
    /// Same schedule as [`Self::matvec`] — overlapped scatter, the
    /// independent/dependent split, gather-accumulate — but every `Ke`
    /// slab is loaded once per block and reused across all `nvec`
    /// columns, and the ghost exchange coalesces every column of a
    /// fragment into one envelope per (neighbor, tag). Falls back to
    /// `nvec` sequential [`Self::matvec`] calls on the per-element path
    /// (`B = 1`, no block plan) and on a degraded channel, where the
    /// conservative schedule is the robust one.
    pub fn matvec_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        assert_eq!(x.nrows(), self.n_owned(), "input row mismatch");
        assert_eq!(y.nrows(), self.n_owned(), "output row mismatch");
        assert_eq!(x.nvec(), y.nvec(), "column-count mismatch");
        let nvec = x.nvec();
        if self.plan.is_none() || comm.degraded() {
            let mut yc = vec![0.0; self.n_owned()];
            for c in 0..nvec {
                self.matvec(comm, x.col(c), &mut yc);
                y.col_mut(c).copy_from_slice(&yc);
            }
            return;
        }
        self.flush_updates(comm);
        let flops = self.flops_per_apply() * nvec as u64;
        if self.mv_ws.as_ref().is_none_or(|ws| ws.nvec != nvec) {
            let plan = self.plan.as_ref().expect("checked above");
            let pl = plan.nd() * plan.batch_width() * nvec;
            self.mv_ws = Some(MvWorkspace {
                nvec,
                kernel: select_batch_mv_kernel(nvec),
                u: DistMultivector::new(&self.maps, self.ndof, nvec),
                v: DistMultivector::new(&self.maps, self.ndof, nvec),
                ue: vec![0.0; pl],
                ve: vec![0.0; pl],
            });
        }
        let plan = self.plan.as_ref().expect("checked above");
        let ws = self.mv_ws.as_mut().expect("built above");

        // V ← 0; U ← X with fresh ghosts.
        ws.v.fill_zero();
        comm.work(|| ws.u.set_owned(x));

        // local_node_scatter_begin(U): one coalesced envelope/neighbour.
        self.exchange.scatter_mv_begin(comm, &ws.u);

        // Independent elements overlap the scatter.
        comm.traced(Phase::IndepEmv, |comm| {
            comm.work(|| {
                plan.run_serial_mv(
                    false, &ws.u, &mut ws.v, ws.kernel, nvec, &mut ws.ue, &mut ws.ve,
                )
            })
        });

        // local_node_scatter_end(U); then dependent elements.
        self.exchange.scatter_mv_end(comm, &mut ws.u);
        comm.traced(Phase::DepEmv, |comm| {
            comm.work(|| {
                plan.run_serial_mv(
                    true, &ws.u, &mut ws.v, ws.kernel, nvec, &mut ws.ue, &mut ws.ve,
                )
            })
        });

        // ghost_node_gather: every column accumulated in one envelope.
        self.exchange.gather_mv_begin(comm, &ws.v);
        self.exchange.gather_mv_end(comm, &mut ws.v);

        hymv_trace::counter_add("hymv_emv_flops_total", &[], flops);
        comm.work(|| ws.v.copy_owned_to(y));
        comm.note_exchange_outcome();
    }
}

/// Elements per chunk of [`recompute_elements`]: enough that the two
/// clock pairs a chunk pays vanish beside its work (a pair costs about
/// half a Tet10 Poisson `compute_ke`), few enough that a chunk of the
/// largest matrices (Hex27 elasticity, 52 KB each) is still in L2 when it
/// is interleaved.
pub(crate) const KE_CHUNK: usize = 32;

/// The one routine that computes element matrices, for initial setup (all
/// elements of an empty store) and for adaptive updates (the touched few)
/// alike. Walks `elems` in chunks of [`KE_CHUNK`]: the kernel writes each
/// `Ke` straight into `store`, then the chunk is interleaved into `plan`'s
/// slabs while it is still in cache. A matrix that is not bitwise
/// symmetric demotes a packed plan inside its chunk's
/// [`BlockPlan::refresh`]; the store is authoritative, so the slabs end up
/// those of an `attach_store` on the finished store either way.
///
/// Returns the virtual seconds charged to `(compute, interleave)` — one
/// `timed_work` each per chunk, never per element.
fn recompute_elements(
    comm: &mut Comm,
    part: &MeshPartition,
    kernel: &dyn ElementKernel,
    store: &mut ElementMatrixStore,
    mut plan: Option<&mut BlockPlan>,
    elems: impl IntoIterator<Item = usize>,
) -> (f64, f64) {
    let mut scratch = KernelScratch::default();
    let mut ids = [0u32; KE_CHUNK];
    let mut elems = elems.into_iter();
    comm.traced(Phase::EmatCompute, |comm| {
        let (mut compute_s, mut interleave_s) = (0.0, 0.0);
        loop {
            let mut n = 0;
            for e in elems.by_ref().take(KE_CHUNK) {
                ids[n] = e as u32;
                n += 1;
            }
            if n == 0 {
                break (compute_s, interleave_s);
            }
            let chunk = &ids[..n];
            let ((), dt) = comm.timed_work(|_| {
                for &e in chunk {
                    let e = e as usize;
                    kernel.compute_ke(part.elem_node_coords(e), store.ke_mut(e), &mut scratch);
                }
            });
            compute_s += dt;
            if let Some(plan) = plan.as_deref_mut() {
                let ((), dt) = comm.timed_work(|_| plan.refresh(store, chunk));
                interleave_s += dt;
            }
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
        match &self.plan {
            // Batched path: padded tail lanes execute (zero-matrix) FLOPs
            // too — count what actually runs.
            Some(plan) => {
                plan.n_blocks_total() as u64 * emv_batch_flops(self.store.nd(), plan.batch_width())
            }
            None => self.maps.n_elems as u64 * emv_flops(self.store.nd()),
        }
    }

    fn storage_bytes(&self) -> usize {
        // The interleaved slabs (packed or full, as held) are what the
        // batched SPMV streams; the store remains authoritative for
        // adaptive updates, so both count.
        self.store.bytes() + self.plan.as_ref().map_or(0, |p| p.bytes())
    }

    /// LFLR world repair: the partition is unchanged, but a resurrected
    /// rank's exchange plan is gone and its derived layouts are stale.
    /// `GhostExchange::build` is collective (it runs a sparse all-to-all),
    /// so every rank rebuilds — survivors get a bit-identical plan, the
    /// resurrected ranks get theirs back from the unchanged maps. The
    /// purely local derived state (block plan, panel scratch, colors) is
    /// rebuilt on the resurrected ranks only.
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        let raw = self.exchange.raw_transport();
        self.exchange = GhostExchange::build(comm, &self.maps);
        self.exchange.set_raw_transport(raw);
        if dead.contains(&comm.rank()) {
            let bw = self.batch_width();
            self.plan = (bw > 1).then(|| {
                let mut p = BlockPlan::build(&self.maps, self.ndof, bw);
                p.attach_store(&self.store);
                p
            });
            self.mv_ws = None;
            self.colors = None;
            self.set_parallel_mode(self.mode);
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

    #[test]
    fn parallel_modes_agree() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut y_serial = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_serial);

            op.set_parallel_mode(ParallelMode::Colored { threads: 4 });
            let mut y_col = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_col);

            op.set_parallel_mode(ParallelMode::ChunkPrivate { threads: 4 });
            let mut y_cp = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_cp);

            for i in 0..y_serial.len() {
                assert!((y_serial[i] - y_col[i]).abs() < 1e-11);
                assert!((y_serial[i] - y_cp[i]).abs() < 1e-11);
            }
            true
        });
        assert!(out.iter().all(|&b| b));
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
            op.set_batch_width(1);
            let legacy = (op.flops_per_apply(), op.storage_bytes());
            op.set_batch_width(8);
            let batched = (op.flops_per_apply(), op.storage_bytes());
            (legacy, batched)
        });
        let (legacy, batched) = out[0];
        // Per-element: 8 elements × 2 × 8² flops; store only.
        assert_eq!(legacy.0, 8 * 128);
        assert_eq!(legacy.1, 8 * 64 * 8);
        // Batched (bw=8, 8 elements → exactly one block): same flops (a
        // packed slab runs the same multiplies), and storage adds the
        // interleaved slab (f64; Poisson `Ke` is symmetric, so the lower
        // triangle only: 8·9/2 entries) + gather table (u32).
        assert_eq!(batched.0, 8 * 128);
        assert_eq!(batched.1, 8 * 64 * 8 + (36 * 8) * 8 + (8 * 8) * 4);
    }

    #[test]
    fn batched_widths_match_per_element_path() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.7).cos()).collect();
            op.set_batch_width(1);
            let mut y_ref = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_ref);
            for bw in [8usize, 16] {
                op.set_batch_width(bw);
                assert_eq!(op.batch_width(), bw);
                let mut y = vec![0.0; op.n_owned()];
                op.matvec(comm, &x, &mut y);
                for (a, b) in y_ref.iter().zip(&y) {
                    assert!((a - b).abs() < 1e-12, "bw={bw}: {a} vs {b}");
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
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
            op.set_batch_width(8);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| i as f64).collect();
            let mut y0 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y0);
            for v in op.ke_mut(0) {
                *v *= 2.0;
            }
            let mut y1 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1);
            // Cross-check against the per-element path on the same store.
            op.set_batch_width(1);
            let mut y1_ref = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1_ref);
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
    /// SIMD column counts (bw = 8 against nvec ∈ {4, 8, 16}), the
    /// portable pair (bw = 5, nvec = 5), and the per-element fallback
    /// (bw = 1, which routes through `matvec` column by column). Runs on
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

    #[test]
    fn coloring_fallback_keeps_matvec_correct() {
        // An umbrella of tets all sharing one node needs >64 colors at
        // element (bw=1) granularity; the operator must log, fall back to
        // chunk-private, and still produce the serial answer.
        let n_elems = 65usize;
        let n_nodes = 1 + 3 * n_elems;
        let mut e2g = Vec::with_capacity(4 * n_elems);
        let mut coords = vec![[0.0f64; 3]; n_nodes];
        for e in 0..n_elems {
            let base = (1 + 3 * e) as u64;
            e2g.extend_from_slice(&[0, base, base + 1, base + 2]);
            // A valid (non-degenerate) unit tet per element, offset so the
            // Poisson kernel gets a finite Jacobian everywhere.
            let o = e as f64;
            coords[base as usize] = [1.0 + o, 0.0, 0.0];
            coords[base as usize + 1] = [o, 1.0, 0.0];
            coords[base as usize + 2] = [o, 0.0, 1.0];
        }
        let part = hymv_mesh::MeshPartition {
            rank: 0,
            elem_type: ElementType::Tet4,
            e2g,
            node_range: (0, n_nodes as u64),
            elem_coords: {
                let mut ec = Vec::with_capacity(n_elems * 4);
                for e in 0..n_elems {
                    ec.push(coords[0]);
                    for m in 0..3 {
                        ec.push(coords[1 + 3 * e + m]);
                    }
                }
                ec
            },
            elem_global_ids: (0..n_elems as u64).collect(),
            n_global_nodes: n_nodes as u64,
        };
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Tet4);
            let (mut op, _) = HymvOperator::setup(comm, &part, &kernel);
            op.set_batch_width(1);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.13).sin()).collect();
            let mut y_serial = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_serial);
            op.set_parallel_mode(ParallelMode::Colored { threads: 4 });
            // >64 colors: must have fallen back rather than panicked.
            assert!(matches!(op.mode, ParallelMode::ChunkPrivate { .. }));
            let mut y = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y);
            (y_serial, y)
        });
        let (y_serial, y) = &out[0];
        for (a, b) in y_serial.iter().zip(y) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
