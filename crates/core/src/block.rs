//! The batched element-block engine: `BlockPlan` and the blocked EMV
//! loops that are HYMV's CPU SPMV path, at every batch width.
//!
//! The engine cuts each element subset (independent / dependent) into
//! blocks of `bw` elements and evaluates `Ve = Ke_b · Ue` with the batched
//! kernels of [`hymv_la::dense`], vectorizing **across the batch** — no
//! per-element dispatch or map lookup, and SIMD lanes not capped by `nd`:
//!
//! * element matrices are re-laid out batch-interleaved
//!   (`keb[slot(i,j)·bw + b]`), so each matrix entry position is a
//!   unit-stride strip of `bw` lanes — lower triangle only while every
//!   stored matrix is bitwise symmetric, which halves the bytes an apply
//!   streams (see [`BlockPlan::attach_store`]). The slabs are the only
//!   copy an operator holds: [`SlabMatrices`] reads them back column-major;
//! * per-block gather/scatter index tables are flattened from `E2L` at
//!   plan build time — the inner loop does zero map lookups;
//! * blocks are ordered by a locality sort (min local-node index) so
//!   consecutive blocks reuse cached stretches of `u`;
//! * a ragged tail (`subset.len() % bw ≠ 0`) is padded with zeroed
//!   matrices and gather index 0; the scatter is lane-bounded so padded
//!   lanes never write (keeping results bitwise independent of padding).
//!
//! `bw = 1` is an ordinary plan of one-element blocks on the scalar lane.

use std::collections::HashMap;

use hymv_la::dense::{
    deinterleave_ke, gather_panel, interleave_ke, slab_len, EmvBatchKernel, EmvBatchMvKernel,
    MAX_BATCH_WIDTH,
};
use hymv_la::{ElementMatrices, FIXED_BATCH_WIDTH, FIXED_NVEC_WIDTH};

use crate::da::DistArray;
use crate::maps::HymvMaps;

/// Default batch width: one AVX-512 vector (two AVX2 vectors) of lanes —
/// wide enough to amortize per-block overhead, small enough that the
/// `nd × bw` panels of even Hex27 elasticity (nd = 81) stay L1-resident.
/// It is the width the batched kernels have fixed-shape code for.
pub const DEFAULT_BATCH_WIDTH: usize = FIXED_BATCH_WIDTH;

/// Parse a batch-width string — the validation path of the `--batch` CLI
/// flags, which then call
/// [`HymvOperator::set_batch_width`](crate::operator::HymvOperator::set_batch_width):
/// `0`, values above [`MAX_BATCH_WIDTH`], and non-numeric input are
/// errors with a message saying exactly what was wrong — silently
/// clamping would make a typo'd width run a different kernel than the one
/// the user asked to measure.
pub fn parse_batch_width(s: &str) -> Result<usize, String> {
    let t = s.trim();
    match t.parse::<usize>() {
        Ok(0) => Err(format!(
            "batch width 0 is invalid (expected 1..={MAX_BATCH_WIDTH})"
        )),
        Ok(b) if b > MAX_BATCH_WIDTH => Err(format!(
            "batch width {b} exceeds the maximum of {MAX_BATCH_WIDTH}"
        )),
        Ok(b) => Ok(b),
        Err(_) => Err(format!(
            "batch width {t:?} is not a number (expected 1..={MAX_BATCH_WIDTH})"
        )),
    }
}

/// Default multivector width: one AVX-512 vector of columns — every `Ke`
/// slab load is amortized over 8 right-hand sides while the `nd × bw ×
/// nvec` panels of the evaluated element types stay cache-resident. It is
/// the width the SpMM and the panel moves have fixed-shape code for.
pub const DEFAULT_NVEC_WIDTH: usize = FIXED_NVEC_WIDTH;

/// The DA length `n_total · ndof` a plan's gather tables index, or why they
/// cannot: the tables hold `u32` and `BlockSet::build` computes their
/// entries in `u32`, where a product past 2³² would wrap silently in
/// release. The limit is `i32::MAX` rather than `u32::MAX` so that an index
/// also survives any gather that sign-extends 32-bit indices.
fn da_len(n_total: usize, ndof: usize) -> Result<usize, String> {
    match n_total.checked_mul(ndof) {
        Some(n) if n <= i32::MAX as usize => Ok(n),
        _ => Err(format!(
            "{n_total} nodes × {ndof} dofs per node is past the {} DA entries \
             a block plan's 32-bit gather indices address",
            i32::MAX
        )),
    }
}

/// One element subset (independent or dependent) cut into blocks of `bw`
/// locality-sorted elements, with flattened gather/scatter tables and the
/// batch-interleaved matrix slabs.
#[derive(Debug, Clone)]
pub struct BlockSet {
    nd: usize,
    bw: usize,
    /// Live lanes per block (`< bw` only in the final, ragged block).
    lens: Vec<u32>,
    /// Element ids, `n_blocks × bw`; padded lanes hold `u32::MAX`.
    elems: Vec<u32>,
    /// Dof-level gather indices into the DA data, `n_blocks × nd × bw`
    /// (`gidx[(k·nd + r)·bw + b]` = DA index of row `r`, lane `b` of block
    /// `k`); padded lanes hold 0.
    gidx: Vec<u32>,
    /// Batch-interleaved element matrices, `n_blocks × slab`; padded
    /// lanes are zero. Empty until [`BlockPlan::attach_store`] (the
    /// matrix-free operator uses the tables with its own scratch slab).
    keb: Vec<f64>,
    /// Doubles per block slab: `nd²·bw`, or `nd(nd+1)/2·bw` while the
    /// plan is symmetric-packed.
    slab: usize,
}

impl BlockSet {
    fn build(maps: &HymvMaps, ndof: usize, bw: usize, subset: &[u32]) -> Self {
        let nd = maps.npe * ndof;
        // Locality sort: elements ordered by their minimum local node so
        // consecutive blocks touch nearby stretches of u/v. Stable
        // tie-break on element id keeps the order deterministic.
        let mut order: Vec<u32> = subset.to_vec();
        order.sort_by_key(|&e| {
            let lo = maps
                .elem_local_nodes(e as usize)
                .iter()
                .copied()
                .min()
                .unwrap_or(0);
            (lo, e)
        });

        let n_blocks = order.len().div_ceil(bw);
        let mut lens = vec![0u32; n_blocks];
        let mut elems = vec![u32::MAX; n_blocks * bw];
        let mut gidx = vec![0u32; n_blocks * nd * bw];
        for (pos, &e) in order.iter().enumerate() {
            let (k, b) = (pos / bw, pos % bw);
            lens[k] += 1;
            elems[k * bw + b] = e;
            let nodes = maps.elem_local_nodes(e as usize);
            for (m, &l) in nodes.iter().enumerate() {
                for c in 0..ndof {
                    gidx[(k * nd + m * ndof + c) * bw + b] = l * ndof as u32 + c as u32;
                }
            }
        }
        BlockSet {
            nd,
            bw,
            lens,
            elems,
            gidx,
            keb: Vec::new(),
            slab: 0,
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.lens.len()
    }

    /// Live lanes of block `k`.
    pub fn len(&self, k: usize) -> usize {
        self.lens[k] as usize
    }

    /// True if the set has no blocks.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Element ids of block `k` (`bw` entries; padded lanes = `u32::MAX`).
    pub fn elems(&self, k: usize) -> &[u32] {
        &self.elems[k * self.bw..(k + 1) * self.bw]
    }

    /// Doubles per panel (`nd × bw`).
    pub fn panel_len(&self) -> usize {
        self.nd * self.bw
    }

    /// Block `k`'s flattened gather/scatter table (`nd × bw` DA dof
    /// indices, lane-major; padded lanes hold 0). Read-only, exposed for
    /// `hymv-verify`'s index-bounds check of the vector gather.
    pub fn gather_indices(&self, k: usize) -> &[u32] {
        let pl = self.panel_len();
        &self.gidx[k * pl..(k + 1) * pl]
    }

    /// Block `k`'s interleaved matrix slab (requires an attached store).
    /// Its length tells the batched kernels which layout it is in.
    pub fn keb(&self, k: usize) -> &[f64] {
        &self.keb[k * self.slab..(k + 1) * self.slab]
    }

    /// Gather block `k`'s input panel: `ue[i] = data[gidx[i]]`. Padded
    /// lanes read slot 0 (a harmless in-bounds load; their matrix lanes
    /// are zero).
    #[inline]
    pub fn gather(&self, k: usize, data: &[f64], ue: &mut [f64]) {
        gather_panel(data, self.gather_indices(k), ue);
    }

    /// Scatter block `k`'s output panel through `add(dof_index, value)`.
    /// Lane-bounded: padded lanes are skipped, so padding never perturbs
    /// the result (not even the sign of a zero).
    #[inline]
    pub fn scatter_with(&self, k: usize, ve: &[f64], mut add: impl FnMut(usize, f64)) {
        let (bw, pl) = (self.bw, self.panel_len());
        let gi = &self.gidx[k * pl..(k + 1) * pl];
        debug_assert_eq!(ve.len(), pl);
        let len = self.lens[k] as usize;
        if len == bw {
            for (&r, &v) in gi.iter().zip(ve) {
                add(r as usize, v);
            }
        } else {
            for row in 0..self.nd {
                for b in 0..len {
                    add(gi[row * bw + b] as usize, ve[row * bw + b]);
                }
            }
        }
    }

    /// Gather block `k`'s multivector input panel from an `nvec`-column
    /// [`DistArray`]: `nvec` contiguous column values per table
    /// entry (`ue[t·nvec + c] = data[gidx[t]·nvec + c]`), one whole-row
    /// move each. Padded lanes read slot 0, exactly like [`Self::gather`].
    #[inline]
    pub fn gather_mv(&self, k: usize, data: &[f64], nvec: usize, ue: &mut [f64]) {
        match nvec {
            FIXED_NVEC_WIDTH => self.gather_rows::<FIXED_NVEC_WIDTH>(k, data, nvec, ue),
            _ => self.gather_rows::<0>(k, data, nvec, ue),
        }
    }

    /// [`Self::gather_mv`] for rows of `N` values (`N = 0`: `nvec`, read
    /// at run time).
    #[inline(always)]
    fn gather_rows<const N: usize>(&self, k: usize, data: &[f64], nvec: usize, ue: &mut [f64]) {
        let n = if N == 0 { nvec } else { N };
        let gi = self.gather_indices(k);
        assert_eq!(ue.len(), gi.len() * n, "panel does not fit the table");
        for (u, &r) in ue.chunks_exact_mut(n).zip(gi) {
            u.copy_from_slice(&data[r as usize * n..][..n]);
        }
    }

    /// Scatter-add block `k`'s multivector output panel into an
    /// `nvec`-column [`DistArray`]'s `data`, one whole `nvec`-wide row per table
    /// entry. Lane-bounded like [`Self::scatter_with`], and visiting live
    /// lanes in the same `(row, lane)` order so per-column accumulation
    /// order — and therefore the bits — match the single-vector path.
    #[inline]
    pub fn scatter_add_mv(&self, k: usize, nvec: usize, ve: &[f64], data: &mut [f64]) {
        match nvec {
            FIXED_NVEC_WIDTH => self.scatter_add_rows::<FIXED_NVEC_WIDTH>(k, nvec, ve, data),
            _ => self.scatter_add_rows::<0>(k, nvec, ve, data),
        }
    }

    /// [`Self::scatter_add_mv`] for rows of `N` values (`N = 0`: `nvec`,
    /// read at run time).
    #[inline(always)]
    fn scatter_add_rows<const N: usize>(
        &self,
        k: usize,
        nvec: usize,
        ve: &[f64],
        data: &mut [f64],
    ) {
        let n = if N == 0 { nvec } else { N };
        let (bw, gi) = (self.bw, self.gather_indices(k));
        assert_eq!(ve.len(), gi.len() * n, "panel does not fit the table");
        for row in 0..self.nd {
            for b in 0..self.lens[k] as usize {
                let t = row * bw + b;
                let dst = &mut data[gi[t] as usize * n..][..n];
                for (d, &x) in dst.iter_mut().zip(&ve[t * n..][..n]) {
                    *d += x;
                }
            }
        }
    }
}

/// The setup-time plan for the batched SPMV path: both element subsets
/// blocked, plus the element → (set, block, lane) slot map the adaptive
/// update path uses to refresh individual matrices in place.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    nd: usize,
    bw: usize,
    indep: BlockSet,
    dep: BlockSet,
    /// Element id → (dependent?, block, lane).
    slot: Vec<(bool, u32, u16)>,
}

impl BlockPlan {
    /// Build the gather/scatter tables (matrix slabs stay empty until
    /// [`Self::attach_store`]).
    ///
    /// # Panics
    /// On a batch width outside `1..=MAX_BATCH_WIDTH`, and on a DA of more
    /// than `i32::MAX` entries (`da_len`).
    pub fn build(maps: &HymvMaps, ndof: usize, bw: usize) -> Self {
        assert!(
            (1..=MAX_BATCH_WIDTH).contains(&bw),
            "batch width {bw} outside 1..={MAX_BATCH_WIDTH}"
        );
        if let Err(e) = da_len(maps.n_total(), ndof) {
            panic!("{e}");
        }
        let indep = BlockSet::build(maps, ndof, bw, &maps.independent);
        let dep = BlockSet::build(maps, ndof, bw, &maps.dependent);
        let mut slot = vec![(false, u32::MAX, 0u16); maps.n_elems];
        for (dependent, set) in [(false, &indep), (true, &dep)] {
            for k in 0..set.n_blocks() {
                for (b, &e) in set.elems(k).iter().enumerate() {
                    if e != u32::MAX {
                        slot[e as usize] = (dependent, k as u32, b as u16);
                    }
                }
            }
        }
        BlockPlan {
            nd: maps.npe * ndof,
            bw,
            indep,
            dep,
            slot,
        }
    }

    /// Interleave every element matrix of `source` into its block slab
    /// (allocates the slabs; padded lanes stay zero). `source` may be a
    /// contiguous store or another plan's [`SlabMatrices`] — a width change
    /// or an LFLR repair attaches from the old plan.
    ///
    /// The layout follows the data: slabs hold the lower triangle only
    /// (`nd(nd+1)/2·bw` doubles per block) when every matrix in `source` is
    /// bitwise symmetric, all `nd²·bw` entries otherwise. The check rides
    /// the interleave pass — packing starts optimistically and the first
    /// asymmetric matrix demotes the slabs (see [`Self::refresh`]).
    pub fn attach_store(&mut self, source: impl ElementMatrices) {
        self.alloc_slabs(true);
        let elems: Vec<u32> = (0..self.slot.len() as u32).collect();
        self.refresh(source, &elems);
    }

    /// (Re)allocate zeroed slabs in the given layout. With `packed` this
    /// is the first half of [`Self::attach_store`]: operator setup calls
    /// it once and then [`Self::refresh`]es each chunk of matrices as it
    /// is computed.
    pub(crate) fn alloc_slabs(&mut self, packed: bool) {
        let slab = slab_len(self.nd, self.bw, packed);
        for set in [&mut self.indep, &mut self.dep] {
            set.slab = slab;
            set.keb = vec![0.0; set.n_blocks() * slab];
        }
    }

    /// Re-interleave the matrices of `elems`, read from `source` (the
    /// adaptive-update path: after `ke_mut`/`update_elements` touched a
    /// few elements). `source` needs to hold only the listed elements.
    ///
    /// A packed plan re-checks each of them. The first one that is no
    /// longer bitwise symmetric (a `ke_mut` caller may write anything)
    /// demotes the whole plan: every packed slab is expanded in place into
    /// the full layout (exact — it held symmetric matrices only), and then
    /// the whole list is interleaved again from `source`. From then on an
    /// apply streams twice the bytes. The demotion is one-way — only a new
    /// `attach_store` packs again.
    ///
    /// # Panics
    /// If `source`'s matrices are not `nd × nd`.
    pub fn refresh(&mut self, source: impl ElementMatrices, elems: &[u32]) {
        assert_eq!(source.ke_dim(), self.nd, "store/plan dimension mismatch");
        let mut scratch = vec![0.0; self.nd * self.nd];
        if !self.interleave_listed(&source, elems, &mut scratch) {
            self.expand_packed_slabs();
            let all_taken = self.interleave_listed(&source, elems, &mut scratch);
            debug_assert!(all_taken, "a full slab takes any matrix");
        }
    }

    /// Interleave each listed element's matrix into its lane, stopping at
    /// the first one a packed slab refuses (returns `false` then).
    fn interleave_listed(
        &mut self,
        source: &impl ElementMatrices,
        elems: &[u32],
        scratch: &mut [f64],
    ) -> bool {
        let (nd, bw) = (self.nd, self.bw);
        for &e in elems {
            let (dependent, k, b) = self.slot[e as usize];
            let set = if dependent {
                &mut self.dep
            } else {
                &mut self.indep
            };
            let slab = &mut set.keb[k as usize * set.slab..(k as usize + 1) * set.slab];
            if !interleave_ke(
                source.read_ke(e as usize, scratch),
                slab,
                nd,
                bw,
                b as usize,
            ) {
                return false;
            }
        }
        true
    }

    /// Demotion: rewrite every packed slab in the full layout, lane by
    /// lane through [`deinterleave_ke`] (the mirror is exact). Padded lanes
    /// stay zero.
    fn expand_packed_slabs(&mut self) {
        let (nd, bw) = (self.nd, self.bw);
        let full = slab_len(nd, bw, false);
        let mut ke = vec![0.0; nd * nd];
        for set in [&mut self.indep, &mut self.dep] {
            let mut keb = vec![0.0; set.n_blocks() * full];
            for k in 0..set.n_blocks() {
                let packed = &set.keb[k * set.slab..(k + 1) * set.slab];
                for b in 0..set.len(k) {
                    deinterleave_ke(packed, &mut ke, nd, bw, b);
                    interleave_ke(&ke, &mut keb[k * full..(k + 1) * full], nd, bw, b);
                }
            }
            set.keb = keb;
            set.slab = full;
        }
    }

    /// Element `e`'s column-major matrix, read back from its slab lane into
    /// `ke` (`nd²` long).
    pub(crate) fn read_slab_ke(&self, e: usize, ke: &mut [f64]) {
        let (dependent, k, b) = self.slot[e];
        let set = self.set(dependent);
        deinterleave_ke(set.keb(k as usize), ke, self.nd, self.bw, b as usize);
    }

    /// The element matrices the slabs hold, as a read-only view.
    pub fn slab_matrices(&self) -> SlabMatrices<'_> {
        SlabMatrices {
            plan: self,
            pending: None,
        }
    }

    /// True while attached slabs hold lower triangles only (at `nd = 1`
    /// the two layouts are the same slab, reported as full).
    pub fn is_packed(&self) -> bool {
        let slab = self.indep.slab;
        slab != 0 && slab < slab_len(self.nd, self.bw, false)
    }

    /// Batch width `bw`.
    pub fn batch_width(&self) -> usize {
        self.bw
    }

    /// Element-matrix dimension `nd`.
    pub fn nd(&self) -> usize {
        self.nd
    }

    /// The blocked subset.
    pub fn set(&self, dependent: bool) -> &BlockSet {
        if dependent {
            &self.dep
        } else {
            &self.indep
        }
    }

    /// Total blocks across both sets.
    pub fn n_blocks_total(&self) -> usize {
        self.indep.n_blocks() + self.dep.n_blocks()
    }

    /// Total lanes (elements + tail padding) — the executed-FLOP count is
    /// `n_lanes_total · 2nd²`.
    pub fn n_lanes_total(&self) -> usize {
        self.n_blocks_total() * self.bw
    }

    /// Bytes of the plan's own storage: interleaved matrix slabs (f64, in
    /// the layout they are actually held in) plus gather tables (u32).
    pub fn bytes(&self) -> usize {
        self.device_bytes()
    }

    /// Bytes uploaded to a device reusing the panel layout (matrix slabs +
    /// gather tables).
    pub fn device_bytes(&self) -> usize {
        let mut total = 0;
        for set in [&self.indep, &self.dep] {
            total += set.keb.len() * 8 + set.gidx.len() * 4;
        }
        total
    }

    /// Serial blocked EMV loop over one subset. `ue`/`ve` are `nd × bw`
    /// panel scratch.
    pub fn run_serial(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
        ue: &mut [f64],
        ve: &mut [f64],
    ) {
        let set = self.set(dependent);
        for k in 0..set.n_blocks() {
            set.gather(k, &u.data, ue);
            kernel(set.keb(k), ue, ve, self.nd, self.bw);
            set.scatter_with(k, ve, |i, val| v.data[i] += val);
        }
    }

    /// Serial blocked SpMM loop over one subset of `nvec`-column DAs: each
    /// block's `Ke` slab is loaded once and reused for all `nvec` columns
    /// of the panel — the bandwidth amortization the multivector engine
    /// exists for. `ue`/`ve` are `nd × bw × nvec` panel scratch.
    pub fn run_serial_mv(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchMvKernel,
        ue: &mut [f64],
        ve: &mut [f64],
    ) {
        let nvec = u.nvec;
        debug_assert_eq!(v.nvec, nvec);
        let set = self.set(dependent);
        for k in 0..set.n_blocks() {
            set.gather_mv(k, &u.data, nvec, ue);
            kernel(set.keb(k), ue, ve, self.nd, self.bw, nvec);
            set.scatter_add_mv(k, nvec, ve, &mut v.data);
        }
    }
}

/// The element matrices of a [`BlockPlan`]'s slabs, read column-major
/// through [`deinterleave_ke`] — an operator's only copy of `Ke`, seen as
/// [`ElementMatrices`]. An operator's view reads its pending `ke_mut`
/// buffers first, so it shows the matrices the next apply will use.
#[derive(Clone, Copy)]
pub struct SlabMatrices<'a> {
    plan: &'a BlockPlan,
    pending: Option<&'a KeBuffers>,
}

impl<'a> SlabMatrices<'a> {
    /// The view of `plan` with `pending` read first.
    pub(crate) fn with_pending(plan: &'a BlockPlan, pending: &'a KeBuffers) -> Self {
        SlabMatrices {
            plan,
            pending: Some(pending),
        }
    }

    /// Bytes of `Ke` held beside the slabs: the pending `ke_mut` buffers,
    /// 0 when there are none (the slabs are counted by
    /// [`BlockPlan::bytes`]).
    pub fn bytes(&self) -> usize {
        self.pending.map_or(0, KeBuffers::buffer_bytes)
    }
}

impl ElementMatrices for SlabMatrices<'_> {
    fn ke_dim(&self) -> usize {
        self.plan.nd
    }

    fn read_ke<'s>(&'s self, e: usize, scratch: &'s mut [f64]) -> &'s [f64] {
        if let Some(ke) = self.pending.and_then(|p| p.held_ke(e)) {
            return ke;
        }
        self.plan.read_slab_ke(e, scratch);
        scratch
    }
}

/// Column-major element matrices keyed by element id, in first-touch
/// order: an operator's `ke_mut` writes, held until the next flush
/// interleaves them.
#[derive(Debug, Clone)]
pub(crate) struct KeBuffers {
    nd: usize,
    elems: Vec<u32>,
    data: Vec<f64>,
    index: HashMap<u32, usize>,
}

impl KeBuffers {
    /// No buffers, for `nd × nd` matrices.
    pub(crate) fn new(nd: usize) -> Self {
        KeBuffers {
            nd,
            elems: Vec::new(),
            data: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Element `e`'s buffer; on its first touch a new one, filled by `seed`.
    /// A second call for the same element returns the same buffer.
    pub(crate) fn buffer_for(&mut self, e: usize, seed: impl FnOnce(&mut [f64])) -> &mut [f64] {
        let sz = self.nd * self.nd;
        let i = match self.index.get(&(e as u32)) {
            Some(&i) => i,
            None => {
                let i = self.elems.len();
                self.elems.push(e as u32);
                self.index.insert(e as u32, i);
                self.data.resize((i + 1) * sz, 0.0);
                seed(&mut self.data[i * sz..]);
                i
            }
        };
        &mut self.data[i * sz..(i + 1) * sz]
    }

    /// The elements held, in first-touch order.
    pub(crate) fn held_elems(&self) -> &[u32] {
        &self.elems
    }

    /// Element `e`'s buffer, if held.
    fn held_ke(&self, e: usize) -> Option<&[f64]> {
        let sz = self.nd * self.nd;
        let i = *self.index.get(&(e as u32))?;
        Some(&self.data[i * sz..(i + 1) * sz])
    }

    /// Bytes of the held buffers.
    fn buffer_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Drop every buffer and give its memory back.
    pub(crate) fn release(&mut self) {
        *self = KeBuffers::new(self.nd);
    }
}

impl ElementMatrices for KeBuffers {
    fn ke_dim(&self) -> usize {
        self.nd
    }

    fn read_ke<'s>(&'s self, e: usize, _scratch: &'s mut [f64]) -> &'s [f64] {
        self.held_ke(e)
            .unwrap_or_else(|| panic!("element {e} has no pending matrix"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::emv_loop_serial;
    use hymv_la::dense::select_batch_kernel;
    use hymv_la::ElementMatrixStore;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{unstructured_tet_mesh, ElementType, StructuredHexMesh};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(
        mesh: &hymv_mesh::GlobalMesh,
        ndof: usize,
        seed: u64,
    ) -> (HymvMaps, ElementMatrixStore, DistArray) {
        let pm = partition_mesh(mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let nd = maps.npe * ndof;
        let mut store = ElementMatrixStore::new(nd, maps.n_elems);
        let mut rng = StdRng::seed_from_u64(seed);
        for e in 0..maps.n_elems {
            for v in store.ke_mut(e) {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        let mut u = DistArray::new(&maps, ndof);
        for v in u.data.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        (maps, store, u)
    }

    fn serial_reference(maps: &HymvMaps, store: &ElementMatrixStore, u: &DistArray) -> DistArray {
        let all: Vec<u32> = (0..maps.n_elems as u32).collect();
        let nd = store.nd();
        let mut v = DistArray::new(maps, u.ndof);
        let mut ue = vec![0.0; nd];
        let mut ve = vec![0.0; nd];
        emv_loop_serial(maps, store, u, &mut v, &all, &mut ue, &mut ve);
        v
    }

    fn blocked_result(
        maps: &HymvMaps,
        store: &ElementMatrixStore,
        u: &DistArray,
        bw: usize,
    ) -> DistArray {
        let mut plan = BlockPlan::build(maps, u.ndof, bw);
        plan.attach_store(store);
        blocked_from(&plan, maps, u)
    }

    /// Both subsets of an attached plan through the serial blocked loop.
    fn blocked_from(plan: &BlockPlan, maps: &HymvMaps, u: &DistArray) -> DistArray {
        let bw = plan.batch_width();
        let kernel = select_batch_kernel(bw);
        let mut v = DistArray::new(maps, u.ndof);
        let pl = plan.nd() * bw;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(false, u, &mut v, kernel, &mut ue, &mut ve);
        plan.run_serial(true, u, &mut v, kernel, &mut ue, &mut ve);
        v
    }

    /// Blocked-vs-per-element agreement for every element type the paper
    /// uses, including ragged tails (element counts not divisible by bw)
    /// and one-element blocks (bw = 1).
    #[test]
    fn blocked_matches_serial_all_element_types() {
        let meshes: Vec<hymv_mesh::GlobalMesh> = vec![
            StructuredHexMesh::unit(3, ElementType::Hex8).build(), // 27 elems: ragged for bw=8
            StructuredHexMesh::unit(2, ElementType::Hex20).build(),
            StructuredHexMesh::unit(2, ElementType::Hex27).build(),
            unstructured_tet_mesh(2, ElementType::Tet4, 0.1, 3),
            unstructured_tet_mesh(2, ElementType::Tet10, 0.1, 4),
        ];
        for (i, mesh) in meshes.iter().enumerate() {
            let (maps, store, u) = random_case(mesh, 1, 100 + i as u64);
            let v_ref = serial_reference(&maps, &store, &u);
            for bw in [1usize, 3, 8, 16] {
                let v = blocked_result(&maps, &store, &u, bw);
                for (a, b) in v_ref.data.iter().zip(&v.data) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{:?} bw={bw}: {a} vs {b}",
                        mesh.elem_type
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matches_serial_multi_dof() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let (maps, store, u) = random_case(&mesh, 3, 42);
        let v_ref = serial_reference(&maps, &store, &u);
        for bw in [4usize, 8] {
            let v = blocked_result(&maps, &store, &u, bw);
            for (a, b) in v_ref.data.iter().zip(&v.data) {
                assert!((a - b).abs() < 1e-12, "ndof=3 bw={bw}");
            }
        }
    }

    #[test]
    fn plan_covers_each_element_once_and_sorts_by_locality() {
        let mesh = unstructured_tet_mesh(3, ElementType::Tet4, 0.05, 9);
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let maps = HymvMaps::build(&pm.parts[0]);
        let bw = 8;
        let plan = BlockPlan::build(&maps, 1, bw);
        let mut seen = vec![false; maps.n_elems];
        for dependent in [false, true] {
            let set = plan.set(dependent);
            let subset = if dependent {
                &maps.dependent
            } else {
                &maps.independent
            };
            let mut count = 0;
            let mut prev_min = 0u32;
            for k in 0..set.n_blocks() {
                let len = set.len(k);
                assert!(len >= 1 && len <= bw);
                if k + 1 < set.n_blocks() {
                    assert_eq!(len, bw, "only the tail block may be short");
                }
                for (b, &e) in set.elems(k).iter().enumerate() {
                    if b < len {
                        assert!(!seen[e as usize], "element {e} appears twice");
                        seen[e as usize] = true;
                        count += 1;
                        let lo = *maps
                            .elem_local_nodes(e as usize)
                            .iter()
                            .min()
                            .expect("nonempty");
                        assert!(lo >= prev_min, "locality order violated");
                        prev_min = lo;
                    } else {
                        assert_eq!(e, u32::MAX);
                    }
                }
            }
            assert_eq!(count, subset.len());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gather_table_matches_e2l() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let ndof = 3;
        let plan = BlockPlan::build(&maps, ndof, 4);
        let set = plan.set(false);
        let mut ue = vec![0.0; set.panel_len()];
        // data[i] = i makes the gather table directly visible.
        let mut u = DistArray::new(&maps, ndof);
        for (i, v) in u.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        for k in 0..set.n_blocks() {
            set.gather(k, &u.data, &mut ue);
            for (b, &e) in set.elems(k).iter().enumerate() {
                if e == u32::MAX {
                    continue;
                }
                let nodes = maps.elem_local_nodes(e as usize);
                for (m, &l) in nodes.iter().enumerate() {
                    for c in 0..ndof {
                        assert_eq!(
                            ue[(m * ndof + c) * 4 + b],
                            (l as usize * ndof + c) as f64,
                            "e={e} m={m} c={c}"
                        );
                    }
                }
            }
        }
    }

    /// The vector gather against the loop it replaced, on a plan with a
    /// ragged tail: every live lane reads its dof, every padded lane reads
    /// slot 0.
    #[test]
    fn gather_equals_the_scalar_loop_on_a_ragged_plan() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build(); // 27 = 3·8 + 3
        for (ndof, bw) in [(1usize, 8usize), (3, 8), (1, 16), (1, 5)] {
            let (maps, _, u) = random_case(&mesh, ndof, 300 + bw as u64);
            let plan = BlockPlan::build(&maps, ndof, bw);
            let set = plan.set(false);
            let tail = set.n_blocks() - 1;
            assert!(set.len(tail) < bw, "the last block must be ragged");
            let mut ue = vec![f64::NAN; set.panel_len()];
            for k in 0..set.n_blocks() {
                set.gather(k, &u.data, &mut ue);
                for (t, (&got, &r)) in ue.iter().zip(set.gather_indices(k)).enumerate() {
                    if t % bw >= set.len(k) {
                        assert_eq!(r, 0, "padded lanes index slot 0");
                    }
                    assert_eq!(
                        got.to_bits(),
                        u.data[r as usize].to_bits(),
                        "block {k} slot {t}"
                    );
                }
            }
        }
    }

    /// The plan's index space ends at `i32::MAX` entries, and the refusal
    /// names both factors; a product that overflows `usize` is refused the
    /// same way instead of wrapping.
    #[test]
    fn da_len_is_checked_at_the_32_bit_edge() {
        let edge = i32::MAX as usize;
        assert_eq!(da_len(edge, 1), Ok(edge));
        assert_eq!(da_len(edge / 3, 3), Ok(edge / 3 * 3));
        assert_eq!(da_len(0, 3), Ok(0));
        for (n_total, ndof) in [
            (edge + 1, 1),
            (edge / 3 + 1, 3),
            (1 << 31, 2),
            (usize::MAX, 2),
        ] {
            let err = da_len(n_total, ndof).unwrap_err();
            assert!(
                err.contains(&format!("{n_total} nodes")) && err.contains(&format!("{ndof} dofs")),
                "{err}"
            );
        }
    }

    #[test]
    fn refresh_updates_single_lane() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let (maps, mut store, u) = random_case(&mesh, 1, 21);
        let bw = 8;
        let mut plan = BlockPlan::build(&maps, 1, bw);
        plan.attach_store(&store);
        // Mutate one element's matrix and refresh only it.
        for v in store.ke_mut(5) {
            *v *= 3.0;
        }
        plan.refresh(&store, &[5]);
        let kernel = select_batch_kernel(bw);
        let mut v = DistArray::new(&maps, 1);
        let pl = plan.nd() * bw;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(false, &u, &mut v, kernel, &mut ue, &mut ve);
        plan.run_serial(true, &u, &mut v, kernel, &mut ue, &mut ve);
        let v_ref = serial_reference(&maps, &store, &u);
        for (a, b) in v_ref.data.iter().zip(&v.data) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// Overwrite every stored matrix with its symmetric part's lower
    /// triangle mirrored up, making the store bitwise symmetric.
    fn symmetrize(store: &mut ElementMatrixStore) {
        let nd = store.nd();
        for e in 0..store.n_elems() {
            let ke = store.ke_mut(e);
            for hi in 0..nd {
                for lo in 0..hi {
                    ke[hi * nd + lo] = ke[lo * nd + hi];
                }
            }
        }
    }

    /// The blocked loops run on hand-built **full** slabs of the same
    /// matrices: the reference a packed plan must reproduce to the bit.
    fn full_layout_result(plan: &BlockPlan, store: &ElementMatrixStore, u: &DistArray) -> Vec<f64> {
        let (nd, bw) = (plan.nd(), plan.batch_width());
        let kernel = select_batch_kernel(bw);
        let mut v = vec![0.0; u.data.len()];
        let (mut ue, mut ve) = (vec![0.0; nd * bw], vec![0.0; nd * bw]);
        for dependent in [false, true] {
            let set = plan.set(dependent);
            for k in 0..set.n_blocks() {
                let mut keb = vec![0.0; slab_len(nd, bw, false)];
                for (b, &e) in set.elems(k).iter().enumerate().take(set.len(k)) {
                    assert!(interleave_ke(store.ke(e as usize), &mut keb, nd, bw, b));
                }
                set.gather(k, &u.data, &mut ue);
                kernel(&keb, &ue, &mut ve, nd, bw);
                set.scatter_with(k, &ve, |i, val| v[i] += val);
            }
        }
        v
    }

    /// The layout follows the data: a bitwise-symmetric store packs (half
    /// the slab, same bits out), one asymmetric entry anywhere keeps every
    /// slab full.
    #[test]
    fn symmetric_store_packs_and_matches_full_layout_bitwise() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build(); // ragged for bw=8
        for (ndof, bw) in [(1usize, 8usize), (3, 8), (1, 3), (3, 16)] {
            let (maps, mut store, u) = random_case(&mesh, ndof, 77 + bw as u64);
            let nd = store.nd();
            let mut plan = BlockPlan::build(&maps, ndof, bw);
            plan.attach_store(&store);
            assert!(!plan.is_packed(), "random matrices are not symmetric");
            assert_eq!(plan.set(false).keb(0).len(), nd * nd * bw);
            let full_bytes = plan.bytes();

            symmetrize(&mut store);
            plan.attach_store(&store);
            assert!(plan.is_packed());
            for dependent in [false, true] {
                let set = plan.set(dependent);
                for k in 0..set.n_blocks() {
                    assert_eq!(set.keb(k).len(), nd * (nd + 1) / 2 * bw);
                }
            }
            let n_blocks = plan.n_blocks_total();
            assert_eq!(
                full_bytes - plan.bytes(),
                n_blocks * (nd * nd - nd * (nd + 1) / 2) * bw * 8,
                "bytes() reports the slabs as held"
            );

            let v = blocked_from(&plan, &maps, &u);
            let v_ref = full_layout_result(&plan, &store, &u);
            for (i, (a, b)) in v.data.iter().zip(&v_ref).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "ndof={ndof} bw={bw} dof {i}");
            }

            // The last element, last entry pair: still caught.
            let last = store.n_elems() - 1;
            store.ke_mut(last)[(nd - 1) * nd + nd - 2] += 1.0;
            plan.attach_store(&store);
            assert!(!plan.is_packed());
            assert_eq!(plan.bytes(), full_bytes);
        }
    }

    /// `refresh` keeps a packed plan packed across symmetric updates and
    /// demotes it — expanding every packed slab, then re-interleaving the
    /// whole list — on the first asymmetric one, even when later entries of
    /// the same list are symmetric again. Demotion is one-way until the
    /// next `attach_store`.
    #[test]
    fn refresh_demotes_on_first_asymmetric_matrix() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let (maps, mut store, u) = random_case(&mesh, 1, 91);
        symmetrize(&mut store);
        let (nd, bw) = (store.nd(), 8);
        let mut plan = BlockPlan::build(&maps, 1, bw);
        plan.attach_store(&store);
        assert!(plan.is_packed());

        // Symmetric update of two elements: stays packed, equals a fresh plan.
        for e in [3usize, 20] {
            for v in store.ke_mut(e) {
                *v *= 0.5;
            }
        }
        plan.refresh(&store, &[3, 20]);
        assert!(plan.is_packed());
        let mut fresh = BlockPlan::build(&maps, 1, bw);
        fresh.attach_store(&store);
        assert_eq!(
            blocked_from(&plan, &maps, &u).data,
            blocked_from(&fresh, &maps, &u).data
        );

        // Element 11 goes asymmetric; 3 and 20 change (symmetrically) in
        // the same batch, on either side of it in the dirty list.
        store.ke_mut(11)[2 * nd + 5] = 7.0;
        for e in [3usize, 20] {
            for v in store.ke_mut(e) {
                *v *= 3.0;
            }
        }
        // The source holds the listed matrices only (as an operator's
        // pending buffers do): the demotion reads every other element from
        // the packed slabs it expands.
        let mut listed = KeBuffers::new(nd);
        for e in [3usize, 11, 20] {
            listed.buffer_for(e, |ke| ke.copy_from_slice(store.ke(e)));
        }
        plan.refresh(&listed, listed.held_elems());
        assert!(!plan.is_packed());
        assert_eq!(plan.set(false).keb(0).len(), nd * nd * bw);
        let v = blocked_from(&plan, &maps, &u);
        let v_ref = serial_reference(&maps, &store, &u);
        for (a, b) in v_ref.data.iter().zip(&v.data) {
            assert!((a - b).abs() < 1e-12, "demoted plan vs per-element loop");
        }
        let mut fresh = BlockPlan::build(&maps, 1, bw);
        fresh.attach_store(&store);
        assert_eq!(v.data, blocked_from(&fresh, &maps, &u).data);
        for dependent in [false, true] {
            let (a, b) = (plan.set(dependent), fresh.set(dependent));
            for k in 0..a.n_blocks() {
                let same = a
                    .keb(k)
                    .iter()
                    .zip(b.keb(k))
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "demoted slab {k} differs from a fresh full attach");
            }
        }
        // The view reads back every matrix, demoted lanes included.
        let view = plan.slab_matrices();
        let mut scratch = vec![0.0; nd * nd];
        for e in 0..store.n_elems() {
            let back = view.read_ke(e, &mut scratch);
            assert!(back
                .iter()
                .zip(store.ke(e))
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }

        // Symmetric again: a refresh stays full, a fresh attach packs.
        store.ke_mut(11)[2 * nd + 5] = store.ke(11)[5 * nd + 2];
        plan.refresh(&store, &[11]);
        assert!(!plan.is_packed());
        plan.attach_store(&store);
        assert!(plan.is_packed());
    }

    /// Invalid widths are hard errors with a message naming the problem —
    /// never a silent clamp or fallback.
    #[test]
    fn batch_width_strict_parse() {
        assert_eq!(DEFAULT_BATCH_WIDTH, 8);
        assert_eq!(parse_batch_width("1"), Ok(1));
        assert_eq!(parse_batch_width(" 8 "), Ok(8));
        assert_eq!(parse_batch_width("64"), Ok(MAX_BATCH_WIDTH));
        let zero = parse_batch_width("0").unwrap_err();
        assert!(zero.contains("batch width 0 is invalid"), "{zero}");
        let big = parse_batch_width("65").unwrap_err();
        assert!(big.contains("exceeds the maximum of 64"), "{big}");
        let nan = parse_batch_width("fast").unwrap_err();
        assert!(nan.contains("not a number"), "{nan}");
        let neg = parse_batch_width("-3").unwrap_err();
        assert!(neg.contains("not a number"), "{neg}");
    }

    /// The blocked SpMM loop — whole-row gathers and scatter-adds around
    /// the folded kernel — equals the single-vector blocked loop run column
    /// by column, bitwise: with a ragged tail block (27 elements, bw = 8),
    /// ndof 1 and 3, the service's fixed width and run-time widths. The
    /// single-vector kernel is the one of the SpMM kernel's arithmetic
    /// class (fused on the SIMD ISAs, multiply-then-add on the portable).
    #[test]
    fn blocked_mv_matches_per_column_bitwise() {
        use hymv_la::dense::{
            emv_batch_mv_kernel_name, emv_batch_portable, select_batch_kernel,
            select_batch_mv_kernel,
        };
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        for (ndof, seed) in [(1usize, 5u64), (3, 6)] {
            let (maps, mut store, _) = random_case(&mesh, ndof, seed);
            let bw = 8;
            for symmetric in [false, true] {
                if symmetric {
                    symmetrize(&mut store);
                }
                let mut plan = BlockPlan::build(&maps, ndof, bw);
                plan.attach_store(&store);
                assert_eq!(plan.is_packed(), symmetric);
                let tail = plan.set(false).n_blocks() - 1;
                assert!(
                    plan.set(false).len(tail) < bw,
                    "the last block must be ragged"
                );
                for nvec in [1usize, 3, 8, 16] {
                    let n = maps.n_total() * ndof;
                    let mut rng = StdRng::seed_from_u64(seed + 100 * nvec as u64);
                    let cols: Vec<Vec<f64>> = (0..nvec)
                        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                        .collect();

                    // Per-column reference through the single-vector loop.
                    let kernel = if emv_batch_mv_kernel_name(nvec) == "mv-portable" {
                        emv_batch_portable
                    } else {
                        select_batch_kernel(bw)
                    };
                    let pl = plan.nd() * bw;
                    let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
                    let mut refs: Vec<DistArray> = Vec::new();
                    for col in &cols {
                        let mut u = DistArray::new(&maps, ndof);
                        u.data.copy_from_slice(col);
                        let mut v = DistArray::new(&maps, ndof);
                        plan.run_serial(false, &u, &mut v, kernel, &mut ue, &mut ve);
                        plan.run_serial(true, &u, &mut v, kernel, &mut ue, &mut ve);
                        refs.push(v);
                    }

                    // One SpMM over the interleaved multivector DA.
                    let mv_kernel = select_batch_mv_kernel(nvec);
                    let mut u_mv = DistArray::new_mv(&maps, ndof, nvec);
                    for (c, col) in cols.iter().enumerate() {
                        for (i, &x) in col.iter().enumerate() {
                            u_mv.data[i * nvec + c] = x;
                        }
                    }
                    let mut v_mv = DistArray::new_mv(&maps, ndof, nvec);
                    let (mut uem, mut vem) = (vec![0.0; pl * nvec], vec![0.0; pl * nvec]);
                    for dependent in [false, true] {
                        plan.run_serial_mv(
                            dependent, &u_mv, &mut v_mv, mv_kernel, &mut uem, &mut vem,
                        );
                    }

                    for c in 0..nvec {
                        for i in 0..n {
                            let (a, b) = (refs[c].data[i], v_mv.data[i * nvec + c]);
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "ndof={ndof} packed={symmetric} nvec={nvec} col {c} dof {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_subset_has_no_blocks() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let mut plan = BlockPlan::build(&maps, 1, 8);
        // Single rank: no dependent elements.
        assert!(plan.set(true).is_empty());
        let store = ElementMatrixStore::new(8, maps.n_elems);
        plan.attach_store(&store);
        let mut v = DistArray::new(&maps, 1);
        let u = DistArray::new(&maps, 1);
        let pl = plan.nd() * 8;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(true, &u, &mut v, select_batch_kernel(8), &mut ue, &mut ve);
        assert!(v.data.iter().all(|&x| x == 0.0));
    }
}
