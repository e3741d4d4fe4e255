//! Dense element-matrix storage and the batched EMV kernels.
//!
//! HYMV's central data structure is the array of locally-stored element
//! matrices. An operator holds them once, in the batch-interleaved slabs
//! the kernels stream ([`interleave_ke`] writes a lane, [`deinterleave_ke`]
//! reads it back); readers see them column-major through
//! [`ElementMatrices`], which the contiguous `ElementMatrixStore` of tests
//! and benches implements too. The elemental
//! mat-vec `ve = Ke · ue` (paper equation (4)) runs `bw` elements at a
//! time over batch-interleaved slabs, vectorized across the batch (or,
//! for the SpMM, across the vector columns): one kernel body,
//! dispatched at runtime to AVX-512F if the CPU has it, then AVX2+FMA,
//! then a portable scalar lane. `emv_portable` is the scalar per-element
//! reference they are tested against.
//!
//! The kernel bodies are safe Rust: at block entry, where the panel
//! lengths are asserted, the slab and the panels are split once into
//! fixed-size lane chunks (`&[[f64; W]]`), and every vector access is an
//! index into those. The only `unsafe` is for the instruction set: the
//! dispatch of the entry points, and in [`lanes`] the intrinsics, each on
//! a whole `&[f64; W]` and behind a [`lanes::Cpu`] proof that only code
//! compiled for its ISA can make.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256d, __m512d};

use lanes::Lane;

/// The lane types of the batched kernels: one vector of `W` lanes per
/// instruction set, each behind the proof [`Cpu`] that this CPU runs it.
/// Every intrinsic of the EMV kernels lives here, and its `unsafe` is for
/// the ISA alone: every load and store takes a whole `[f64; W]` chunk, so
/// the caller owes no bound.
pub(crate) mod lanes {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        __m256d, __m512d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_loadu_si256, _mm256_set1_pd,
        _mm256_storeu_pd, _mm512_cmplt_epu64_mask, _mm512_cvtepu32_epi64, _mm512_fmadd_pd,
        _mm512_i64gather_pd, _mm512_loadu_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_pd,
    };
    use std::marker::PhantomData;

    use super::MAX_BATCH_WIDTH;

    /// One vector of `W` lanes: all that differs between the ISAs the
    /// batched kernels are instantiated for. The implementor is the proof
    /// [`Cpu<V>`] for the vector type `V`, so every method is safe.
    pub trait Lane: Copy {
        /// The vector.
        type V: Copy;
        /// What one vector holds: `[f64; W]`.
        type Chunk;
        const W: usize;
        /// A chunk is exactly one vector of `W` doubles: evaluated for
        /// every lane type the entries instantiate, so an impl whose
        /// `Chunk` and vector widths disagree does not compile.
        const ONE_VECTOR: () = assert!(
            size_of::<Self::Chunk>() == Self::W * size_of::<f64>()
                && size_of::<Self::V>() == Self::W * size_of::<f64>()
        );
        /// Accumulators of one output row: eight registers on the SIMD
        /// ISAs, a scalar per lane (in memory, autovectorized) on the
        /// portable one.
        type Acc: AsMut<[Self::V]>;
        /// Accumulators holding `+0.0` in every lane.
        fn zeros(self) -> Self::Acc;
        /// `s` as whole chunks (a tail of fewer than `W` doubles is left out).
        fn chunks(s: &[f64]) -> &[Self::Chunk];
        fn chunks_mut(s: &mut [f64]) -> &mut [Self::Chunk];
        fn load(self, c: &Self::Chunk) -> Self::V;
        fn store(self, c: &mut Self::Chunk, v: Self::V);
        /// `k` in every lane: one `Ke` entry against a tile of columns.
        fn splat(self, k: f64) -> Self::V;
        /// `k·u + acc`: fused on the SIMD ISAs, multiply then add on the
        /// portable lane — the two arithmetic classes the kernels always had.
        fn fmadd(self, k: Self::V, u: Self::V, acc: Self::V) -> Self::V;
    }

    /// Proof that this CPU runs vectors of type `V`. Its constructor,
    /// `proof`, is compiled for `V`'s ISA, so only code running on that ISA
    /// — or an `unsafe` call that vouches for it — can make one.
    #[derive(Clone, Copy)]
    pub struct Cpu<V>(PhantomData<V>);

    impl Cpu<f64> {
        pub fn proof() -> Self {
            Cpu(PhantomData)
        }
    }

    impl Lane for Cpu<f64> {
        type V = f64;
        type Chunk = [f64; 1];
        const W: usize = 1;
        type Acc = [f64; MAX_BATCH_WIDTH];
        #[inline(always)]
        fn zeros(self) -> Self::Acc {
            [0.0; MAX_BATCH_WIDTH]
        }
        #[inline(always)]
        fn chunks(s: &[f64]) -> &[[f64; 1]] {
            s.as_chunks().0
        }
        #[inline(always)]
        fn chunks_mut(s: &mut [f64]) -> &mut [[f64; 1]] {
            s.as_chunks_mut().0
        }
        #[inline(always)]
        fn load(self, c: &[f64; 1]) -> f64 {
            c[0]
        }
        #[inline(always)]
        fn store(self, c: &mut [f64; 1], v: f64) {
            c[0] = v;
        }
        #[inline(always)]
        fn splat(self, k: f64) -> f64 {
            k
        }
        #[inline(always)]
        fn fmadd(self, k: f64, u: f64, acc: f64) -> f64 {
            acc + k * u
        }
    }

    #[cfg(target_arch = "x86_64")]
    impl Cpu<__m256d> {
        #[target_feature(enable = "avx2,fma")]
        pub fn proof() -> Self {
            Cpu(PhantomData)
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY: at each intrinsic; `self` proves AVX2+FMA
    impl Lane for Cpu<__m256d> {
        type V = __m256d;
        type Chunk = [f64; 4];
        const W: usize = 4;
        type Acc = [__m256d; 8];
        #[inline(always)]
        fn zeros(self) -> Self::Acc {
            [self.splat(0.0); 8]
        }
        #[inline(always)]
        fn chunks(s: &[f64]) -> &[[f64; 4]] {
            s.as_chunks().0
        }
        #[inline(always)]
        fn chunks_mut(s: &mut [f64]) -> &mut [[f64; 4]] {
            s.as_chunks_mut().0
        }
        #[inline(always)]
        fn load(self, c: &[f64; 4]) -> __m256d {
            // SAFETY: `self` proves AVX; the load reads the four doubles of `c`.
            unsafe { _mm256_loadu_pd(c.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, c: &mut [f64; 4], v: __m256d) {
            // SAFETY: `self` proves AVX; the store writes the four doubles of `c`.
            unsafe { _mm256_storeu_pd(c.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn splat(self, k: f64) -> __m256d {
            // SAFETY: `self` proves AVX.
            unsafe { _mm256_set1_pd(k) }
        }
        #[inline(always)]
        fn fmadd(self, k: __m256d, u: __m256d, acc: __m256d) -> __m256d {
            // SAFETY: `self` proves FMA.
            unsafe { _mm256_fmadd_pd(k, u, acc) }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY: at each intrinsic; `self` proves AVX-512F
    impl Cpu<__m512d> {
        #[target_feature(enable = "avx512f")]
        pub fn proof() -> Self {
            Cpu(PhantomData)
        }

        /// `data[gi[l]]` in lane `l`, as one `vgatherqpd` over the
        /// zero-extended indices (so no index is ever sign-extended). All
        /// eight are compared against `data.len()` before the load, and one
        /// out of range panics like the `data[i]` it replaces.
        #[inline(always)]
        pub fn gather(self, data: &[f64], gi: &[u32; 8]) -> __m512d {
            // `len <= isize::MAX`, so the cast is lossless.
            #[allow(clippy::cast_possible_wrap)]
            let len = data.len() as i64;
            // SAFETY: `self` proves AVX-512F; the load reads the eight indices of `gi`.
            let (idx, in_range) = unsafe {
                let idx = _mm512_cvtepu32_epi64(_mm256_loadu_si256(gi.as_ptr().cast()));
                (idx, _mm512_cmplt_epu64_mask(idx, _mm512_set1_epi64(len)))
            };
            assert!(
                in_range == 0xff,
                "gather index out of bounds: the len is {} but the indices are {gi:?}",
                data.len()
            );
            // SAFETY: `self` proves AVX-512F; every index was just checked
            // to address an element of `data`.
            unsafe { _mm512_i64gather_pd::<8>(idx, data.as_ptr()) }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY: at each intrinsic; `self` proves AVX-512F
    impl Lane for Cpu<__m512d> {
        type V = __m512d;
        type Chunk = [f64; 8];
        const W: usize = 8;
        type Acc = [__m512d; 8];
        #[inline(always)]
        fn zeros(self) -> Self::Acc {
            [self.splat(0.0); 8]
        }
        #[inline(always)]
        fn chunks(s: &[f64]) -> &[[f64; 8]] {
            s.as_chunks().0
        }
        #[inline(always)]
        fn chunks_mut(s: &mut [f64]) -> &mut [[f64; 8]] {
            s.as_chunks_mut().0
        }
        #[inline(always)]
        fn load(self, c: &[f64; 8]) -> __m512d {
            // SAFETY: `self` proves AVX-512F; the load reads the eight doubles of `c`.
            unsafe { _mm512_loadu_pd(c.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, c: &mut [f64; 8], v: __m512d) {
            // SAFETY: `self` proves AVX-512F; the store writes the eight doubles of `c`.
            unsafe { _mm512_storeu_pd(c.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn splat(self, k: f64) -> __m512d {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_set1_pd(k) }
        }
        #[inline(always)]
        fn fmadd(self, k: __m512d, u: __m512d, acc: __m512d) -> __m512d {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_fmadd_pd(k, u, acc) }
        }
    }
}

/// Read access to one rank's element matrices, wherever they are held:
/// the contiguous [`ElementMatrixStore`], or an operator's batch-interleaved
/// slabs read back through [`deinterleave_ke`]. Every reader of `Ke` —
/// plan attach and refresh, the Jacobi diagonal, the block-Jacobi block —
/// takes this interface, so an operator needs no second copy to serve them.
pub trait ElementMatrices {
    /// Element-matrix dimension `nd`.
    fn ke_dim(&self) -> usize;

    /// Element `e`'s column-major `nd × nd` matrix: borrowed where it is
    /// held in that form, otherwise written into `scratch` (`nd²` long) and
    /// returned from there.
    fn read_ke<'s>(&'s self, e: usize, scratch: &'s mut [f64]) -> &'s [f64];
}

impl<T: ElementMatrices + ?Sized> ElementMatrices for &T {
    fn ke_dim(&self) -> usize {
        (**self).ke_dim()
    }

    fn read_ke<'s>(&'s self, e: usize, scratch: &'s mut [f64]) -> &'s [f64] {
        (**self).read_ke(e, scratch)
    }
}

/// Contiguous storage of `n_elems` column-major `nd × nd` element matrices:
/// the reference layout tests, reference loops and benches build by hand.
/// Operators hold their matrices in their block plan's slabs only.
#[derive(Debug, Clone)]
pub struct ElementMatrixStore {
    nd: usize,
    n_elems: usize,
    data: Vec<f64>,
}

impl ElementMatrixStore {
    /// Zero-initialized storage.
    pub fn new(nd: usize, n_elems: usize) -> Self {
        assert!(nd > 0, "element matrix dimension must be positive");
        ElementMatrixStore {
            nd,
            n_elems,
            data: vec![0.0; nd * nd * n_elems],
        }
    }

    /// A contiguous copy of the first `n_elems` matrices of `src` (tests
    /// compare an operator's matrices through it).
    pub fn collect_from(src: impl ElementMatrices, n_elems: usize) -> Self {
        let mut store = Self::new(src.ke_dim(), n_elems);
        let mut scratch = vec![0.0; store.nd * store.nd];
        for e in 0..n_elems {
            let ke = src.read_ke(e, &mut scratch);
            store.ke_mut(e).copy_from_slice(ke);
        }
        store
    }

    /// Element matrix dimension.
    pub fn nd(&self) -> usize {
        self.nd
    }

    /// Number of stored matrices.
    pub fn n_elems(&self) -> usize {
        self.n_elems
    }

    /// Bytes of matrix storage (the memory-footprint figure HYMV pays for
    /// its speed).
    pub fn bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Immutable view of element `e`'s matrix.
    pub fn ke(&self, e: usize) -> &[f64] {
        let sz = self.nd * self.nd;
        &self.data[e * sz..(e + 1) * sz]
    }

    /// Mutable view of element `e`'s matrix (the adaptive-update path:
    /// XFEM enrichment recomputes only these entries).
    pub fn ke_mut(&mut self, e: usize) -> &mut [f64] {
        let sz = self.nd * self.nd;
        &mut self.data[e * sz..(e + 1) * sz]
    }
}

impl ElementMatrices for ElementMatrixStore {
    fn ke_dim(&self) -> usize {
        self.nd
    }

    fn read_ke<'s>(&'s self, e: usize, _scratch: &'s mut [f64]) -> &'s [f64] {
        self.ke(e)
    }
}

/// The batched EMV kernel signature (`keb`, `ue`, `ve`, `nd`, `bw`):
/// batch-interleaved matrices against `nd × bw` panels.
pub type EmvBatchKernel = fn(&[f64], &[f64], &mut [f64], usize, usize);

/// The instruction sets the kernels are written for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    Avx2,
    Avx512,
}

/// The one dispatch decision of this module: the widest ISA of this CPU
/// whose vectors tile `width` lanes with at most eight accumulators. Every
/// `select_*` and every `*_kernel_name` derives from it, so the name an
/// experiment logs is the kernel that ran.
fn isa_for(width: usize) -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if width % 8 == 0 && width <= 64 && is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if width % 4 == 0
            && width <= 32
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    let _ = width;
    Isa::Portable
}

/// A width every vector ISA tiles: `isa_for(ANY_WIDTH)` is the widest ISA
/// of this CPU.
const ANY_WIDTH: usize = 8;

/// Run `f` compiled for the widest vector ISA of this CPU. Block-CG's Gram
/// products (`mv`) and panel update (`block_cg`) are plain Rust loops that
/// vectorize, at that width instead of baseline SSE2 once they are inlined
/// into a `target_feature` function — so callers pass an
/// `#[inline(always)]` closure over `#[inline(always)]` loops. Rust never
/// contracts a multiply and an add into an FMA, so the ISA changes the
/// speed, never the bits.
#[allow(unsafe_code)] // SAFETY comment at the calls
pub(crate) fn on_widest_isa<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f")]
        fn avx512<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        #[target_feature(enable = "avx2,fma")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        match isa_for(ANY_WIDTH) {
            // SAFETY: `isa_for` found the features on this CPU.
            Isa::Avx512 => return unsafe { avx512(f) },
            // SAFETY: as above.
            Isa::Avx2 => return unsafe { avx2(f) },
            Isa::Portable => {}
        }
    }
    f()
}

/// The name experiment logs give `$isa`'s kernel of family `$family`.
macro_rules! isa_name {
    ($isa:expr, $family:literal) => {
        match $isa {
            Isa::Avx512 => concat!($family, "avx512f"),
            Isa::Avx2 => concat!($family, "avx2+fma"),
            Isa::Portable => concat!($family, "portable"),
        }
    };
}

/// `ve = Ke · ue` for one column-major `nd × nd` matrix, as a column axpy
/// without FMA: row `i` accumulates over `j` ascending, the order and
/// arithmetic of the portable batched lane. The scalar per-element
/// reference the batched kernels and operators are tested against.
///
/// # Panics
/// If `ke` is not `nd × nd` or `ve` not `nd` long (`nd = ue.len()`).
pub fn emv_portable(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    assert!(
        ke.len() == nd * nd && ve.len() == nd,
        "element matrix of {} and vectors of {} and {} do not fit nd={nd}",
        ke.len(),
        nd,
        ve.len()
    );
    ve.fill(0.0);
    for (j, &u) in ue.iter().enumerate() {
        let col = &ke[j * nd..(j + 1) * nd];
        for (v, &k) in ve.iter_mut().zip(col) {
            *v += k * u;
        }
    }
}

// ---------------------------------------------------------------------------
// Batched EMV: `Ve = Ke_b · Ue` for a block of `bw` elements at once.
//
// Layouts (all contiguous, batch-minor):
//   keb[slot(i,j)*bw + b]   — entry (i,j) of element b's matrix,
//   ue [j*bw + b]           — input panel, nd × bw,
//   ve [i*bw + b]           — output panel, nd × bw.
//
// A slab comes in two layouts, told apart by its length alone:
//   full    nd²·bw doubles        slot(i,j) = j*nd + i (column-major),
//   packed  nd(nd+1)/2·bw doubles slot(i,j) = tri(max) + min — the lower
//           triangle row by row, for matrices that are bitwise symmetric.
// Every kernel multiplies the same operands in the same order under either
// layout (row `i` accumulates over `j` ascending), so a packed slab gives
// the bits of the full slab it was packed from while streaming half the
// bytes. The run-time-`nd` body reads each packed entry once, in storage
// order, and uses it for both of the outputs it feeds; the unrolled
// fixed-`nd` bodies read a slab small enough to stay in L1 twice.
//
// Vectorization runs **across the batch dimension**: every load/store in
// the inner loop is unit-stride over `bw` lanes, so SIMD sees full vectors
// regardless of nd — unlike a per-element column axpy, whose vector
// length is capped by nd and pays a remainder loop per column.
// ---------------------------------------------------------------------------

/// Maximum supported batch width (bounds kernel register/stack usage).
pub const MAX_BATCH_WIDTH: usize = 64;

/// The one batch width with fixed-shape kernel code: its tile and group
/// counts are constants, so every chunk index of the body is checked at
/// compile time. Every other width is read at run time. Operators default
/// to it (`hymv_core::DEFAULT_BATCH_WIDTH` is defined as this).
pub const FIXED_BATCH_WIDTH: usize = 8;

/// `r(r+1)/2`: the packed slot of entry `(r, 0)`. One of `r`, `r + 1` is
/// even, so the division is exact.
#[inline(always)]
const fn tri(r: usize) -> usize {
    r * (r + 1) / 2
}

/// Doubles in one block slab of the full (`nd²·bw`) or symmetric-packed
/// (`nd(nd+1)/2·bw`) layout.
pub const fn slab_len(nd: usize, bw: usize, packed: bool) -> usize {
    if packed {
        tri(nd) * bw
    } else {
        nd * nd * bw
    }
}

/// Which layout a slab of `keb_len` doubles has (at `nd = 1` the two are
/// the same slab, reported as full).
///
/// # Panics
/// If `keb_len` is neither layout's length.
#[inline]
fn slab_is_packed(keb_len: usize, nd: usize, bw: usize) -> bool {
    let packed = keb_len != slab_len(nd, bw, false);
    assert!(
        !packed || keb_len == slab_len(nd, bw, true),
        "slab of {keb_len} doubles is neither full nor packed for nd={nd}, bw={bw}"
    );
    packed
}

/// Pick the best batched-EMV variant for this CPU and batch width. The
/// SIMD variants require `bw` to be a multiple of the vector width (and
/// small enough to keep per-row accumulators in registers); other widths
/// fall back to the portable lane, which autovectorizes well.
pub fn select_batch_kernel(bw: usize) -> EmvBatchKernel {
    assert!(
        bw >= 1 && bw <= MAX_BATCH_WIDTH,
        "batch width {bw} outside 1..={MAX_BATCH_WIDTH}"
    );
    match isa_for(bw) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => emv_batch_avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => emv_batch_avx2,
        _ => emv_batch_portable,
    }
}

/// Name of the dispatched batched-kernel variant (for experiment logs).
pub fn emv_batch_kernel_name(bw: usize) -> &'static str {
    isa_name!(isa_for(bw), "batch-")
}

/// The batched EMV, single- and multivector: every ISA, both slab layouts,
/// every `nd`, `bw` and `nvec` run this source. Output `(i, b, c)` is one
/// multiply-add chain over `j` ascending, so all instantiations of a lane
/// type give the same bits, and a column of an SpMM the bits of the
/// single-vector product of that column.
///
/// A *tile* is what one lane vector holds, a chunk of the panels. `NVEC =
/// 1` is the single-vector product: a tile is `W` batch lanes, and its `Ke`
/// operand a chunk of those lanes' entries. Otherwise (the SpMM, `nvec`
/// contiguous columns per dof and lane) a tile is `W` columns of one batch
/// lane `g`, and its `Ke` operand that lane's entry broadcast: a slab
/// streams once for all `nvec` columns. A panel row (one dof) is
/// `groups · tiles` chunks.
///
/// Every access is a safe index: the panels are split into chunks and
/// trimmed to their length once, here, and a slab is read one slot (`bw`
/// doubles) at a time. `ND`, `NVEC` and `BW` fix the dimension, the width
/// and the batch width (the caller passes equal run-time values); `0`
/// reads that one at run time. With `BW` and `NVEC` fixed, the tile and
/// group counts are constants and the chunk indices are checked at compile
/// time; read at run time, they are checked in the loop.
///
/// `ND = 0` reads the slab once, front to back, in storage order. A packed
/// row `r` is `K[r, 0..=r]`: each off-diagonal entry `K[r, c]` is term `j =
/// c` of output `r`, held in at most eight accumulators, and term `j = r`
/// of output `c`, added to the `ve` row that row `c` stored (the panel
/// stays in L1); the diagonal closes output `r` and stores it. A full slab
/// is walked column by column into a zeroed `ve`. Either way output `i` is
/// still one chain over `j` ascending from `+0.0`.
///
/// `ND > 0`: a row of nd ≤ 12 is too short a chain to hide the fmadd
/// latency and the loop control around it, so both loops have constant
/// trip counts for the compiler to unroll: per tile the `ND` `ue` rows are
/// loaded into registers once, consecutive rows' chains overlap, and the
/// triangle split folds into constant slots.
#[inline(always)]
fn emv_batch_body<
    L: Lane,
    const PACKED: bool,
    const ND: usize,
    const NVEC: usize,
    const BW: usize,
>(
    lane: L,
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    let nd = if ND == 0 { nd } else { ND };
    let bw = if BW == 0 { bw } else { BW };
    let nvec = if NVEC == 0 { nvec } else { NVEC };
    // Tile groups per panel row (batch lanes with their own `Ke` entry),
    // tiles per group, and chunks per panel row.
    let groups = if NVEC == 1 { 1 } else { bw };
    let tiles = if NVEC == 1 { bw } else { nvec } / L::W;
    let row = groups * tiles;
    if ND == 0 && !PACKED {
        ve.fill(0.0);
    }
    let keb = &keb[..slab_len(nd, bw, PACKED)];
    let u = &L::chunks(ue)[..nd * row];
    let v = &mut L::chunks_mut(ve)[..nd * row];
    if ND > 0 {
        // Indexed, not sliced per slot: with `BW` and `NVEC` fixed too,
        // every index is a constant once the nest unrolls, and a slice per
        // slot keeps the compiler from unrolling it.
        let kc = L::chunks(keb);
        for g in 0..groups {
            for t in 0..tiles {
                let at = g * tiles + t;
                let mut u_j = [lane.splat(0.0); ND];
                for j in 0..ND {
                    u_j[j] = lane.load(&u[j * row + at]);
                }
                for i in 0..ND {
                    let mut acc = lane.splat(0.0);
                    for j in 0..ND {
                        let s = if !PACKED {
                            j * ND + i
                        } else if j <= i {
                            tri(i) + j
                        } else {
                            tri(j) + i
                        };
                        let k = if NVEC == 1 {
                            lane.load(&kc[s * tiles + t])
                        } else {
                            lane.splat(keb[s * bw + g])
                        };
                        acc = lane.fmadd(k, u_j[j], acc);
                    }
                    lane.store(&mut v[i * row + at], acc);
                }
            }
        }
    } else if PACKED {
        for r in 0..nd {
            let (k_lo, k_rr) = keb[tri(r) * bw..tri(r + 1) * bw].split_at(r * bw);
            let (v_lo, v_r) = v.split_at_mut(r * row);
            let (u_r, v_r) = (&u[r * row..][..row], &mut v_r[..row]);
            for g in 0..groups {
                let mut acc = lane.zeros();
                let acc = acc.as_mut();
                let mut ur = lane.zeros();
                let ur = ur.as_mut();
                for t in 0..tiles {
                    ur[t] = lane.load(&u_r[g * tiles + t]);
                }
                let rows = v_lo.chunks_exact_mut(row).zip(u.chunks_exact(row));
                for ((v_c, u_c), slot) in rows.zip(k_lo.chunks_exact(bw)) {
                    for t in 0..tiles {
                        let at = g * tiles + t;
                        let k = ke_operand::<L, NVEC>(lane, slot, g, t);
                        acc[t] = lane.fmadd(k, lane.load(&u_c[at]), acc[t]);
                        let out = &mut v_c[at];
                        lane.store(out, lane.fmadd(k, ur[t], lane.load(out)));
                    }
                }
                for t in 0..tiles {
                    let k = ke_operand::<L, NVEC>(lane, k_rr, g, t);
                    lane.store(&mut v_r[g * tiles + t], lane.fmadd(k, ur[t], acc[t]));
                }
            }
        }
    } else {
        for j in 0..nd {
            let k_j = &keb[j * nd * bw..][..nd * bw];
            let u_j = &u[j * row..][..row];
            for g in 0..groups {
                let mut uj = lane.zeros();
                let uj = uj.as_mut();
                for t in 0..tiles {
                    uj[t] = lane.load(&u_j[g * tiles + t]);
                }
                for (v_i, slot) in v.chunks_exact_mut(row).zip(k_j.chunks_exact(bw)) {
                    for t in 0..tiles {
                        let at = g * tiles + t;
                        let k = ke_operand::<L, NVEC>(lane, slot, g, t);
                        let out = &mut v_i[at];
                        lane.store(out, lane.fmadd(k, uj[t], lane.load(out)));
                    }
                }
            }
        }
    }
}

/// The `Ke` operand of tile `t` of group `g` from one slab slot (its `bw`
/// doubles, one per batch lane): a chunk of `W` lanes' entries for the
/// single-vector product, lane `g`'s entry broadcast for the SpMM.
#[inline(always)]
fn ke_operand<L: Lane, const NVEC: usize>(lane: L, slot: &[f64], g: usize, t: usize) -> L::V {
    if NVEC == 1 {
        lane.load(&L::chunks(slot)[t])
    } else {
        lane.splat(slot[g])
    }
}

/// One batched product on lane type `L`: pins the lengths the body
/// assumes, then picks its instantiation from the batch width, the slab
/// layout and `nd`. `nd` is a constant for the element dimensions of the
/// scalar and vector problems on Tet4 / Hex8 / Tet10; above them unrolling
/// stops paying (DESIGN.md §8), so every other `nd` takes `ND = 0`.
///
/// # Panics
/// If a panel is not `nd·bw·nvec` long, if the lanes do not tile the batch
/// (`NVEC = 1`) or the columns, if `nvec` is not the `NVEC` asked for, or
/// if the slab is neither layout's length.
#[inline(always)]
fn emv_batch_on<L: Lane, const NVEC: usize>(
    lane: L,
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    let () = L::ONE_VECTOR;
    let tiled = if NVEC == 1 { bw } else { nvec };
    assert!(
        (NVEC == 0 || nvec == NVEC)
            && ue.len() == nd * bw * nvec
            && ve.len() == nd * bw * nvec
            && tiled % L::W == 0,
        "panels do not fit nd={nd}, bw={bw}, nvec={nvec} on {}-lane vectors",
        L::W
    );
    if bw == FIXED_BATCH_WIDTH {
        emv_batch_shape::<L, NVEC, FIXED_BATCH_WIDTH>(lane, keb, ue, ve, nd, bw, nvec);
    } else {
        emv_batch_shape::<L, NVEC, 0>(lane, keb, ue, ve, nd, bw, nvec);
    }
}

/// The instantiation of the body for this slab layout and `nd`.
#[inline(always)]
fn emv_batch_shape<L: Lane, const NVEC: usize, const BW: usize>(
    lane: L,
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    let (k, u, v) = (keb, ue, ve);
    match (slab_is_packed(keb.len(), nd, bw), nd) {
        (true, 4) => emv_batch_body::<L, true, 4, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (true, 8) => emv_batch_body::<L, true, 8, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (true, 10) => emv_batch_body::<L, true, 10, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (true, 12) => emv_batch_body::<L, true, 12, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (true, _) => emv_batch_body::<L, true, 0, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (false, 4) => emv_batch_body::<L, false, 4, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (false, 8) => emv_batch_body::<L, false, 8, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (false, 10) => emv_batch_body::<L, false, 10, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (false, 12) => emv_batch_body::<L, false, 12, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
        (false, _) => emv_batch_body::<L, false, 0, NVEC, BW>(lane, k, u, v, nd, bw, nvec),
    }
}

/// The multivector product on lane type `L`: [`FIXED_NVEC_WIDTH`] is a
/// constant, every other `nvec` is read at run time.
#[inline(always)]
fn emv_batch_mv_on<L: Lane>(
    lane: L,
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    if nvec == FIXED_NVEC_WIDTH {
        emv_batch_on::<L, FIXED_NVEC_WIDTH>(lane, keb, ue, ve, nd, bw, nvec);
    } else {
        emv_batch_on::<L, 0>(lane, keb, ue, ve, nd, bw, nvec);
    }
}

/// Portable batched kernel: scalar lanes; the lane loops autovectorize.
pub fn emv_batch_portable(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    emv_batch_on::<_, 1>(lanes::Cpu::<f64>::proof(), keb, ue, ve, nd, bw, 1);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    #[target_feature(enable = "avx2,fma")]
    fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
        emv_batch_on::<_, 1>(lanes::Cpu::<__m256d>::proof(), keb, ue, ve, nd, bw, 1);
    }
    // SAFETY: dispatch guarantees avx2+fma are available.
    unsafe { isa(keb, ue, ve, nd, bw) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    #[target_feature(enable = "avx512f")]
    fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
        emv_batch_on::<_, 1>(lanes::Cpu::<__m512d>::proof(), keb, ue, ve, nd, bw, 1);
    }
    // SAFETY: dispatch guarantees avx512f is available.
    unsafe { isa(keb, ue, ve, nd, bw) }
}

/// FLOPs of one batched EMV: `2·nd²·bw` (every lane does a full EMV).
pub fn emv_batch_flops(nd: usize, bw: usize) -> u64 {
    emv_flops(nd) * bw as u64
}

/// Gather an input panel through its index table: `ue[t] = data[gi[t]]`.
/// With AVX-512F eight lanes are one hardware gather and one 64-byte store
/// (which the kernel's 64-byte load of that row can forward from, as eight
/// 8-byte stores cannot); other CPUs keep the scalar loop. Either way an
/// index past `data` panics before it is read.
#[inline]
pub fn gather_panel(data: &[f64], gi: &[u32], ue: &mut [f64]) {
    assert_eq!(gi.len(), ue.len(), "index table and panel differ in length");
    #[cfg(target_arch = "x86_64")]
    if isa_for(ANY_WIDTH) == Isa::Avx512 {
        // SAFETY: `isa_for` found AVX-512F.
        #[allow(unsafe_code)]
        return unsafe { gather_panel_avx512(data, gi, ue) };
    }
    for (u, &r) in ue.iter_mut().zip(gi) {
        *u = data[r as usize];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gather_panel_avx512(data: &[f64], gi: &[u32], ue: &mut [f64]) {
    let lane = lanes::Cpu::<__m512d>::proof();
    let (gi8, gi_tail) = gi.as_chunks::<8>();
    let (ue8, ue_tail) = ue.as_chunks_mut::<8>();
    for (u, g) in ue8.iter_mut().zip(gi8) {
        lane.store(u, lane.gather(data, g));
    }
    for (u, &r) in ue_tail.iter_mut().zip(gi_tail) {
        *u = data[r as usize];
    }
}

/// Interleave one element's column-major `nd × nd` matrix into lane `b` of
/// a batch-interleaved slab, in the layout the slab's length selects.
///
/// A packed slab can only hold a bitwise-symmetric matrix. The packing pass
/// reads both triangles anyway, so it checks: the return value is `false`
/// when `ke[j*nd + i]` and `ke[i*nd + j]` differ in any bit for some pair.
/// The lane then holds the lower triangle only and the caller must fall
/// back to full slabs. A full slab takes any matrix and returns `true`.
pub fn interleave_ke(ke: &[f64], keb: &mut [f64], nd: usize, bw: usize, b: usize) -> bool {
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert!(b < bw);
    if !slab_is_packed(keb.len(), nd, bw) {
        for (idx, &v) in ke.iter().enumerate() {
            keb[idx * bw + b] = v;
        }
        return true;
    }
    let mut symmetric = true;
    let mut s = 0;
    for hi in 0..nd {
        for lo in 0..=hi {
            let v = ke[lo * nd + hi];
            symmetric &= v.to_bits() == ke[hi * nd + lo].to_bits();
            keb[s * bw + b] = v;
            s += 1;
        }
    }
    symmetric
}

/// The inverse of [`interleave_ke`]: write lane `b` of a batch-interleaved
/// slab back into a column-major `nd × nd` matrix, in the layout the slab's
/// length selects. A packed lane is mirrored into both triangles, which is
/// exact: a packed slab only ever holds bitwise-symmetric matrices.
pub fn deinterleave_ke(keb: &[f64], ke: &mut [f64], nd: usize, bw: usize, b: usize) {
    assert_eq!(ke.len(), nd * nd, "matrix buffer does not fit nd={nd}");
    debug_assert!(b < bw);
    if !slab_is_packed(keb.len(), nd, bw) {
        for (idx, v) in ke.iter_mut().enumerate() {
            *v = keb[idx * bw + b];
        }
        return;
    }
    let mut s = 0;
    for hi in 0..nd {
        for lo in 0..=hi {
            let v = keb[s * bw + b];
            ke[lo * nd + hi] = v;
            ke[hi * nd + lo] = v;
            s += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Multivector batched EMV (SpMM): `Ve = Ke_b · Ue` for `nvec` right-hand
// sides at once.
//
// Layouts (all contiguous, column-minor panels):
//   keb[slot(i,j)*bw + b]       — the same batch-interleaved slab as
//                                 `emv_batch`, full or packed (no
//                                 re-interleave for SpMM),
//   ue [(j*bw + b)*nvec + c]    — input panel, nd × bw × nvec,
//   ve [(i*bw + b)*nvec + c]    — output panel, nd × bw × nvec.
//
// (at nvec = 1 these are the single-vector panels). The kernels are
// `emv_batch_body` with `NVEC ≠ 1`: vectorization runs **across the
// vector columns `c`**, whose `nvec` values of one (dof, lane) pair are
// contiguous, so every `ue`/`ve` access is a unit-stride full vector. A
// `Ke` entry is read once for its lane and broadcast to all `nvec`
// columns — which is the whole point: the batched EMV pipeline is
// bandwidth-bound on `Ke` slab traffic, and the multivector product
// amortizes that traffic over `nvec` solves.
// ---------------------------------------------------------------------------

/// Maximum supported multivector width: the run-time-`nd` schedule keeps
/// the `nvec / W` tiles of one output row in at most eight accumulators,
/// so 32 columns on AVX2 (and AVX-512), and the portable lane's
/// accumulator array is larger still.
pub const MAX_NVEC_WIDTH: usize = 32;

/// The one multivector width with fixed-shape code (the SpMM body's `NVEC`
/// and `BlockSet`'s whole-row panel moves); every other width is read at
/// run time. It serves the solve service's block-CG batches, whose default
/// width `hymv_core::DEFAULT_NVEC_WIDTH` is defined as this (DESIGN.md §13
/// measures what it buys).
pub const FIXED_NVEC_WIDTH: usize = 8;

/// The multivector batched EMV kernel signature
/// (`keb`, `ue`, `ve`, `nd`, `bw`, `nvec`).
pub type EmvBatchMvKernel = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

/// Pick the best multivector batched-EMV variant for this CPU and
/// multivector width. The SIMD variants vectorize across the `nvec`
/// column dimension, so they require `nvec` to be a multiple of the
/// vector width; other widths fall back to the portable kernel.
pub fn select_batch_mv_kernel(nvec: usize) -> EmvBatchMvKernel {
    assert!(
        nvec >= 1 && nvec <= MAX_NVEC_WIDTH,
        "multivector width {nvec} outside 1..={MAX_NVEC_WIDTH}"
    );
    match isa_for(nvec) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => emv_batch_mv_avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => emv_batch_mv_avx2,
        _ => emv_batch_mv_portable,
    }
}

/// Name of the dispatched multivector-kernel variant (for experiment logs).
pub fn emv_batch_mv_kernel_name(nvec: usize) -> &'static str {
    isa_name!(isa_for(nvec), "mv-")
}

/// Portable multivector kernel: scalar lanes. Per vector column this is
/// the multiply-add chain of [`emv_batch_portable`], so a width-`nvec`
/// product reproduces `nvec` sequential batched EMVs bitwise.
pub fn emv_batch_mv_portable(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    emv_batch_mv_on(lanes::Cpu::<f64>::proof(), keb, ue, ve, nd, bw, nvec);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    #[target_feature(enable = "avx2,fma")]
    fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
        emv_batch_mv_on(lanes::Cpu::<__m256d>::proof(), keb, ue, ve, nd, bw, nvec);
    }
    // SAFETY: dispatch guarantees avx2+fma are available.
    unsafe { isa(keb, ue, ve, nd, bw, nvec) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    #[target_feature(enable = "avx512f")]
    fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
        emv_batch_mv_on(lanes::Cpu::<__m512d>::proof(), keb, ue, ve, nd, bw, nvec);
    }
    // SAFETY: dispatch guarantees avx512f is available.
    unsafe { isa(keb, ue, ve, nd, bw, nvec) }
}

/// FLOPs of one multivector batched EMV: `2·nd²·bw·nvec`.
pub fn emv_batch_mv_flops(nd: usize, bw: usize, nvec: usize) -> u64 {
    emv_batch_flops(nd, bw) * nvec as u64
}

/// FLOPs of one EMV: `2·nd²` (multiply + add per matrix entry).
pub fn emv_flops(nd: usize) -> u64 {
    2 * (nd as u64) * (nd as u64)
}

/// Dense Gaussian-elimination solve with partial pivoting, used by tests
/// and tiny reference computations. `a` is column-major `n × n`, consumed.
pub fn solve_dense(mut a: Vec<f64>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    assert_eq!(a.len(), n * n);
    for k in 0..n {
        // Pivot.
        let piv = (k..n)
            .max_by(|&i, &j| {
                a[k * n + i]
                    .abs()
                    .partial_cmp(&a[k * n + j].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if piv != k {
            for j in 0..n {
                a.swap(j * n + k, j * n + piv);
            }
            b.swap(k, piv);
        }
        let d = a[k * n + k];
        assert!(d.abs() > 1e-300, "singular matrix in solve_dense");
        for i in k + 1..n {
            let f = a[k * n + i] / d;
            if f != 0.0 {
                for j in k..n {
                    a[j * n + i] -= f * a[j * n + k];
                }
                b[i] -= f * b[k];
            }
        }
    }
    for k in (0..n).rev() {
        let mut s = b[k];
        for j in k + 1..n {
            s -= a[j * n + k] * b[j];
        }
        b[k] = s / a[k * n + k];
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference for one lane of a batch: per-element EMV on de-interleaved
    /// data.
    fn batch_reference(keb: &[f64], ue: &[f64], nd: usize, bw: usize, b: usize) -> Vec<f64> {
        let ke: Vec<f64> = (0..nd * nd).map(|idx| keb[idx * bw + b]).collect();
        let u: Vec<f64> = (0..nd).map(|j| ue[j * bw + b]).collect();
        let mut v = vec![0.0; nd];
        emv_portable(&ke, &u, &mut v);
        v
    }

    #[test]
    fn batch_variants_agree_with_per_element() {
        let mut rng = StdRng::seed_from_u64(9);
        for nd in [1usize, 3, 4, 8, 20, 24, 27, 60, 81] {
            for bw in [1usize, 2, 3, 4, 5, 8, 16, 32, 64] {
                let keb: Vec<f64> = (0..nd * nd * bw)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();

                let mut variants: Vec<(&str, EmvBatchKernel)> =
                    vec![("portable", emv_batch_portable as EmvBatchKernel)];
                #[cfg(target_arch = "x86_64")]
                {
                    if bw % 4 == 0
                        && bw <= 32
                        && is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                    {
                        variants.push(("avx2", emv_batch_avx2));
                    }
                    if bw % 8 == 0 && bw <= 64 && is_x86_feature_detected!("avx512f") {
                        variants.push(("avx512", emv_batch_avx512));
                    }
                }
                variants.push(("dispatched", select_batch_kernel(bw)));

                for (name, kern) in variants {
                    let mut ve = vec![9.0; nd * bw]; // must be overwritten
                    kern(&keb, &ue, &mut ve, nd, bw);
                    for b in 0..bw {
                        let v_ref = batch_reference(&keb, &ue, nd, bw, b);
                        for i in 0..nd {
                            assert!(
                                (ve[i * bw + b] - v_ref[i]).abs() < 1e-12,
                                "{name} nd={nd} bw={bw} lane={b} row={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Extract one vector column of a multivector panel into the plain
    /// `nd × bw` panel layout.
    fn mv_column(panel: &[f64], nd: usize, bw: usize, nvec: usize, c: usize) -> Vec<f64> {
        (0..nd * bw).map(|s| panel[s * nvec + c]).collect()
    }

    #[test]
    fn mv_variants_agree_with_per_column_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for nd in [1usize, 3, 8, 20, 60] {
            for bw in [1usize, 3, 5, 8] {
                for nvec in [1usize, 2, 3, 4, 5, 8, 16, 32] {
                    let keb: Vec<f64> = (0..nd * nd * bw)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    let ue: Vec<f64> = (0..nd * bw * nvec)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();

                    let mut variants: Vec<(&str, EmvBatchMvKernel)> = vec![
                        ("mv-portable", emv_batch_mv_portable as EmvBatchMvKernel),
                        ("mv-dispatched", select_batch_mv_kernel(nvec)),
                    ];
                    #[cfg(target_arch = "x86_64")]
                    {
                        if nvec % 4 == 0
                            && is_x86_feature_detected!("avx2")
                            && is_x86_feature_detected!("fma")
                        {
                            variants.push(("mv-avx2", emv_batch_mv_avx2));
                        }
                        if nvec % 8 == 0 && is_x86_feature_detected!("avx512f") {
                            variants.push(("mv-avx512", emv_batch_mv_avx512));
                        }
                    }

                    for (name, kern) in variants {
                        let mut ve = vec![9.0; nd * bw * nvec]; // must be overwritten
                        kern(&keb, &ue, &mut ve, nd, bw, nvec);
                        for c in 0..nvec {
                            let uc = mv_column(&ue, nd, bw, nvec, c);
                            for b in 0..bw {
                                let v_ref = batch_reference(&keb, &uc, nd, bw, b);
                                for i in 0..nd {
                                    let got = ve[(i * bw + b) * nvec + c];
                                    assert!(
                                        (got - v_ref[i]).abs() < 1e-12,
                                        "{name} nd={nd} bw={bw} nvec={nvec} col={c} lane={b} row={i}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Per vector column, the multivector kernels run the exact reduction
    /// order of the corresponding single-vector batch kernel (fmadd chain
    /// over j for the SIMD variants, mul+add chain for the portables), so
    /// an SpMM must reproduce `nvec` sequential batched EMVs **bitwise**
    /// when both sides dispatch to the same arithmetic class.
    #[test]
    fn mv_bitwise_matches_sequential_columns() {
        let mut rng = StdRng::seed_from_u64(33);
        for (nd, bw, nvec) in [(3usize, 3usize, 3usize), (8, 8, 5), (20, 5, 7), (60, 3, 2)] {
            let keb: Vec<f64> = (0..nd * nd * bw)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let ue: Vec<f64> = (0..nd * bw * nvec)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut ve = vec![0.0; nd * bw * nvec];
            emv_batch_mv_portable(&keb, &ue, &mut ve, nd, bw, nvec);
            for c in 0..nvec {
                let uc = mv_column(&ue, nd, bw, nvec, c);
                let mut vc = vec![0.0; nd * bw];
                emv_batch_portable(&keb, &uc, &mut vc, nd, bw);
                for s in 0..nd * bw {
                    assert_eq!(
                        ve[s * nvec + c].to_bits(),
                        vc[s].to_bits(),
                        "portable nd={nd} bw={bw} nvec={nvec} col={c} slot={s}"
                    );
                }
            }
        }

        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            for (nd, bw, nvec) in [(8usize, 4usize, 4usize), (20, 8, 8), (60, 4, 16)] {
                let keb: Vec<f64> = (0..nd * nd * bw)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let ue: Vec<f64> = (0..nd * bw * nvec)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let mut ve = vec![0.0; nd * bw * nvec];
                emv_batch_mv_avx2(&keb, &ue, &mut ve, nd, bw, nvec);
                for c in 0..nvec {
                    let uc = mv_column(&ue, nd, bw, nvec, c);
                    let mut vc = vec![0.0; nd * bw];
                    emv_batch_avx2(&keb, &uc, &mut vc, nd, bw);
                    for s in 0..nd * bw {
                        assert_eq!(
                            ve[s * nvec + c].to_bits(),
                            vc[s].to_bits(),
                            "avx2 nd={nd} bw={bw} nvec={nvec} col={c} slot={s}"
                        );
                    }
                }
            }
        }
    }

    /// `bw` exactly symmetric random matrices (the last `pad` lanes zero,
    /// like a ragged tail block) interleaved into a full and a packed slab.
    fn symmetric_slabs(nd: usize, bw: usize, pad: usize, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
        let mut full = vec![0.0; slab_len(nd, bw, false)];
        let mut packed = vec![0.0; slab_len(nd, bw, true)];
        for b in 0..bw - pad {
            let mut ke = vec![0.0; nd * nd];
            for hi in 0..nd {
                for lo in 0..=hi {
                    let v = rng.gen_range(-1.0..1.0);
                    ke[lo * nd + hi] = v;
                    ke[hi * nd + lo] = v;
                }
            }
            assert!(interleave_ke(&ke, &mut full, nd, bw, b));
            assert!(interleave_ke(&ke, &mut packed, nd, bw, b));
        }
        (full, packed)
    }

    /// The packed layout changes where an entry is read from, never what
    /// is multiplied or in which order: every batch kernel gives the bits
    /// of its own full-layout run.
    #[test]
    fn packed_slab_matches_full_slab_bitwise() {
        let mut rng = StdRng::seed_from_u64(57);
        for nd in [1usize, 2, 3, 8, 10, 24, 60] {
            for (bw, pad) in [(1usize, 0usize), (3, 1), (8, 0), (8, 5), (16, 3)] {
                let (full, packed) = symmetric_slabs(nd, bw, pad, &mut rng);
                assert_eq!(packed.len(), nd * (nd + 1) / 2 * bw);
                let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();

                let mut variants: Vec<(&str, EmvBatchKernel)> = vec![
                    ("portable", emv_batch_portable as EmvBatchKernel),
                    ("dispatched", select_batch_kernel(bw)),
                ];
                #[cfg(target_arch = "x86_64")]
                {
                    if bw % 4 == 0
                        && is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                    {
                        variants.push(("avx2", emv_batch_avx2));
                    }
                    if bw % 8 == 0 && is_x86_feature_detected!("avx512f") {
                        variants.push(("avx512", emv_batch_avx512));
                    }
                }
                for (name, kern) in variants {
                    let (mut vf, mut vp) = (vec![9.0; nd * bw], vec![7.0; nd * bw]);
                    kern(&full, &ue, &mut vf, nd, bw);
                    kern(&packed, &ue, &mut vp, nd, bw);
                    for (t, (a, b)) in vf.iter().zip(&vp).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{name} nd={nd} bw={bw} slot={t}");
                    }
                }

                for nvec in [3usize, 8] {
                    let ue: Vec<f64> = (0..nd * bw * nvec)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    let mut variants: Vec<(&str, EmvBatchMvKernel)> = vec![
                        ("mv-portable", emv_batch_mv_portable as EmvBatchMvKernel),
                        ("mv-dispatched", select_batch_mv_kernel(nvec)),
                    ];
                    #[cfg(target_arch = "x86_64")]
                    {
                        if nvec % 4 == 0
                            && is_x86_feature_detected!("avx2")
                            && is_x86_feature_detected!("fma")
                        {
                            variants.push(("mv-avx2", emv_batch_mv_avx2));
                        }
                        if nvec % 8 == 0 && is_x86_feature_detected!("avx512f") {
                            variants.push(("mv-avx512", emv_batch_mv_avx512));
                        }
                    }
                    for (name, kern) in variants {
                        let len = nd * bw * nvec;
                        let (mut vf, mut vp) = (vec![9.0; len], vec![7.0; len]);
                        kern(&full, &ue, &mut vf, nd, bw, nvec);
                        kern(&packed, &ue, &mut vp, nd, bw, nvec);
                        for (t, (a, b)) in vf.iter().zip(&vp).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{name} nd={nd} bw={bw} nvec={nvec} slot={t}"
                            );
                        }
                    }
                }
            }
        }
    }

    type BodyFn = unsafe fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

    /// `(PACKED, ND, NVEC, run::<PACKED, ND, NVEC>)` for every `ND` the
    /// dispatcher names.
    macro_rules! each_nd {
        ($run:ident, $packed:literal, $nvec:tt) => {
            [
                ($packed, 0, $nvec, $run::<$packed, 0, $nvec> as BodyFn),
                ($packed, 4, $nvec, $run::<$packed, 4, $nvec> as BodyFn),
                ($packed, 8, $nvec, $run::<$packed, 8, $nvec> as BodyFn),
                ($packed, 10, $nvec, $run::<$packed, 10, $nvec> as BodyFn),
                ($packed, 12, $nvec, $run::<$packed, 12, $nvec> as BodyFn),
            ]
        };
    }

    /// Every instantiation of `emv_batch_body` the entry points dispatch to
    /// for one lane type, as `(PACKED, ND, NVEC, fn)`, each compiled under
    /// the lane's ISA; `fn` takes [`FIXED_BATCH_WIDTH`] as the constant
    /// `BW` and reads every other batch width at run time.
    macro_rules! instantiations {
        ($lane:ty $(, $feature:literal)?) => {{
            $(#[target_feature(enable = $feature)])?
            fn run<const PACKED: bool, const ND: usize, const NVEC: usize>(
                keb: &[f64],
                ue: &[f64],
                ve: &mut [f64],
                nd: usize,
                bw: usize,
                nvec: usize,
            ) {
                let lane = lanes::Cpu::<$lane>::proof();
                if bw == FIXED_BATCH_WIDTH {
                    emv_batch_body::<_, PACKED, ND, NVEC, FIXED_BATCH_WIDTH>(
                        lane, keb, ue, ve, nd, bw, nvec,
                    );
                } else {
                    emv_batch_body::<_, PACKED, ND, NVEC, 0>(lane, keb, ue, ve, nd, bw, nvec);
                }
            }
            [
                each_nd!(run, false, 1),
                each_nd!(run, true, 1),
                each_nd!(run, false, FIXED_NVEC_WIDTH),
                each_nd!(run, true, FIXED_NVEC_WIDTH),
                each_nd!(run, false, 0),
                each_nd!(run, true, 0),
            ]
            .concat()
        }};
    }

    /// The reference batched product, in the loop order of the separate
    /// multivector kernels `emv_batch_body` replaced: `j` outer so the slab
    /// streams once, every output accumulated in memory from zero. At
    /// `nvec = 1` it is the single-vector product. `fused` rounds each
    /// multiply-add once, as the SIMD lanes' fmadd does.
    fn trio_reference(
        keb: &[f64],
        ue: &[f64],
        nd: usize,
        bw: usize,
        nvec: usize,
        fused: bool,
    ) -> Vec<f64> {
        let packed = slab_is_packed(keb.len(), nd, bw);
        let mut ve = vec![0.0; nd * bw * nvec];
        for j in 0..nd {
            for i in 0..nd {
                let s = if !packed {
                    j * nd + i
                } else if j <= i {
                    tri(i) + j
                } else {
                    tri(j) + i
                };
                for b in 0..bw {
                    let kb = keb[s * bw + b];
                    let u = &ue[(j * bw + b) * nvec..(j * bw + b + 1) * nvec];
                    let v = &mut ve[(i * bw + b) * nvec..(i * bw + b + 1) * nvec];
                    for (vc, &uc) in v.iter_mut().zip(u) {
                        *vc = if fused {
                            kb.mul_add(uc, *vc)
                        } else {
                            *vc + kb * uc
                        };
                    }
                }
            }
        }
        ve
    }

    /// The folded body changes the schedule, never the arithmetic: every
    /// instantiation (`ND` fixed or not, `NVEC` 1, [`FIXED_NVEC_WIDTH`] or
    /// read at run time, both layouts) on every ISA of the CPU running the
    /// test gives the bits of the trio's portable loop — fused on the SIMD
    /// lanes — with zero-padded tail lanes, one and several tiles per row,
    /// and, where `nd` is read at run time, every `nd` the element kernels
    /// ship above the fixed ones (24 and 60) besides the edge cases.
    #[test]
    #[allow(unsafe_code)] // SAFETY: comment at the one unsafe block below
    fn every_instantiation_matches_the_trio_reference_bitwise() {
        let mut lanes: Vec<(&str, usize, Vec<(bool, usize, usize, BodyFn)>)> =
            vec![("portable", 1, instantiations!(f64))];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{__m256d, __m512d};
            if isa_for(4) == Isa::Avx2 || isa_for(8) == Isa::Avx512 {
                lanes.push(("avx2", 4, instantiations!(__m256d, "avx2,fma")));
            }
            if isa_for(8) == Isa::Avx512 {
                lanes.push(("avx512", 8, instantiations!(__m512d, "avx512f")));
            }
        }
        let mut rng = StdRng::seed_from_u64(2009);
        let mut compared = 0;
        for (isa, w, table) in &lanes {
            for &(packed, fixed_nd, fixed_nvec, body) in table {
                let nds: &[usize] = if fixed_nd == 0 {
                    &[1, 3, 8, 13, 24, 60]
                } else {
                    &[fixed_nd]
                };
                let nvecs = match fixed_nvec {
                    0 => vec![*w, 3 * w],
                    n => vec![n],
                };
                for &nd in nds {
                    for &nvec in &nvecs {
                        // The single-vector body tiles the batch, so `bw` is
                        // a multiple of the lanes there.
                        let shapes: &[(usize, usize)] = if fixed_nvec == 1 {
                            &[(8, 0), (8, 3), (16, 5)]
                        } else {
                            &[(3, 1), (8, 0), (8, 5)]
                        };
                        for &(bw, pad) in shapes {
                            let (full, packed_slab) = symmetric_slabs(nd, bw, pad, &mut rng);
                            let keb = if packed { &packed_slab } else { &full };
                            let len = nd * bw * nvec;
                            let ue: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                            let mut ve = vec![9.0; len];
                            // SAFETY: the lane's ISA was detected above; the
                            // slab and panels have the lengths the body
                            // asserts, and `W` divides what it tiles.
                            unsafe { body(keb, &ue, &mut ve, nd, bw, nvec) };
                            let want = trio_reference(keb, &ue, nd, bw, nvec, *w > 1);
                            for (t, (a, b)) in ve.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{isa} packed={packed} ND={fixed_nd} NVEC={fixed_nvec} \
                                     nd={nd} nvec={nvec} bw={bw} pad={pad} slot={t}"
                                );
                            }
                            compared += 1;
                        }
                    }
                }
            }
        }
        // Per lane type: NVEC ∈ {1, FIXED_NVEC_WIDTH} × 2 layouts × (4 fixed + 6 run-time
        // `nd`) × 3 shapes, and NVEC = 0 twice that (two widths).
        assert_eq!(compared, lanes.len() * 2 * 2 * 10 * 3 * 2);
    }

    /// The vector gather is the scalar loop: same values for any table
    /// length (rows of eight and a tail), repeated and zero indices
    /// included.
    #[test]
    fn gather_panel_equals_indexing() {
        let mut rng = StdRng::seed_from_u64(88);
        let data: Vec<f64> = (0..37).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for n in [0usize, 1, 7, 8, 9, 24, 30, 80] {
            let mut gi: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..data.len() as u32))
                .collect();
            if n > 2 {
                gi[n - 1] = 0; // a padded lane
                gi[1] = data.len() as u32 - 1; // the last slot is in range
            }
            let mut ue = vec![f64::NAN; n];
            gather_panel(&data, &gi, &mut ue);
            for (t, (&u, &r)) in ue.iter().zip(&gi).enumerate() {
                assert_eq!(u.to_bits(), data[r as usize].to_bits(), "n={n} slot={t}");
            }
        }
    }

    /// One index past the data in the middle of a row of eight: the whole
    /// row is refused, on the vector path as on the scalar one.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_panel_rejects_an_out_of_range_index() {
        let data = vec![1.0; 10];
        let mut gi = vec![0u32; 16];
        gi[11] = 10;
        let mut ue = vec![0.0; 16];
        gather_panel(&data, &gi, &mut ue);
    }

    /// Indices a 32-bit sign extension would turn negative are out of
    /// range like any other, not a read before the slice.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_panel_rejects_indices_with_the_sign_bit_set() {
        let data = vec![1.0; 10];
        let gi = vec![u32::MAX; 8];
        let mut ue = vec![0.0; 8];
        gather_panel(&data, &gi, &mut ue);
    }

    /// One ulp of asymmetry is asymmetry: packing reports it (HYMV never
    /// alters a user's matrix, so there is no tolerance), a full slab
    /// takes the matrix as it is.
    #[test]
    fn packing_reports_bitwise_asymmetry() {
        let (nd, bw) = (5, 4);
        let mut ke = vec![0.0; nd * nd];
        for hi in 0..nd {
            for lo in 0..=hi {
                let v = 1.0 + (hi * nd + lo) as f64 / 7.0;
                ke[lo * nd + hi] = v;
                ke[hi * nd + lo] = v;
            }
        }
        let mut packed = vec![0.0; slab_len(nd, bw, true)];
        let mut full = vec![0.0; slab_len(nd, bw, false)];
        assert!(interleave_ke(&ke, &mut packed, nd, bw, 2));
        ke[3 * nd + 1] = f64::from_bits(ke[3 * nd + 1].to_bits() + 1);
        assert!(!interleave_ke(&ke, &mut packed, nd, bw, 2));
        assert!(interleave_ke(&ke, &mut full, nd, bw, 2));
        assert_eq!(full[(3 * nd + 1) * bw + 2], ke[3 * nd + 1]);
        // -0.0 == 0.0 numerically, but the bits differ.
        ke[3 * nd + 1] = 0.0;
        ke[nd + 3] = -0.0;
        assert!(!interleave_ke(&ke, &mut packed, nd, bw, 2));
    }

    #[test]
    #[should_panic(expected = "neither full nor packed")]
    fn slab_one_short_of_full_rejected() {
        let (nd, bw) = (4usize, 8usize);
        let keb = vec![0.0; slab_len(nd, bw, false) - 1];
        let (ue, mut ve) = (vec![0.0; nd * bw], vec![0.0; nd * bw]);
        select_batch_kernel(bw)(&keb, &ue, &mut ve, nd, bw);
    }

    #[test]
    #[should_panic(expected = "neither full nor packed")]
    fn in_between_slab_length_rejected() {
        let (nd, bw) = (4usize, 8usize);
        let keb = vec![0.0; slab_len(nd, bw, true) + bw];
        let (ue, mut ve) = (vec![0.0; nd * bw], vec![0.0; nd * bw]);
        select_batch_kernel(bw)(&keb, &ue, &mut ve, nd, bw);
    }

    /// A panel one double short of `nd = 4`, `bw = 8`, `nvec` columns,
    /// with a full slab: what every kernel entry must refuse in release
    /// builds too, before any lane chunk is split from it.
    fn short_panels(nvec: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let len = 4 * 8 * nvec;
        (
            vec![0.0; slab_len(4, 8, false)],
            vec![0.0; len],
            vec![0.0; len - 1],
        )
    }

    /// `simd` where the CPU running the test has `isa`, else the portable
    /// entry of the same family (which refuses the same inputs with the
    /// same message).
    #[cfg(target_arch = "x86_64")]
    fn on_host<K>(width: usize, isa: Isa, simd: K, portable: K) -> K {
        if isa_for(width) == isa {
            simd
        } else {
            portable
        }
    }

    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_portable_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(1);
        emv_batch_portable(&keb, &ue, &mut ve, 4, 8);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_avx2_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(1);
        let kernel: EmvBatchKernel = on_host(4, Isa::Avx2, emv_batch_avx2, emv_batch_portable);
        kernel(&keb, &ue, &mut ve, 4, 8);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_avx512_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(1);
        let kernel: EmvBatchKernel = on_host(8, Isa::Avx512, emv_batch_avx512, emv_batch_portable);
        kernel(&keb, &ue, &mut ve, 4, 8);
    }

    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_mv_portable_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(3);
        emv_batch_mv_portable(&keb, &ue, &mut ve, 4, 8, 3);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_mv_avx2_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(4);
        let kernel: EmvBatchMvKernel =
            on_host(4, Isa::Avx2, emv_batch_mv_avx2, emv_batch_mv_portable);
        kernel(&keb, &ue, &mut ve, 4, 8, 4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "panels do not fit")]
    fn emv_batch_mv_avx512_refuses_a_short_panel() {
        let (keb, ue, mut ve) = short_panels(8);
        let kernel: EmvBatchMvKernel =
            on_host(8, Isa::Avx512, emv_batch_mv_avx512, emv_batch_mv_portable);
        kernel(&keb, &ue, &mut ve, 4, 8, 8);
    }

    /// A SIMD kernel selected for eight columns and called with three
    /// refuses them, instead of leaving the columns past its last whole
    /// vector unwritten. (A portable selection takes any width.)
    #[test]
    fn a_kernel_selected_for_eight_columns_refuses_three() {
        let kernel = select_batch_mv_kernel(8);
        let (keb, ue, mut ve) = short_panels(3);
        ve.push(0.0);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel(&keb, &ue, &mut ve, 4, 8, 3);
        }));
        assert_eq!(
            refused.is_err(),
            emv_batch_mv_kernel_name(8) != "mv-portable"
        );
    }

    #[test]
    #[should_panic(expected = "do not fit nd=4")]
    fn emv_portable_refuses_a_short_matrix() {
        emv_portable(&[0.0; 15], &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    fn mv_flops_formula() {
        assert_eq!(emv_batch_mv_flops(10, 8, 4), 6400);
        assert_eq!(emv_batch_mv_flops(10, 8, 1), emv_batch_flops(10, 8));
    }

    #[test]
    fn mv_kernel_name_reports_something() {
        for nvec in [1usize, 4, 8, 17] {
            let name = emv_batch_mv_kernel_name(nvec);
            assert!(["mv-avx512f", "mv-avx2+fma", "mv-portable"].contains(&name));
        }
    }

    #[test]
    #[should_panic(expected = "multivector width")]
    fn mv_width_bounds_checked() {
        select_batch_mv_kernel(MAX_NVEC_WIDTH + 1);
    }

    #[test]
    fn interleave_round_trips() {
        let nd = 4;
        let bw = 3;
        let mut rng = StdRng::seed_from_u64(11);
        let kes: Vec<Vec<f64>> = (0..bw)
            .map(|_| (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut keb = vec![0.0; nd * nd * bw];
        for (b, ke) in kes.iter().enumerate() {
            assert!(interleave_ke(ke, &mut keb, nd, bw, b));
        }
        for (b, ke) in kes.iter().enumerate() {
            for (idx, &v) in ke.iter().enumerate() {
                assert_eq!(keb[idx * bw + b], v);
            }
        }
    }

    /// `deinterleave_ke` undoes `interleave_ke` to the bit, on every lane
    /// of a slab, in both layouts: any matrix through a full slab, a
    /// bitwise-symmetric one through a packed slab (its mirror is exact).
    #[test]
    fn deinterleave_inverts_interleave_bitwise() {
        let mut rng = StdRng::seed_from_u64(26);
        for nd in [1usize, 8, 10, 24, 30, 60, 81] {
            for bw in [1usize, 8, 16] {
                for packed in [false, true] {
                    let mut keb = vec![0.0; slab_len(nd, bw, packed)];
                    let kes: Vec<Vec<f64>> = (0..bw)
                        .map(|_| {
                            let mut ke: Vec<f64> =
                                (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect();
                            if packed {
                                for hi in 0..nd {
                                    for lo in 0..hi {
                                        ke[hi * nd + lo] = ke[lo * nd + hi];
                                    }
                                }
                            }
                            ke
                        })
                        .collect();
                    for (b, ke) in kes.iter().enumerate() {
                        assert!(interleave_ke(ke, &mut keb, nd, bw, b));
                    }
                    let mut back = vec![f64::NAN; nd * nd];
                    for (b, ke) in kes.iter().enumerate() {
                        deinterleave_ke(&keb, &mut back, nd, bw, b);
                        let same = ke
                            .iter()
                            .zip(&back)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(same, "nd={nd} bw={bw} packed={packed} lane {b}");
                    }
                }
            }
        }
    }

    /// The store serves the read interface from its own memory.
    #[test]
    fn store_reads_borrow_and_collect_copies() {
        let mut store = ElementMatrixStore::new(2, 3);
        store.ke_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut scratch = [f64::NAN; 4];
        assert_eq!(store.ke_dim(), 2);
        assert_eq!(store.read_ke(1, &mut scratch), &[1.0, 2.0, 3.0, 4.0]);
        assert!(scratch.iter().all(|v| v.is_nan()), "no copy for a store");
        let copy = ElementMatrixStore::collect_from(&store, 3);
        for e in 0..3 {
            assert_eq!(copy.ke(e), store.ke(e));
        }
    }

    #[test]
    fn batch_flops_formula() {
        assert_eq!(emv_batch_flops(10, 8), 1600);
        assert_eq!(emv_batch_flops(10, 1), emv_flops(10));
    }

    #[test]
    fn batch_kernel_name_reports_something() {
        for bw in [1usize, 4, 8, 17] {
            let name = emv_batch_kernel_name(bw);
            assert!(["batch-avx512f", "batch-avx2+fma", "batch-portable"].contains(&name));
        }
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn batch_width_bounds_checked() {
        select_batch_kernel(MAX_BATCH_WIDTH + 1);
    }

    #[test]
    fn identity_matrix() {
        let nd = 5;
        let mut ke = vec![0.0; nd * nd];
        for i in 0..nd {
            ke[i * nd + i] = 1.0;
        }
        let ue = vec![1.0, -2.0, 3.0, -4.0, 5.0];
        let mut ve = vec![9.0; nd]; // must be overwritten
        emv_portable(&ke, &ue, &mut ve);
        assert_eq!(ve, ue);
    }

    #[test]
    fn store_layout_and_update() {
        let mut store = ElementMatrixStore::new(3, 4);
        assert_eq!(store.bytes(), 4 * 9 * 8);
        store.ke_mut(2)[4] = 7.0; // column 1, row 1 of element 2
        assert_eq!(store.ke(2)[4], 7.0);
        assert_eq!(store.ke(1)[4], 0.0);
        assert_eq!(store.nd(), 3);
        assert_eq!(store.n_elems(), 4);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(emv_flops(10), 200);
    }

    #[test]
    fn dense_solver_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 12;
        // SPD-ish: A = M + n·I keeps it well-conditioned.
        let mut a = vec![0.0; n * n];
        for v in a.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        for j in 0..n {
            for i in 0..n {
                b[i] += a[j * n + i] * x_true[j];
            }
        }
        let x = solve_dense(a, b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_detected() {
        let _ = solve_dense(vec![0.0; 4], vec![1.0, 1.0]);
    }
}
