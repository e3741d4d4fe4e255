//! Dense element-matrix storage and the vectorized EMV kernel.
//!
//! HYMV's central data structure is the array of locally-stored element
//! matrices, kept **column-major** so the elemental mat-vec
//! `ve = Σⱼ Ke[:,j] · ue[j]` (paper equation (4)) walks memory linearly and
//! vectorizes as a chain of axpy operations. The kernel is dispatched at
//! runtime: AVX-512F if the CPU has it, then AVX2+FMA, then a portable
//! chunked loop the autovectorizer handles well.
//!
//! All unchecked memory access in the SIMD kernels goes through the
//! [`lanes`] helpers, and every kernel carries a `prove-bounds` verify
//! marker: `hymv-verify effects` symbolically proves, from the
//! `debug_assert!` preconditions, that every lane access is in bounds
//! (tails included) for all `nd`/`bw`. Building with
//! `--features sanitize` swaps the helpers for checked shims that assert
//! the same bounds at runtime.

use std::sync::OnceLock;

/// Unchecked slice access at fixed SIMD lane widths — the only unsafe
/// memory primitives the EMV kernels may use (the bounds interpreter in
/// `hymv-verify` rejects anything else inside a `prove-bounds` kernel).
///
/// Each helper takes `(slice, at)` and touches `at..at + lanes`; the
/// caller owes the proof `at + lanes <= slice.len()`. Only *unaligned*
/// load/store forms exist, so the helpers have no alignment
/// preconditions. Under `--features sanitize` every call also asserts
/// its bounds at runtime (the CI sanitize job runs the la/core test
/// suites in this mode).
pub(crate) mod lanes {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        __m256d, __m256i, __m512d, _mm256_loadu_pd, _mm256_loadu_si256, _mm256_set1_pd,
        _mm256_storeu_pd, _mm512_cmplt_epu64_mask, _mm512_cvtepu32_epi64, _mm512_i64gather_pd,
        _mm512_loadu_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_pd,
    };

    #[cfg(feature = "sanitize")]
    #[inline(always)]
    fn check(len: usize, at: usize, lanes: usize, what: &str) {
        assert!(
            at + lanes <= len,
            "sanitize: {what} of {lanes} lane(s) at {at} overruns slice of len {len}"
        );
    }

    /// 4-lane unaligned load from `s[at..at + 4]`.
    ///
    /// SAFETY contract: `at + 4 <= s.len()`; the CPU supports AVX.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn load4(s: &[f64], at: usize) -> __m256d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 4, "load4");
        debug_assert!(at + 4 <= s.len());
        _mm256_loadu_pd(s.as_ptr().add(at))
    }

    /// 4-lane unaligned store to `s[at..at + 4]`.
    ///
    /// SAFETY contract: `at + 4 <= s.len()`; the CPU supports AVX.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn store4(s: &mut [f64], at: usize, v: __m256d) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 4, "store4");
        debug_assert!(at + 4 <= s.len());
        _mm256_storeu_pd(s.as_mut_ptr().add(at), v);
    }

    /// 8-lane unaligned load from `s[at..at + 8]`.
    ///
    /// SAFETY contract: `at + 8 <= s.len()`; the CPU supports AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn load8(s: &[f64], at: usize) -> __m512d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 8, "load8");
        debug_assert!(at + 8 <= s.len());
        _mm512_loadu_pd(s.as_ptr().add(at))
    }

    /// 8-lane unaligned store to `s[at..at + 8]`.
    ///
    /// SAFETY contract: `at + 8 <= s.len()`; the CPU supports AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn store8(s: &mut [f64], at: usize, v: __m512d) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 8, "store8");
        debug_assert!(at + 8 <= s.len());
        _mm512_storeu_pd(s.as_mut_ptr().add(at), v);
    }

    /// 8-lane gather `data[gi[at + l]]`, `l = 0..8`, as one `vgatherqpd`
    /// over the zero-extended indices (so no index is ever sign-extended).
    ///
    /// SAFETY contract: `at + 8 <= gi.len()`; the CPU supports AVX-512F.
    /// The index *values* are not the caller's obligation: all eight are
    /// compared against `data.len()` before the load, and one out of range
    /// panics like the `data[i]` it replaces.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn gather8(data: &[f64], gi: &[u32], at: usize) -> __m512d {
        #[cfg(feature = "sanitize")]
        check(gi.len(), at, 8, "gather8");
        debug_assert!(at + 8 <= gi.len());
        let idx = _mm512_cvtepu32_epi64(_mm256_loadu_si256(gi.as_ptr().add(at).cast::<__m256i>()));
        // `len <= isize::MAX`, so the cast is lossless.
        #[allow(clippy::cast_possible_wrap)]
        let in_range = _mm512_cmplt_epu64_mask(idx, _mm512_set1_epi64(data.len() as i64));
        assert!(
            in_range == 0xff,
            "gather index out of bounds: the len is {} but the indices are {:?}",
            data.len(),
            &gi[at..at + 8]
        );
        _mm512_i64gather_pd::<8>(idx, data.as_ptr())
    }

    /// Broadcast-load: scalar `s[at]` splatted into all 4 lanes (the
    /// multivector kernels read one `Ke` entry and reuse it across the
    /// column dimension).
    ///
    /// SAFETY contract: `at < s.len()`; the CPU supports AVX.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn bcast4(s: &[f64], at: usize) -> __m256d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "bcast4");
        debug_assert!(at < s.len());
        _mm256_set1_pd(*s.get_unchecked(at))
    }

    /// Broadcast-load: scalar `s[at]` splatted into all 8 lanes.
    ///
    /// SAFETY contract: `at < s.len()`; the CPU supports AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx512f")]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn bcast8(s: &[f64], at: usize) -> __m512d {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "bcast8");
        debug_assert!(at < s.len());
        _mm512_set1_pd(*s.get_unchecked(at))
    }

    /// Unchecked scalar read `s[at]` (kernel remainder loops).
    ///
    /// SAFETY contract: `at < s.len()`.
    #[inline(always)]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn read1(s: &[f64], at: usize) -> f64 {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "read1");
        debug_assert!(at < s.len());
        *s.get_unchecked(at)
    }

    /// Unchecked scalar accumulate `s[at] += x` (kernel remainder loops).
    ///
    /// SAFETY contract: `at < s.len()`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    #[allow(unsafe_code)] // SAFETY: contract above; proved per call site by hymv-verify
    pub unsafe fn add1(s: &mut [f64], at: usize, x: f64) {
        #[cfg(feature = "sanitize")]
        check(s.len(), at, 1, "add1");
        debug_assert!(at < s.len());
        *s.get_unchecked_mut(at) += x;
    }
}

/// Contiguous storage of `n_elems` column-major `nd × nd` element matrices.
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

    /// The whole storage as a flat slice (GPU upload path).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The per-element EMV kernel signature (`ke`, `ue`, `ve`).
pub type EmvKernel = fn(&[f64], &[f64], &mut [f64]);

/// The batched EMV kernel signature (`keb`, `ue`, `ve`, `nd`, `bw`):
/// batch-interleaved matrices against `nd × bw` panels.
pub type EmvBatchKernel = fn(&[f64], &[f64], &mut [f64], usize, usize);

/// `ve = Ke · ue` for a column-major `nd × nd` matrix; `nd` inferred from
/// `ue.len()`. Runtime-dispatched to the best available SIMD variant.
///
/// Convenience wrapper for tests and one-off calls: the lookup costs an
/// atomic load per call. Hot loops should resolve [`select_kernel`] once
/// at loop entry and call through the function pointer.
#[inline]
pub fn emv(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    static KERNEL: OnceLock<EmvKernel> = OnceLock::new();
    let k = KERNEL.get_or_init(select_kernel);
    k(ke, ue, ve);
}

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

/// Width the per-element kernels dispatch on: they run their own remainder
/// loops, so any multiple of every vector width selects the widest ISA.
const ANY_WIDTH: usize = 8;

/// Name of the dispatched kernel variant (for experiment logs).
pub fn emv_kernel_name() -> &'static str {
    isa_name!(isa_for(ANY_WIDTH), "")
}

/// Pick the best per-element EMV variant for this CPU. Resolve once per
/// SPMV (or cache in the operator) — not per element.
pub fn select_kernel() -> EmvKernel {
    match isa_for(ANY_WIDTH) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => emv_avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => emv_avx2,
        _ => emv_portable,
    }
}

/// Portable column-axpy variant; the inner loop autovectorizes.
// verify: kernel-entry
pub fn emv_portable(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    for (j, &u) in ue.iter().enumerate() {
        let col = &ke[j * nd..(j + 1) * nd];
        for (v, &k) in ve.iter_mut().zip(col) {
            *v += k * u;
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_avx2(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    // SAFETY: dispatch guarantees avx2+fma are available.
    unsafe { emv_avx2_impl(ke, ue, ve) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_avx2_impl(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    use std::arch::x86_64::*;
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    let chunks = nd / 4;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        let ub = _mm256_set1_pd(u);
        for c in 0..chunks {
            let k = lanes::load4(ke, j * nd + 4 * c);
            let v = lanes::load4(ve, 4 * c);
            lanes::store4(ve, 4 * c, _mm256_fmadd_pd(k, ub, v));
        }
        for i in 4 * chunks..nd {
            lanes::add1(ve, i, lanes::read1(ke, j * nd + i) * u);
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_avx512(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    // SAFETY: dispatch guarantees avx512f is available.
    unsafe { emv_avx512_impl(ke, ue, ve) }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_avx512_impl(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    use std::arch::x86_64::*;
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    let chunks = nd / 8;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        let ub = _mm512_set1_pd(u);
        for c in 0..chunks {
            let k = lanes::load8(ke, j * nd + 8 * c);
            let v = lanes::load8(ve, 8 * c);
            lanes::store8(ve, 8 * c, _mm512_fmadd_pd(k, ub, v));
        }
        for i in 8 * chunks..nd {
            lanes::add1(ve, i, lanes::read1(ke, j * nd + i) * u);
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
// bytes: rows are visited in ascending order, each packed entry is fetched
// from memory by the first row that needs it and hit in cache by the second.
//
// Vectorization runs **across the batch dimension**: every load/store in
// the inner loop is unit-stride over `bw` lanes, so SIMD sees full vectors
// regardless of nd — unlike the per-element axpy, whose vector length is
// capped by nd and pays a remainder loop per column.
// ---------------------------------------------------------------------------

/// Maximum supported batch width (bounds kernel register/stack usage).
pub const MAX_BATCH_WIDTH: usize = 64;

/// `r(r+1)/2`: the packed slot of entry `(r, 0)`. One of `r`, `r + 1` is
/// even, so the division is exact — the fact `hymv-verify` builds its
/// packed-index bounds proofs on.
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
/// If `keb_len` is neither layout's length — the one check that keeps a
/// mis-sized slab away from the unchecked SIMD lanes in release builds.
#[inline]
fn slab_is_packed(keb_len: usize, nd: usize, bw: usize) -> bool {
    let packed = keb_len != slab_len(nd, bw, false);
    assert!(
        !packed || keb_len == slab_len(nd, bw, true),
        "slab of {keb_len} doubles is neither full nor packed for nd={nd}, bw={bw}"
    );
    packed
}

/// Slab slot of matrix entry `(i, j)` in either layout (the portable
/// multivector kernel; the proved kernels spell the branch each side of
/// the diagonal takes out as a polynomial `hymv-verify` can bound).
#[inline(always)]
fn ke_slot<const PACKED: bool>(i: usize, j: usize, nd: usize) -> usize {
    if !PACKED {
        j * nd + i
    } else if j <= i {
        tri(i) + j
    } else {
        tri(j) + i
    }
}

/// `Ve = Ke_b · Ue` over the batch-interleaved layout above.
///
/// Convenience wrapper for tests: dispatches on every call. Hot loops
/// should resolve [`select_batch_kernel`] once per SPMV.
#[inline]
pub fn emv_batch(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    select_batch_kernel(bw)(keb, ue, ve, nd, bw);
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

/// One vector of `W` batch lanes: all that differs between the ISAs the
/// batched kernel is instantiated for.
///
/// SAFETY contract of `load`/`store`: `at + W <= s.len()` — `hymv-verify`
/// proves it per instantiation of [`emv_batch_body`], and that each impl
/// forwards to `lanes::*` helpers of exactly `W` lanes — and a CPU with the
/// lane type's ISA, which the `emv_batch_*` entry points owe.
#[allow(unsafe_code)] // SAFETY: contract above
trait Lane: Copy {
    const W: usize;
    const ZERO: Self;
    /// Accumulators of one output row: eight registers on the SIMD ISAs,
    /// a scalar per lane (in memory, autovectorized) on the portable one.
    type Acc: AsMut<[Self]>;
    const ZEROS: Self::Acc;
    unsafe fn load(s: &[f64], at: usize) -> Self;
    unsafe fn store(s: &mut [f64], at: usize, v: Self);
    /// `k·u + acc`: fused on the SIMD ISAs, multiply then add on the
    /// portable lane — the two arithmetic classes the kernels always had.
    unsafe fn fmadd(k: Self, u: Self, acc: Self) -> Self;
}

#[allow(unsafe_code)] // SAFETY: forwards the trait's contract to `lanes::read1`
impl Lane for f64 {
    const W: usize = 1;
    const ZERO: Self = 0.0;
    type Acc = [Self; MAX_BATCH_WIDTH];
    const ZEROS: Self::Acc = [0.0; MAX_BATCH_WIDTH];
    #[inline(always)]
    unsafe fn load(s: &[f64], at: usize) -> Self {
        lanes::read1(s, at)
    }
    #[inline(always)]
    unsafe fn store(s: &mut [f64], at: usize, v: Self) {
        s[at] = v;
    }
    #[inline(always)]
    unsafe fn fmadd(k: Self, u: Self, acc: Self) -> Self {
        acc + k * u
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: forwards the trait's contract to `lanes::*`
impl Lane for std::arch::x86_64::__m256d {
    const W: usize = 4;
    // SAFETY: all-zero bits are four lanes of `0.0`; no AVX instruction runs.
    const ZERO: Self = unsafe { std::mem::transmute([0.0f64; 4]) };
    type Acc = [Self; 8];
    const ZEROS: Self::Acc = [Self::ZERO; 8];
    #[inline(always)]
    unsafe fn load(s: &[f64], at: usize) -> Self {
        lanes::load4(s, at)
    }
    #[inline(always)]
    unsafe fn store(s: &mut [f64], at: usize, v: Self) {
        lanes::store4(s, at, v);
    }
    #[inline(always)]
    unsafe fn fmadd(k: Self, u: Self, acc: Self) -> Self {
        std::arch::x86_64::_mm256_fmadd_pd(k, u, acc)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: forwards the trait's contract to `lanes::*`
impl Lane for std::arch::x86_64::__m512d {
    const W: usize = 8;
    // SAFETY: all-zero bits are eight lanes of `0.0`; no AVX-512 instruction runs.
    const ZERO: Self = unsafe { std::mem::transmute([0.0f64; 8]) };
    type Acc = [Self; 8];
    const ZEROS: Self::Acc = [Self::ZERO; 8];
    #[inline(always)]
    unsafe fn load(s: &[f64], at: usize) -> Self {
        lanes::load8(s, at)
    }
    #[inline(always)]
    unsafe fn store(s: &mut [f64], at: usize, v: Self) {
        lanes::store8(s, at, v);
    }
    #[inline(always)]
    unsafe fn fmadd(k: Self, u: Self, acc: Self) -> Self {
        std::arch::x86_64::_mm512_fmadd_pd(k, u, acc)
    }
}

/// The batched EMV: every ISA, both slab layouts and every `nd` run this
/// source. Output row `i` is one multiply-add chain over `j` ascending, so
/// all instantiations of a lane type give the same bits.
///
/// `ND = 0` takes `nd` at run time and reduces a row at a time: its
/// `bw / W` accumulators stay in registers, `ve` is stored once per row,
/// and the column loop is split at the diagonal so a packed slab needs no
/// max/min per entry — left of it row `i` reads its own packed row, from
/// the diagonal on it reads column `i` of the rows below.
///
/// `ND > 0` fixes the dimension (the caller passes `nd == ND`). A row of
/// nd ≤ 12 is too short a chain to hide the fmadd latency and the loop
/// control around it, so both loops have constant trip counts for the
/// compiler to unroll: per lane vector the `ue` rows sit in registers,
/// the triangle split folds into constant slots and rows overlap.
// verify: prove-bounds
#[inline(always)]
#[allow(unsafe_code)] // SAFETY: the caller proves the lane type's ISA; every lane access is
                      // proved in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_body<L: Lane, const PACKED: bool, const ND: usize>(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
) {
    let nd = if ND == 0 { nd } else { ND };
    debug_assert_eq!(keb.len(), if PACKED { tri(nd) * bw } else { nd * nd * bw });
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    debug_assert!(bw % L::W == 0);
    let chunks = bw / L::W;
    if ND == 0 {
        for i in 0..nd {
            let mut acc = L::ZEROS;
            let acc = acc.as_mut();
            for j in 0..i {
                let s = if PACKED { tri(i) + j } else { j * nd + i };
                for c in 0..chunks {
                    let k = L::load(keb, s * bw + L::W * c);
                    let u = L::load(ue, j * bw + L::W * c);
                    acc[c] = L::fmadd(k, u, acc[c]);
                }
            }
            for j in i..nd {
                let s = if PACKED { tri(j) + i } else { j * nd + i };
                for c in 0..chunks {
                    let k = L::load(keb, s * bw + L::W * c);
                    let u = L::load(ue, j * bw + L::W * c);
                    acc[c] = L::fmadd(k, u, acc[c]);
                }
            }
            for c in 0..chunks {
                L::store(ve, i * bw + L::W * c, acc[c]);
            }
        }
    } else {
        for c in 0..chunks {
            let mut u = [L::ZERO; ND];
            for j in 0..ND {
                u[j] = L::load(ue, j * bw + L::W * c);
            }
            for i in 0..ND {
                let mut acc = L::ZERO;
                for j in 0..ND {
                    let k = if PACKED {
                        if j <= i {
                            L::load(keb, (tri(i) + j) * bw + L::W * c)
                        } else {
                            L::load(keb, (tri(j) + i) * bw + L::W * c)
                        }
                    } else {
                        L::load(keb, (j * ND + i) * bw + L::W * c)
                    };
                    acc = L::fmadd(k, u[j], acc);
                }
                L::store(ve, i * bw + L::W * c, acc);
            }
        }
    }
}

/// One batched EMV on lane type `L`: pins the lengths the body assumes,
/// then picks its instantiation from the slab layout and `nd`. `nd` is a
/// constant for the element dimensions of the scalar and vector problems
/// on Tet4 / Hex8 / Tet10; above them unrolling stops paying (DESIGN.md
/// §8), so every other `nd` takes `ND = 0`.
#[inline(always)]
#[allow(unsafe_code)] // SAFETY: the caller proves `L`'s ISA, as for `emv_batch_body`
unsafe fn emv_batch_on<L: Lane>(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    assert!(
        ue.len() == nd * bw && ve.len() == nd * bw && bw % L::W == 0,
        "panels do not fit nd={nd}, bw={bw}"
    );
    match (slab_is_packed(keb.len(), nd, bw), nd) {
        (true, 4) => emv_batch_body::<L, true, 4>(keb, ue, ve, nd, bw),
        (true, 8) => emv_batch_body::<L, true, 8>(keb, ue, ve, nd, bw),
        (true, 10) => emv_batch_body::<L, true, 10>(keb, ue, ve, nd, bw),
        (true, 12) => emv_batch_body::<L, true, 12>(keb, ue, ve, nd, bw),
        (true, _) => emv_batch_body::<L, true, 0>(keb, ue, ve, nd, bw),
        (false, 4) => emv_batch_body::<L, false, 4>(keb, ue, ve, nd, bw),
        (false, 8) => emv_batch_body::<L, false, 8>(keb, ue, ve, nd, bw),
        (false, 10) => emv_batch_body::<L, false, 10>(keb, ue, ve, nd, bw),
        (false, 12) => emv_batch_body::<L, false, 12>(keb, ue, ve, nd, bw),
        (false, _) => emv_batch_body::<L, false, 0>(keb, ue, ve, nd, bw),
    }
}

/// Portable batched kernel: scalar lanes; the lane loops autovectorize.
// verify: kernel-entry
pub fn emv_batch_portable(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    // SAFETY: the scalar lane needs no ISA; `emv_batch_on` pins the
    // lengths its unchecked loads are proved in bounds from.
    #[allow(unsafe_code)]
    unsafe {
        emv_batch_on::<f64>(keb, ue, ve, nd, bw);
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    #[target_feature(enable = "avx2,fma")]
    unsafe fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
        emv_batch_on::<std::arch::x86_64::__m256d>(keb, ue, ve, nd, bw);
    }
    // SAFETY: dispatch guarantees avx2+fma are available; `emv_batch_on`
    // pins the lengths the lane accesses are proved in bounds from.
    unsafe { isa(keb, ue, ve, nd, bw) }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    #[target_feature(enable = "avx512f")]
    unsafe fn isa(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
        emv_batch_on::<std::arch::x86_64::__m512d>(keb, ue, ve, nd, bw);
    }
    // SAFETY: dispatch guarantees avx512f is available; lengths as above.
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
        // SAFETY: `isa_for` found AVX-512F; the lengths were just compared.
        #[allow(unsafe_code)]
        return unsafe { gather_panel_avx512(data, gi, ue) };
    }
    for (u, &r) in ue.iter_mut().zip(gi) {
        *u = data[r as usize];
    }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target feature; every lane access is proved
                      // in bounds from the debug_assert below by the hymv-verify interpreter.
unsafe fn gather_panel_avx512(data: &[f64], gi: &[u32], ue: &mut [f64]) {
    let n = gi.len();
    debug_assert_eq!(ue.len(), n);
    let rows = n / 8;
    for r in 0..rows {
        lanes::store8(ue, 8 * r, lanes::gather8(data, gi, 8 * r));
    }
    for t in 8 * rows..n {
        ue[t] = data[gi[t] as usize];
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
// Vectorization runs **across the vector columns `c`**: the `nvec` values
// of one (dof, lane) pair are contiguous, so the inner loop is unit-stride
// full vectors. Each `Ke` entry is loaded exactly once per SpMM — a single
// broadcast feeds all `nvec` columns — which is the whole point: the
// batched EMV pipeline is bandwidth-bound on `Ke` slab traffic, and the
// multivector product amortizes that traffic over `nvec` solves.
// ---------------------------------------------------------------------------

/// Maximum supported multivector width (bounds kernel register usage:
/// `nvec/4 ≤ 8` AVX2 accumulators per (row, lane) pair).
pub const MAX_NVEC_WIDTH: usize = 32;

/// The multivector batched EMV kernel signature
/// (`keb`, `ue`, `ve`, `nd`, `bw`, `nvec`).
pub type EmvBatchMvKernel = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

/// `Ve = Ke_b · Ue` over the multivector panel layout above.
///
/// Convenience wrapper for tests: dispatches on every call. Hot loops
/// should resolve [`select_batch_mv_kernel`] once per SpMM.
#[inline]
pub fn emv_batch_mv(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    select_batch_mv_kernel(nvec)(keb, ue, ve, nd, bw, nvec);
}

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

/// Portable multivector kernel: column-axpy order (`j` outer) so `keb` is
/// streamed linearly exactly once per SpMM. Per vector column this is the
/// same multiply-add chain as [`emv_batch_portable`], so a width-`nvec`
/// product reproduces `nvec` sequential batched EMVs bitwise.
// verify: kernel-entry
pub fn emv_batch_mv_portable(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    if slab_is_packed(keb.len(), nd, bw) {
        emv_batch_mv_portable_impl::<true>(keb, ue, ve, nd, bw, nvec);
    } else {
        emv_batch_mv_portable_impl::<false>(keb, ue, ve, nd, bw, nvec);
    }
}

fn emv_batch_mv_portable_impl<const PACKED: bool>(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    debug_assert_eq!(keb.len(), slab_len(nd, bw, PACKED));
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    ve.fill(0.0);
    for j in 0..nd {
        for i in 0..nd {
            let s = ke_slot::<PACKED>(i, j, nd);
            let k = &keb[s * bw..(s + 1) * bw];
            for b in 0..bw {
                let kb = k[b];
                let u = &ue[(j * bw + b) * nvec..(j * bw + b + 1) * nvec];
                let v = &mut ve[(i * bw + b) * nvec..(i * bw + b + 1) * nvec];
                for (vc, &uc) in v.iter_mut().zip(u) {
                    *vc += kb * uc;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx2(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    // SAFETY: dispatch guarantees avx2+fma are available and nvec % 4 == 0,
    // nvec <= 32; `slab_is_packed` pins the slab length the layout assumes.
    unsafe {
        if slab_is_packed(keb.len(), nd, bw) {
            emv_batch_mv_avx2_impl::<true>(keb, ue, ve, nd, bw, nvec)
        } else {
            emv_batch_mv_avx2_impl::<false>(keb, ue, ve, nd, bw, nvec)
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_mv_avx2_impl<const PACKED: bool>(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), if PACKED { tri(nd) * bw } else { nd * nd * bw });
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    debug_assert!(nvec % 4 == 0 && nvec <= 32);
    let chunks = nvec / 4;
    // Row-outer with register accumulators per (row, lane): the nvec-wide
    // column tile of output (i, b) is reduced over all dof columns j
    // without touching memory. Each keb entry of row i is read once (a
    // scalar broadcast) and amortized across all nvec vector columns — per
    // column, the reduction is the same fmadd chain as the single-vector
    // SIMD batch kernels (j ascending, split at the diagonal for the
    // packed layout exactly as there), so results match them bitwise.
    for i in 0..nd {
        for b in 0..bw {
            let mut acc = [_mm256_setzero_pd(); 8];
            for j in 0..i {
                let s = if PACKED { tri(i) + j } else { j * nd + i };
                let k = lanes::bcast4(keb, s * bw + b);
                for c in 0..chunks {
                    let u = lanes::load4(ue, (j * bw + b) * nvec + 4 * c);
                    acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
                }
            }
            for j in i..nd {
                let s = if PACKED { tri(j) + i } else { j * nd + i };
                let k = lanes::bcast4(keb, s * bw + b);
                for c in 0..chunks {
                    let u = lanes::load4(ue, (j * bw + b) * nvec + 4 * c);
                    acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
                }
            }
            for c in 0..chunks {
                lanes::store4(ve, (i * bw + b) * nvec + 4 * c, acc[c]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: kernel-entry
#[allow(unsafe_code)] // SIMD dispatch wrapper; SAFETY comment at the call
fn emv_batch_mv_avx512(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    // SAFETY: dispatch guarantees avx512f is available and nvec % 8 == 0,
    // nvec <= 64; `slab_is_packed` pins the slab length the layout assumes.
    unsafe {
        if slab_is_packed(keb.len(), nd, bw) {
            emv_batch_mv_avx512_impl::<true>(keb, ue, ve, nd, bw, nvec)
        } else {
            emv_batch_mv_avx512_impl::<false>(keb, ue, ve, nd, bw, nvec)
        }
    }
}

#[cfg(target_arch = "x86_64")]
// verify: prove-bounds
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)] // SAFETY: caller proves the target features; every lane access is proved
                      // in bounds from the debug_asserts below by the hymv-verify interpreter.
unsafe fn emv_batch_mv_avx512_impl<const PACKED: bool>(
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
    nvec: usize,
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(keb.len(), if PACKED { tri(nd) * bw } else { nd * nd * bw });
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    debug_assert!(nvec % 8 == 0 && nvec <= 64);
    let chunks = nvec / 8;
    for i in 0..nd {
        for b in 0..bw {
            let mut acc = [_mm512_setzero_pd(); 8];
            for j in 0..i {
                let s = if PACKED { tri(i) + j } else { j * nd + i };
                let k = lanes::bcast8(keb, s * bw + b);
                for c in 0..chunks {
                    let u = lanes::load8(ue, (j * bw + b) * nvec + 8 * c);
                    acc[c] = _mm512_fmadd_pd(k, u, acc[c]);
                }
            }
            for j in i..nd {
                let s = if PACKED { tri(j) + i } else { j * nd + i };
                let k = lanes::bcast8(keb, s * bw + b);
                for c in 0..chunks {
                    let u = lanes::load8(ue, (j * bw + b) * nvec + 8 * c);
                    acc[c] = _mm512_fmadd_pd(k, u, acc[c]);
                }
            }
            for c in 0..chunks {
                lanes::store8(ve, (i * bw + b) * nvec + 8 * c, acc[c]);
            }
        }
    }
}

/// FLOPs of one multivector batched EMV: `2·nd²·bw·nvec`.
pub fn emv_batch_mv_flops(nd: usize, bw: usize, nvec: usize) -> u64 {
    emv_batch_flops(nd, bw) * nvec as u64
}

/// The ablation variant: dot-product order over a column-major matrix —
/// stride-`nd` access, deliberately cache-hostile. Used by the kernel
/// ablation bench to show why equation (4) prescribes the axpy order.
pub fn emv_dot_strided(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    for (i, v) in ve.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &u) in ue.iter().enumerate() {
            acc += ke[j * nd + i] * u;
        }
        *v = acc;
    }
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

    fn random_system(nd: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ke: Vec<f64> = (0..nd * nd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ue: Vec<f64> = (0..nd).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (ke, ue)
    }

    #[test]
    fn all_variants_agree() {
        for nd in [1, 3, 4, 8, 20, 24, 27, 60, 81] {
            let (ke, ue) = random_system(nd, nd as u64);
            let mut v_ref = vec![0.0; nd];
            emv_dot_strided(&ke, &ue, &mut v_ref);

            let mut v = vec![0.0; nd];
            emv_portable(&ke, &ue, &mut v);
            for i in 0..nd {
                assert!((v[i] - v_ref[i]).abs() < 1e-12, "portable nd={nd} i={i}");
            }

            let mut v = vec![0.0; nd];
            emv(&ke, &ue, &mut v);
            for i in 0..nd {
                assert!((v[i] - v_ref[i]).abs() < 1e-12, "dispatched nd={nd} i={i}");
            }

            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut v = vec![0.0; nd];
                    emv_avx2(&ke, &ue, &mut v);
                    for i in 0..nd {
                        assert!((v[i] - v_ref[i]).abs() < 1e-12, "avx2 nd={nd} i={i}");
                    }
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut v = vec![0.0; nd];
                    emv_avx512(&ke, &ue, &mut v);
                    for i in 0..nd {
                        assert!((v[i] - v_ref[i]).abs() < 1e-12, "avx512 nd={nd} i={i}");
                    }
                }
            }
        }
    }

    /// Reference for one lane of a batch: per-element EMV on de-interleaved
    /// data.
    fn batch_reference(keb: &[f64], ue: &[f64], nd: usize, bw: usize, b: usize) -> Vec<f64> {
        let ke: Vec<f64> = (0..nd * nd).map(|idx| keb[idx * bw + b]).collect();
        let u: Vec<f64> = (0..nd).map(|j| ue[j * bw + b]).collect();
        let mut v = vec![0.0; nd];
        emv_dot_strided(&ke, &u, &mut v);
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
                variants.push(("dispatched", emv_batch as EmvBatchKernel));

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
                        ("mv-dispatched", emv_batch_mv as EmvBatchMvKernel),
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

    type BodyFn = unsafe fn(&[f64], &[f64], &mut [f64], usize, usize);

    /// Every instantiation of `emv_batch_body` the entry points dispatch to
    /// for one lane type, as `(PACKED, ND, fn)`, each compiled under the
    /// lane's ISA.
    macro_rules! instantiations {
        ($lane:ty $(, $feature:literal)?) => {{
            $(#[target_feature(enable = $feature)])?
            #[allow(unsafe_code)] // SAFETY: as `emv_batch_body`; the test detects `$feature`
            unsafe fn run<const PACKED: bool, const ND: usize>(
                keb: &[f64],
                ue: &[f64],
                ve: &mut [f64],
                nd: usize,
                bw: usize,
            ) {
                emv_batch_body::<$lane, PACKED, ND>(keb, ue, ve, nd, bw);
            }
            vec![
                (false, 0, run::<false, 0> as BodyFn),
                (false, 4, run::<false, 4> as BodyFn),
                (false, 8, run::<false, 8> as BodyFn),
                (false, 10, run::<false, 10> as BodyFn),
                (false, 12, run::<false, 12> as BodyFn),
                (true, 0, run::<true, 0> as BodyFn),
                (true, 4, run::<true, 4> as BodyFn),
                (true, 8, run::<true, 8> as BodyFn),
                (true, 10, run::<true, 10> as BodyFn),
                (true, 12, run::<true, 12> as BodyFn),
            ]
        }};
    }

    /// A fixed-`ND` instantiation only changes the schedule: on every ISA
    /// of this host, in both layouts, with one and with several lane
    /// vectors per row and with zero-padded tail lanes, it gives the bits
    /// of the run-time-`nd` instantiation of the same source.
    #[test]
    #[allow(unsafe_code)] // SAFETY: comment at the one unsafe block below
    fn fixed_nd_instantiations_match_the_runtime_body_bitwise() {
        let mut lanes: Vec<(&str, Vec<(bool, usize, BodyFn)>)> =
            vec![("portable", instantiations!(f64))];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{__m256d, __m512d};
            if isa_for(4) == Isa::Avx2 || isa_for(8) == Isa::Avx512 {
                lanes.push(("avx2", instantiations!(__m256d, "avx2,fma")));
            }
            if isa_for(8) == Isa::Avx512 {
                lanes.push(("avx512", instantiations!(__m512d, "avx512f")));
            }
        }
        let mut rng = StdRng::seed_from_u64(1612);
        let mut compared = 0;
        for (isa, table) in &lanes {
            for &(packed, nd, fixed) in table.iter().filter(|t| t.1 != 0) {
                let runtime = table
                    .iter()
                    .find(|t| t.0 == packed && t.1 == 0)
                    .expect("every layout has a run-time instantiation")
                    .2;
                for (bw, pad) in [(8usize, 0usize), (8, 3), (16, 0), (16, 5)] {
                    let (full, packed_slab) = symmetric_slabs(nd, bw, pad, &mut rng);
                    let keb = if packed { &packed_slab } else { &full };
                    let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let (mut vf, mut vr) = (vec![9.0; nd * bw], vec![7.0; nd * bw]);
                    // SAFETY: the lane's ISA was detected above; the slabs
                    // and panels have the lengths the body asserts.
                    unsafe {
                        fixed(keb, &ue, &mut vf, nd, bw);
                        runtime(keb, &ue, &mut vr, nd, bw);
                    }
                    for (t, (a, b)) in vf.iter().zip(&vr).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{isa} packed={packed} ND={nd} bw={bw} pad={pad} slot={t}"
                        );
                    }
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, lanes.len() * 2 * 4 * 4);
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
    fn in_between_slab_length_rejected() {
        let (nd, bw) = (4usize, 8usize);
        let keb = vec![0.0; slab_len(nd, bw, true) + bw];
        let (ue, mut ve) = (vec![0.0; nd * bw], vec![0.0; nd * bw]);
        emv_batch(&keb, &ue, &mut ve, nd, bw);
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
        emv(&ke, &ue, &mut ve);
        assert_eq!(ve, ue);
    }

    #[test]
    fn store_layout_and_update() {
        let mut store = ElementMatrixStore::new(3, 4);
        assert_eq!(store.bytes(), 4 * 9 * 8);
        store.ke_mut(2)[4] = 7.0; // column 1, row 1 of element 2
        assert_eq!(store.ke(2)[4], 7.0);
        assert_eq!(store.ke(1)[4], 0.0);
        assert_eq!(store.as_slice()[2 * 9 + 4], 7.0);
        assert_eq!(store.nd(), 3);
        assert_eq!(store.n_elems(), 4);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(emv_flops(10), 200);
    }

    #[test]
    fn kernel_name_reports_something() {
        let name = emv_kernel_name();
        assert!(["avx512f", "avx2+fma", "portable"].contains(&name));
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
