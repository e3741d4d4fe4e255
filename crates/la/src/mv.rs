//! Column-major multivectors and the multi-RHS operator abstraction.
//!
//! A [`Multivector`] stores `nvec` owned-dof vectors contiguously column
//! by column — the storage the block solvers and the batched solve
//! service hand to [`MultiLinOp::apply_mv`]. Operators that implement a
//! true SpMM (HYMV's multivector EMV path) override `apply_mv`; every
//! other [`LinOp`] gets the column-by-column fallback for free.

use hymv_comm::{Comm, ReduceOp};

use crate::dense::on_widest_isa;
use crate::solver::LinOp;

/// `nvec` distributed vectors of `nrows` owned dofs, stored column-major
/// (`data[c*nrows + i]` is row `i` of column `c`).
#[derive(Debug, Clone, PartialEq)]
pub struct Multivector {
    nrows: usize,
    nvec: usize,
    data: Vec<f64>,
}

impl Multivector {
    /// Zero-initialized `nrows × nvec` multivector.
    pub fn new(nrows: usize, nvec: usize) -> Self {
        assert!(nvec > 0, "multivector must have at least one column");
        Multivector {
            nrows,
            nvec,
            data: vec![0.0; nrows * nvec],
        }
    }

    /// Build from equal-length column vectors.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        assert!(
            !cols.is_empty(),
            "multivector must have at least one column"
        );
        let nrows = cols[0].len();
        let mut mv = Multivector::new(nrows, cols.len());
        for (c, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), nrows, "column {c} length mismatch");
            mv.col_mut(c).copy_from_slice(col);
        }
        mv
    }

    /// Rows (owned dofs per column).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of vector columns.
    pub fn nvec(&self) -> usize {
        self.nvec
    }

    /// Column `c` as a plain owned-dof slice.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// Mutable column `c`.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        &mut self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// The whole storage, column-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable whole storage, column-major.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Set every entry.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy all entries from a same-shape multivector.
    pub fn copy_from(&mut self, other: &Multivector) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.nvec, other.nvec);
        self.data.copy_from_slice(&other.data);
    }
}

/// A distributed linear operator that can apply itself to a whole
/// multivector at once. The default implementation loops [`LinOp::apply`]
/// column by column; operators with a genuine SpMM fast path (HYMV's
/// multivector EMV engine) override it.
pub trait MultiLinOp: LinOp {
    /// `Y = A X`, column for column.
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        assert_eq!(x.nrows(), self.n_owned(), "input row mismatch");
        assert_eq!(y.nrows(), self.n_owned(), "output row mismatch");
        assert_eq!(x.nvec(), y.nvec(), "column-count mismatch");
        for c in 0..x.nvec() {
            self.apply(comm, x.col(c), y.col_mut(c));
        }
    }
}

impl<T: MultiLinOp + ?Sized> MultiLinOp for Box<T> {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        (**self).apply_mv(comm, x, y)
    }
}

/// Local dot product with eight independent accumulators folded in a
/// fixed tree. A strict left-to-right FP sum is one serial add-latency
/// chain the compiler may not reorder; eight interleaved partials break
/// the chain (and vectorize) while staying bitwise deterministic — the
/// summation order is a pure function of the slice length.
fn dot_local(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let body = x.len() / 8 * 8;
    let mut acc = [0.0f64; 8];
    dot_lanes(&mut acc, &x[..body], &y[..body]);
    dot_fold(&acc, &x[body..], &y[body..])
}

/// `acc[l] += x[8c + l]·y[8c + l]` over whole chunks of eight: the part of
/// [`dot_local`] that can stop and resume at any chunk edge.
#[inline(always)]
fn dot_lanes(acc: &mut [f64; 8], x: &[f64], y: &[f64]) {
    for (xc, yc) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += xc[l] * yc[l];
        }
    }
}

/// The rest of [`dot_local`]: the tail past the last whole chunk, then the
/// fixed fold of the eight partial sums.
#[inline(always)]
fn dot_fold(acc: &[f64; 8], x_tail: &[f64], y_tail: &[f64]) -> f64 {
    let mut tail = 0.0f64;
    for (a, b) in x_tail.iter().zip(y_tail) {
        tail += a * b;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Rows per block of [`dots`]: a multiple of [`dot_local`]'s eight
/// lanes, so block edges fall on its chunk edges, and few enough that the
/// blocks of two eight-column panels (64 KiB) stay cache-resident while
/// every pair reads them.
const GRAM_ROW_BLOCK: usize = 512;

/// [`dot_local`] of every column pair, streaming the panels once in row
/// blocks instead of once per pair. Each pair's eight partial sums carry
/// across the blocks in `dot_local`'s order, so every result has its bits.
/// Block-CG takes two Gram products per iteration, so this is hot.
#[inline(always)]
fn dots(pairs: &[(&[f64], &[f64])]) -> Vec<f64> {
    let n = pairs.first().map_or(0, |p| p.0.len());
    let body = n / 8 * 8;
    let mut acc = vec![[0.0f64; 8]; pairs.len()];
    for r0 in (0..body).step_by(GRAM_ROW_BLOCK) {
        let r1 = (r0 + GRAM_ROW_BLOCK).min(body);
        for (a, (x, y)) in acc.iter_mut().zip(pairs) {
            dot_lanes(a, &x[r0..r1], &y[r0..r1]);
        }
    }
    acc.iter()
        .zip(pairs)
        .map(|(a, (x, y))| dot_fold(a, &x[body..], &y[body..]))
        .collect()
}

/// The local part of [`gram`]: `g[i + j·a.nvec] = aᵢᵀ bⱼ`.
fn gram_local(a: &Multivector, b: &Multivector) -> Vec<f64> {
    let pairs: Vec<(&[f64], &[f64])> = (0..b.nvec())
        .flat_map(|j| (0..a.nvec()).map(move |i| (a.col(i), b.col(j))))
        .collect();
    on_widest_isa(
        #[inline(always)]
        || dots(&pairs),
    )
}

/// The local part of [`gram_sym`] — the `i ≤ j` triangle of `AᵀB`,
/// mirrored — followed, `with_norms`, by `bⱼᵀbⱼ` for every column.
fn gram_sym_local(a: &Multivector, b: &Multivector, with_norms: bool) -> Vec<f64> {
    let s = a.nvec();
    let upper: Vec<(usize, usize)> = (0..s).flat_map(|j| (0..=j).map(move |i| (i, j))).collect();
    let mut pairs: Vec<(&[f64], &[f64])> =
        upper.iter().map(|&(i, j)| (a.col(i), b.col(j))).collect();
    if with_norms {
        pairs.extend((0..s).map(|j| (b.col(j), b.col(j))));
    }
    let d = on_widest_isa(
        #[inline(always)]
        || dots(&pairs),
    );
    let mut out = vec![0.0; s * s];
    for (&(i, j), &dij) in upper.iter().zip(&d) {
        out[i + j * s] = dij;
        out[j + i * s] = dij;
    }
    out.extend_from_slice(&d[upper.len()..]);
    out
}

/// Distributed Gram product `G = AᵀB`: `G[i + j·a.nvec] = aᵢᵀ bⱼ`
/// (column-major `a.nvec × b.nvec`). One fused reduction carries the
/// whole matrix — `nvec²` scalars in a single allreduce instead of
/// `nvec²` scalar reductions.
pub fn gram(comm: &mut Comm, a: &Multivector, b: &Multivector) -> Vec<f64> {
    assert_eq!(a.nrows(), b.nrows(), "gram row mismatch");
    let local = comm.work(|| gram_local(a, b));
    comm.iallreduce(local, ReduceOp::Sum).wait(comm)
}

/// Distributed Gram product of a **symmetric** pair (`AᵀB` with
/// `AᵀB = BᵀA`, e.g. `PᵀAP` for SPD `A`, or `ZᵀR` with an SPD
/// preconditioner): computes only the `i ≤ j` triangle and mirrors it.
/// The mirror is bitwise exact — `aᵢᵀbⱼ` and `bⱼᵀaᵢ` multiply the same
/// pairs in the same order — so this is the plain [`gram`] at ~55 % of
/// the flops for equal-width panels.
pub fn gram_sym(comm: &mut Comm, a: &Multivector, b: &Multivector) -> Vec<f64> {
    assert_eq!(a.nrows(), b.nrows(), "gram row mismatch");
    assert_eq!(a.nvec(), b.nvec(), "symmetric gram needs equal widths");
    let local = comm.work(|| gram_sym_local(a, b, false));
    comm.iallreduce(local, ReduceOp::Sum).wait(comm)
}

/// Fused [`gram_sym`]`(z, r)` + [`column_norms`]`(r)` in a **single**
/// reduction: block-CG needs both after every panel update, and at scale
/// the second allreduce latency costs as much as the arithmetic.
pub fn gram_sym_with_norms(
    comm: &mut Comm,
    z: &Multivector,
    r: &Multivector,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(z.nrows(), r.nrows(), "gram row mismatch");
    assert_eq!(z.nvec(), r.nvec(), "symmetric gram needs equal widths");
    let s = z.nvec();
    let local = comm.work(|| gram_sym_local(z, r, true));
    let mut out = comm.iallreduce(local, ReduceOp::Sum).wait(comm);
    let norms = out.split_off(s * s).into_iter().map(f64::sqrt).collect();
    (out, norms)
}

/// Distributed 2-norm of every column, fused into one reduction.
pub fn column_norms(comm: &mut Comm, a: &Multivector) -> Vec<f64> {
    let local = comm.work(|| {
        (0..a.nvec())
            .map(|c| {
                let col = a.col(c);
                dot_local(col, col)
            })
            .collect::<Vec<f64>>()
    });
    comm.iallreduce(local, ReduceOp::Sum)
        .wait(comm)
        .into_iter()
        .map(f64::sqrt)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn layout_round_trips() {
        let mut mv = Multivector::new(3, 2);
        mv.col_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        mv.col_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(mv.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(mv.col(1), &[4.0, 5.0, 6.0]);
        let back = Multivector::from_columns(&[mv.col(0).to_vec(), mv.col(1).to_vec()]);
        assert_eq!(back, mv);
    }

    #[test]
    fn gram_and_norms_are_distributed() {
        let out = Universe::run(2, |comm| {
            // Each rank owns one row of [[1, 3], [2, 4]].
            let mut a = Multivector::new(1, 2);
            let base = comm.rank() as f64 + 1.0;
            a.col_mut(0)[0] = base; // column 0 = [1, 2]
            a.col_mut(1)[0] = base + 2.0; // column 1 = [3, 4]
            (gram(comm, &a, &a), column_norms(comm, &a))
        });
        for (g, norms) in out {
            assert_eq!(g, vec![5.0, 11.0, 11.0, 25.0]);
            assert!((norms[0] - 5.0f64.sqrt()).abs() < 1e-12);
            assert!((norms[1] - 25.0f64.sqrt()).abs() < 1e-12);
        }
    }

    /// `dot_local` in one piece: the reference every row-blocked Gram
    /// entry must equal bitwise.
    fn dot_local_reference(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = [0.0f64; 8];
        let chunks = x.len() / 8;
        for c in 0..chunks {
            for (l, a) in acc.iter_mut().enumerate() {
                let i = c * 8 + l;
                *a += x[i] * y[i];
            }
        }
        let mut tail = 0.0f64;
        for i in chunks * 8..x.len() {
            tail += x[i] * y[i];
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    fn random_mv(nrows: usize, nvec: usize, seed: u64) -> Multivector {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mv = Multivector::new(nrows, nvec);
        mv.as_mut_slice()
            .iter_mut()
            .for_each(|v| *v = rng.gen_range(-1.0..1.0));
        mv
    }

    /// Row blocking changes when each pair's partial sums are visited,
    /// never their order: every Gram entry (and norm) equals the per-pair
    /// `dot_local` bitwise, for lengths around the eight-lane chunk and
    /// the row block and a long ragged one, and for one, three and eight
    /// columns.
    #[test]
    fn blocked_grams_equal_per_pair_dots_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 511, 512, 513, 2053] {
            for s in [1usize, 3, 8] {
                let (a, b) = (
                    random_mv(n, s, n as u64 + 1),
                    random_mv(n, s, n as u64 + 99),
                );
                let dot = |x: &[f64], y: &[f64]| dot_local_reference(x, y).to_bits();
                let g = gram_local(&a, &b);
                for j in 0..s {
                    for i in 0..s {
                        assert_eq!(
                            g[i + j * s].to_bits(),
                            dot(a.col(i), b.col(j)),
                            "n={n} s={s}"
                        );
                    }
                }
                let sym = gram_sym_local(&a, &b, true);
                assert_eq!(sym.len(), s * s + s);
                assert_eq!(gram_sym_local(&a, &b, false)[..], sym[..s * s]);
                for j in 0..s {
                    for i in 0..=j {
                        let want = dot(a.col(i), b.col(j));
                        assert_eq!(sym[i + j * s].to_bits(), want, "n={n} s={s}");
                        assert_eq!(sym[j + i * s].to_bits(), want, "n={n} s={s}");
                    }
                    assert_eq!(sym[s * s + j].to_bits(), dot(b.col(j), b.col(j)));
                    assert_eq!(
                        dot_local(a.col(j), b.col(j)).to_bits(),
                        dot(a.col(j), b.col(j))
                    );
                }
            }
        }
    }

    #[test]
    fn default_apply_mv_loops_columns() {
        struct Scale(usize);
        impl LinOp for Scale {
            fn n_owned(&self) -> usize {
                self.0
            }
            fn apply(&mut self, _comm: &mut Comm, x: &[f64], y: &mut [f64]) {
                for (yo, xi) in y.iter_mut().zip(x) {
                    *yo = 2.0 * xi;
                }
            }
        }
        impl MultiLinOp for Scale {}
        let out = Universe::run(1, |comm| {
            let x = Multivector::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
            let mut y = Multivector::new(2, 2);
            Scale(2).apply_mv(comm, &x, &mut y);
            y
        });
        assert_eq!(out[0].as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }
}
