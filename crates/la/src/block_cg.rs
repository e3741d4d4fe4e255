//! Block conjugate gradients: one Krylov recurrence for `nvec`
//! right-hand sides sharing an operator.
//!
//! The solver follows O'Leary's block CG: every iteration applies the
//! operator to a whole direction *panel* (`Q = A·P`, one multivector
//! SpMM instead of `nvec` SPMVs — where the bandwidth win lives), then
//! couples the columns through two small `nvec × nvec` Gram systems
//! (`α = (PᵀQ)⁻¹ZᵀR`, `β = (ZᵀR)⁻¹Zᵀ₊R₊`). The Gram matrices are solved
//! with a **rank-revealing pivoted Cholesky**: a numerically
//! rank-deficient Gram matrix means the block Krylov space has collapsed
//! (converged, duplicated, or linearly dependent columns) — classic
//! block-CG breakdown.
//!
//! The recurrence, its recovery actions and the LFLR driver are the
//! crate's one CG core, run here over a panel arithmetic; this module
//! supplies that arithmetic's two kernels and the entry point. Breakdown
//! and fault handling use the resilient-CG budgets ([`RecoveryPolicy`],
//! [`SolverFault`]):
//!
//! * **rollback** — non-finite Gram entries or column norms (detected
//!   through collective reductions, so every rank branches identically)
//!   restore the last accepted iterate panel and re-derive `R = B − AX`;
//! * **rank truncation** — a rank-deficient Gram matrix (converged or
//!   dependent columns) is solved in its revealed range with the null
//!   directions pinned to zero, so the surviving subspace keeps
//!   converging without ever dividing by a collapsed pivot;
//! * **residual-replacement restart** — a rank-**zero** Gram matrix with
//!   unconverged columns (no usable direction at all) discards the
//!   poisoned direction panel and re-derives it from the true residual;
//! * **deflation fallback** — if the rank-zero collapse survives every
//!   restart, the still-unconverged columns are finished one by one with
//!   the scalar recurrence under the same policy, which cannot break down
//!   on rank (and reports a typed fault if the operator itself is at
//!   fault).

use hymv_comm::Comm;

use crate::dense::on_widest_isa;
use crate::krylov::{self, Panel};
use crate::mv::{MultiLinOp, Multivector};
use crate::precond::Precond;
use crate::resilient::{RecoveryPolicy, SolverFault};

/// Relative pivot threshold below which a Gram matrix counts as
/// numerically rank-deficient (block-CG breakdown).
const BREAKDOWN_RTOL: f64 = 1e-12;

/// Outcome of a block-CG solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockCgResult {
    /// Block iterations performed (each applies the operator once to the
    /// whole panel).
    pub iterations: usize,
    /// Whether every column met the relative-residual tolerance.
    pub converged: bool,
    /// Final relative residual `‖r_c‖/‖b_c‖` per column.
    pub rel_residuals: Vec<f64>,
    /// Worst-column relative residual at entry and after every iteration.
    pub history: Vec<f64>,
    /// Rollbacks to the last accepted iterate panel.
    pub rollbacks: usize,
    /// Rank-truncated Gram solves (breakdown handled in the range).
    pub truncations: usize,
    /// Residual-replacement restarts after a rank-zero Gram collapse.
    pub restarts: usize,
    /// Columns finished by the per-column resilient-CG fallback.
    pub deflated: usize,
    /// LFLR rank-crash recoveries survived.
    pub recoveries: usize,
}

/// Rank-revealing pivoted Cholesky solve of the SPSD system `G·X = C`
/// (`G` column-major `s × s`, `C` column-major `s × m`). Returns the
/// numerical rank `r` and the solution restricted to the revealed range:
/// components along the (s − r)-dimensional numerical null space are set
/// to zero. `r < s` is the block-CG breakdown signal — it appears both
/// benignly (columns that already converged contribute ~zero residual
/// directions) and for genuinely dependent right-hand sides; `r == 0`
/// means the Gram matrix carries no usable direction at all.
pub(crate) fn solve_spd_rr(g: &[f64], s: usize, c: &[f64], m: usize) -> (usize, Vec<f64>) {
    debug_assert_eq!(g.len(), s * s);
    debug_assert_eq!(c.len(), s * m);
    // Work on a permuted copy: a[i + j*s] with rows/cols in pivot order.
    let mut a = g.to_vec();
    let mut perm: Vec<usize> = (0..s).collect();
    let dmax = (0..s).map(|i| g[i + i * s]).fold(0.0f64, f64::max);
    if !dmax.is_finite() || dmax <= 0.0 {
        return (0, vec![0.0; s * m]);
    }
    let tol = dmax * BREAKDOWN_RTOL;
    let mut rank = s;
    for k in 0..s {
        // Diagonal pivot.
        let piv = (k..s)
            .max_by(|&i, &j| {
                a[i + i * s]
                    .partial_cmp(&a[j + j * s])
                    .expect("finite Gram diagonal")
            })
            .expect("non-empty");
        if a[piv + piv * s] <= tol {
            rank = k; // numerical rank < s: truncate here
            break;
        }
        if piv != k {
            perm.swap(k, piv);
            for j in 0..s {
                a.swap(k + j * s, piv + j * s);
            }
            for i in 0..s {
                a.swap(i + k * s, i + piv * s);
            }
        }
        let d = a[k + k * s].sqrt();
        a[k + k * s] = d;
        for i in k + 1..s {
            a[i + k * s] /= d;
        }
        // Schur update of the FULL trailing block (both triangles): the
        // symmetric pivot swap above exchanges whole rows/columns, so the
        // upper triangle must stay in sync with the lower one.
        for j in k + 1..s {
            let ljk = a[j + k * s];
            for i in k + 1..s {
                a[i + j * s] -= a[i + k * s] * ljk;
            }
        }
    }
    // G ≈ Pᵀ L Lᵀ P with perm[i] the original index of pivoted row i and
    // L the leading rank × rank factor: forward/backward substitution in
    // pivot order over the range, null components pinned to zero.
    let mut x = vec![0.0; s * m];
    let mut y = vec![0.0; s];
    for col in 0..m {
        let rhs = &c[col * s..(col + 1) * s];
        for i in 0..rank {
            let mut v = rhs[perm[i]];
            for k in 0..i {
                v -= a[i + k * s] * y[k];
            }
            y[i] = v / a[i + i * s];
        }
        for i in (0..rank).rev() {
            let mut v = y[i];
            for k in i + 1..rank {
                v -= a[k + i * s] * y[k];
            }
            y[i] = v / a[i + i * s];
        }
        for i in 0..rank {
            x[perm[i] + col * s] = y[i];
        }
    }
    (rank, x)
}

/// Row-block size for [`gemm_acc`]: row blocks are the outer loop, so a
/// tile of every source column (16 KiB at `s = 8`) stays in L1 while all
/// destination columns of the block are updated from it — the source is
/// streamed once per panel update instead of once per destination column.
const GEMM_ROW_BLOCK: usize = 256;

/// `dst.col(j) += Σ_k m[k + j·s] · src.col(k)` — panel GEMM update. Every
/// entry adds its terms in `k` order, skipping zero coefficients.
pub(crate) fn gemm_acc(dst: &mut Multivector, src: &Multivector, m: &[f64], sign: f64) {
    let s = src.nvec();
    debug_assert_eq!(m.len(), s * dst.nvec());
    on_widest_isa(
        #[inline(always)]
        || {
            for r0 in (0..dst.nrows()).step_by(GEMM_ROW_BLOCK) {
                let r1 = (r0 + GEMM_ROW_BLOCK).min(dst.nrows());
                for j in 0..dst.nvec() {
                    let blk = &mut dst.col_mut(j)[r0..r1];
                    for k in 0..s {
                        let a = sign * m[k + j * s];
                        if a != 0.0 {
                            for (d, &v) in blk.iter_mut().zip(&src.col(k)[r0..r1]) {
                                *d += a * v;
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Preconditioned block CG: solves `A X = B` column-wise to relative
/// tolerance `rtol` with one operator panel-apply per iteration. `x`
/// holds the initial guesses on entry and the solutions on exit.
///
/// With [`crate::resilient::CheckpointPolicy::every`] > 0 and an active
/// fault injector the solve arms LFLR crash recovery, exactly like
/// [`crate::resilient::resilient_cg`].
#[allow(clippy::too_many_arguments)]
pub fn block_cg(
    comm: &mut Comm,
    op: &mut dyn MultiLinOp,
    precond: &mut dyn Precond,
    b: &Multivector,
    x: &mut Multivector,
    rtol: f64,
    max_iter: usize,
    policy: &RecoveryPolicy,
) -> Result<BlockCgResult, SolverFault> {
    krylov::run_cg(
        comm,
        &mut Panel::new(op, precond, b, x),
        rtol,
        max_iter,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use crate::solver::{cg, LinOp};
    use hymv_comm::Universe;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Serial SPD reference operator (column-major dense).
    struct DenseOp {
        n: usize,
        a: Vec<f64>,
    }

    impl LinOp for DenseOp {
        fn n_owned(&self) -> usize {
            self.n
        }
        fn apply(&mut self, _comm: &mut Comm, x: &[f64], y: &mut [f64]) {
            y.fill(0.0);
            for j in 0..self.n {
                for i in 0..self.n {
                    y[i] += self.a[j * self.n + i] * x[j];
                }
            }
        }
    }
    impl MultiLinOp for DenseOp {}

    /// Poisons the output of selected applies with NaN.
    struct FlakyOp {
        inner: DenseOp,
        applies: usize,
        poison: std::ops::Range<usize>,
    }

    impl LinOp for FlakyOp {
        fn n_owned(&self) -> usize {
            self.inner.n_owned()
        }
        fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
            self.inner.apply(comm, x, y);
            if self.poison.contains(&self.applies) {
                y[0] = f64::NAN;
            }
            self.applies += 1;
        }
    }
    impl MultiLinOp for FlakyOp {}

    fn random_spd(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += m[i * n + k] * m[j * n + k];
                }
                a[j * n + i] = s;
            }
            a[i * n + i] += n as f64;
        }
        a
    }

    fn random_rhs(n: usize, nvec: usize, seed: u64) -> Multivector {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols: Vec<Vec<f64>> = (0..nvec)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Multivector::from_columns(&cols)
    }

    /// The reference panel update: destination column outermost, each
    /// column in row blocks.
    fn gemm_acc_reference(dst: &mut Multivector, src: &Multivector, m: &[f64], sign: f64) {
        let s = src.nvec();
        let nrows = dst.nrows();
        for j in 0..dst.nvec() {
            let dst_col = dst.col_mut(j);
            let mut r0 = 0;
            while r0 < nrows {
                let r1 = (r0 + GEMM_ROW_BLOCK).min(nrows);
                let blk = &mut dst_col[r0..r1];
                for k in 0..s {
                    let a = sign * m[k + j * s];
                    if a != 0.0 {
                        for (d, &v) in blk.iter_mut().zip(&src.col(k)[r0..r1]) {
                            *d += a * v;
                        }
                    }
                }
                r0 = r1;
            }
        }
    }

    /// The loop order changes which tile is in cache, not what is added in
    /// which order: bitwise the reference, zero and negative-zero
    /// coefficients (skipped, so a `-0.0` entry cannot flip a zero's sign)
    /// included, across row-block edges.
    #[test]
    fn row_blocked_gemm_equals_the_column_outer_loop_bitwise() {
        for nrows in [0usize, 1, 255, 256, 257, 1000] {
            for s in [1usize, 3, 8] {
                let src = random_rhs(nrows, s, nrows as u64 + 3);
                let mut m: Vec<f64> = random_rhs(s, s, nrows as u64 + 5).as_slice().to_vec();
                m[0] = 0.0;
                if s > 1 {
                    m[s + 1] = -0.0;
                    m[s * s - 1] = 0.0;
                }
                for sign in [1.0, -1.0] {
                    let mut dst = random_rhs(nrows, s, nrows as u64 + 7);
                    dst.col_mut(0).iter_mut().step_by(5).for_each(|v| *v = 0.0);
                    let mut want = dst.clone();
                    gemm_acc(&mut dst, &src, &m, sign);
                    gemm_acc_reference(&mut want, &src, &m, sign);
                    for (a, b) in dst.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "nrows={nrows} s={s} sign={sign}");
                    }
                }
            }
        }
    }

    #[test]
    fn spd_rr_random_matches_solve_dense() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for s in [2usize, 3, 4, 6, 8] {
            for trial in 0..20 {
                let m: Vec<f64> = (0..s * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut g = vec![0.0; s * s];
                for i in 0..s {
                    for j in 0..s {
                        let mut acc = 0.0;
                        for k in 0..s {
                            acc += m[i * s + k] * m[j * s + k];
                        }
                        g[j * s + i] = acc;
                    }
                    g[i * s + i] += 0.5;
                }
                let c: Vec<f64> = (0..s).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (rank, x) = super::solve_spd_rr(&g, s, &c, 1);
                assert_eq!(rank, s, "s={s} trial={trial}");
                let x_ref = crate::dense::solve_dense(g.clone(), c.clone());
                for i in 0..s {
                    assert!(
                        (x[i] - x_ref[i]).abs() < 1e-9,
                        "s={s} trial={trial} i={i}: {} vs {}",
                        x[i],
                        x_ref[i]
                    );
                }
            }
        }
    }

    #[test]
    fn spd_rr_solves_and_detects_rank() {
        let g = vec![5.0, 2.0, 2.0, 2.0];
        let c = vec![1.0, 0.0, 0.0, 1.0]; // identity rhs -> inverse
        let (rank, x) = solve_spd_rr(&g, 2, &c, 2);
        assert_eq!(rank, 2);
        // G⁻¹ = 1/6 [2 -2; -2 5]
        let want = [2.0 / 6.0, -2.0 / 6.0, -2.0 / 6.0, 5.0 / 6.0];
        for i in 0..4 {
            assert!(
                (x[i] - want[i]).abs() < 1e-12,
                "{i}: {} vs {}",
                x[i],
                want[i]
            );
        }
        // Rank-1 Gram matrix: solve must truncate, not divide by ~0, and
        // still satisfy G x = c in the range (c = G itself here).
        let g = vec![1.0, 1.0, 1.0, 1.0];
        let (rank, x) = solve_spd_rr(&g, 2, &g.clone(), 2);
        assert_eq!(rank, 1);
        for col in 0..2 {
            let gx0 = g[0] * x[col * 2] + g[2] * x[col * 2 + 1];
            let gx1 = g[1] * x[col * 2] + g[3] * x[col * 2 + 1];
            assert!((gx0 - 1.0).abs() < 1e-12 && (gx1 - 1.0).abs() < 1e-12);
        }
        // The zero matrix has rank 0.
        let (rank, _) = solve_spd_rr(&[0.0; 4], 2, &c, 2);
        assert_eq!(rank, 0);
    }

    #[test]
    fn block_cg_matches_per_rhs_cg() {
        let n = 40;
        let nvec = 4;
        let a = random_spd(n, 5);
        let out = Universe::run(1, |comm| {
            let b = random_rhs(n, nvec, 7);
            let mut x = Multivector::new(n, nvec);
            let mut op = DenseOp { n, a: a.clone() };
            let res = block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                500,
                &RecoveryPolicy::default(),
            )
            .expect("healthy operator");
            assert!(res.converged, "{res:?}");
            assert_eq!(res.rollbacks + res.restarts + res.deflated, 0);
            // (Rank truncations near convergence are benign and allowed.)

            // Per-RHS reference solves.
            let mut max_single_iters = 0usize;
            let mut max_err = 0.0f64;
            for c in 0..nvec {
                let mut op = DenseOp { n, a: a.clone() };
                let mut xc = vec![0.0; n];
                let single = cg(comm, &mut op, &mut Identity, b.col(c), &mut xc, 1e-10, 500);
                assert!(single.converged);
                max_single_iters = max_single_iters.max(single.iterations);
                for i in 0..n {
                    max_err = max_err.max((x.col(c)[i] - xc[i]).abs());
                }
            }
            (res.iterations, max_single_iters, max_err)
        });
        let (block_iters, single_iters, err) = out[0];
        // Convergence parity: the block space contains every per-RHS
        // space, so block iterations can't exceed the worst column (plus
        // slack for the different convergence test).
        assert!(
            block_iters <= single_iters + 2,
            "block {block_iters} vs per-rhs {single_iters}"
        );
        assert!(err < 1e-7, "solutions disagree by {err}");
    }

    #[test]
    fn duplicate_columns_truncate_and_converge() {
        let n = 25;
        let a = random_spd(n, 11);
        let out = Universe::run(1, |comm| {
            let col: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let b = Multivector::from_columns(&[col.clone(), col.clone(), col.clone()]);
            let mut x = Multivector::new(n, 3);
            let mut op = DenseOp { n, a: a.clone() };
            let res = block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                500,
                &RecoveryPolicy::default(),
            )
            .expect("rank truncation must rescue dependent rhs");
            assert!(res.converged, "{res:?}");
            assert!(
                res.truncations > 0,
                "dependent columns must reveal rank deficiency: {res:?}"
            );
            // All three columns must carry the same (correct) solution.
            let mut op = DenseOp { n, a: a.clone() };
            let mut x_ref = vec![0.0; n];
            cg(comm, &mut op, &mut Identity, &col, &mut x_ref, 1e-10, 500);
            let mut max_err = 0.0f64;
            for c in 0..3 {
                for i in 0..n {
                    max_err = max_err.max((x.col(c)[i] - x_ref[i]).abs());
                }
            }
            max_err
        });
        assert!(out[0] < 1e-7, "dependent columns off by {}", out[0]);
    }

    #[test]
    fn rank_zero_operator_deflates_to_typed_fault() {
        // A = 0: Q = AP = 0, so PᵀQ has rank 0 on the very first
        // iteration, every restart re-derives the same collapse, and the
        // deflation fallback's scalar CG reports the indefinite operator.
        let n = 6;
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp {
                n,
                a: vec![0.0; n * n],
            };
            let b = Multivector::from_columns(&[vec![1.0; n], vec![2.0; n]]);
            let mut x = Multivector::new(n, 2);
            block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                100,
                &RecoveryPolicy::default(),
            )
        });
        match out[0].as_ref().expect_err("the zero operator is not SPD") {
            SolverFault::IndefiniteOperator { .. } => {}
            other => panic!("wrong fault: {other:?}"),
        }
    }

    #[test]
    fn transient_nan_rolls_back_and_converges() {
        let n = 20;
        let nvec = 3;
        let a = random_spd(n, 17);
        let out = Universe::run(1, |comm| {
            let b = random_rhs(n, nvec, 19);
            let mut x = Multivector::new(n, nvec);
            let mut op = FlakyOp {
                inner: DenseOp { n, a: a.clone() },
                applies: 0,
                // Poison one column-apply of the second panel apply.
                poison: 4..5,
            };
            let res = block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                500,
                &RecoveryPolicy::default(),
            )
            .expect("one NaN apply is recoverable");
            assert!(res.converged, "{res:?}");
            assert!(res.rollbacks >= 1, "the NaN must have forced a rollback");
            // Verify against untainted per-column solves.
            let mut max_err = 0.0f64;
            for c in 0..nvec {
                let mut op = DenseOp { n, a: a.clone() };
                let mut xc = vec![0.0; n];
                cg(comm, &mut op, &mut Identity, b.col(c), &mut xc, 1e-10, 500);
                for i in 0..n {
                    max_err = max_err.max((x.col(c)[i] - xc[i]).abs());
                }
            }
            max_err
        });
        assert!(out[0] < 1e-7, "recovered solution off by {}", out[0]);
    }

    #[test]
    fn persistent_nan_returns_typed_fault() {
        let n = 10;
        let a = random_spd(n, 2);
        let out = Universe::run(1, |comm| {
            let b = random_rhs(n, 2, 3);
            let mut x = Multivector::new(n, 2);
            let mut op = FlakyOp {
                inner: DenseOp { n, a: a.clone() },
                applies: 0,
                poison: 0..usize::MAX,
            };
            block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                100,
                &RecoveryPolicy::default(),
            )
        });
        match out[0].as_ref().expect_err("every apply is poisoned") {
            SolverFault::NonFiniteRecurrence { rollbacks, .. } => {
                assert_eq!(*rollbacks, RecoveryPolicy::default().max_rollbacks);
            }
            other => panic!("wrong fault: {other:?}"),
        }
    }

    #[test]
    fn nonfinite_rhs_is_rejected_up_front() {
        let out = Universe::run(2, |comm| {
            let n = 4;
            let mut op = DenseOp {
                n,
                a: random_spd(n, 3),
            };
            let mut b = Multivector::new(n, 2);
            if comm.rank() == 1 {
                b.col_mut(1)[2] = f64::INFINITY;
            }
            let mut x = Multivector::new(n, 2);
            block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-8,
                10,
                &RecoveryPolicy::default(),
            )
        });
        for res in &out {
            assert_eq!(
                res.as_ref().expect_err("rhs has Inf"),
                &SolverFault::NonFiniteRhs
            );
        }
    }

    #[test]
    fn zero_columns_short_circuit_and_mixed_blocks_solve() {
        let n = 15;
        let a = random_spd(n, 23);
        let out = Universe::run(1, |comm| {
            let live: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
            let b = Multivector::from_columns(&[vec![0.0; n], live.clone()]);
            let mut x = Multivector::new(n, 2);
            x.col_mut(0).fill(3.0); // must be reset to the exact solution 0
            let mut op = DenseOp { n, a: a.clone() };
            let res = block_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                500,
                &RecoveryPolicy::default(),
            )
            .expect("healthy");
            assert!(res.converged, "{res:?}");
            assert_eq!(res.rel_residuals[0], 0.0);
            (x.col(0).to_vec(), res)
        });
        assert!(out[0].0.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn jacobi_preconditioning_works_blockwise() {
        let n = 30;
        let out = Universe::run(2, |comm| {
            let a = random_spd(n, comm.rank() as u64 + 29);
            let diag: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
            let mut op = DenseOp { n, a };
            let b = random_rhs(n, 3, 31 + comm.rank() as u64);
            let mut x = Multivector::new(n, 3);
            let mut pc = Jacobi::new(&diag);
            let res = block_cg(
                comm,
                &mut op,
                &mut pc,
                &b,
                &mut x,
                1e-10,
                500,
                &RecoveryPolicy::default(),
            )
            .expect("healthy");
            assert!(res.converged, "{res:?}");
            // Residual check: ‖b − Ax‖ per column.
            let mut r = Multivector::new(n, 3);
            op.apply_mv(comm, &x, &mut r);
            let mut worst = 0.0f64;
            for c in 0..3 {
                let rn: f64 = r
                    .col(c)
                    .iter()
                    .zip(b.col(c))
                    .map(|(y, bb)| (bb - y) * (bb - y))
                    .sum::<f64>()
                    .sqrt();
                let bn: f64 = b.col(c).iter().map(|v| v * v).sum::<f64>().sqrt();
                worst = worst.max(rn / bn);
            }
            worst
        });
        assert!(out.iter().all(|&w| w <= 1e-9), "{out:?}");
    }
}
