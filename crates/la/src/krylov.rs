//! The conjugate-gradient recurrence, written once.
//!
//! [`crate::solver::cg`], [`crate::resilient::resilient_cg`] and
//! [`crate::block_cg::block_cg`] all run [`run_cg`]: one recovery-aware CG
//! loop over an [`Arith`], the arithmetic of one iteration on a single
//! vector ([`Scalar`]) or on an `nvec`-wide panel ([`Panel`], O'Leary's
//! block CG). The loop holds what the three solvers share:
//!
//! * the LFLR driver (arm → [`catch_revoked`] → [`Comm::lflr_recover`] →
//!   [`LinOp::repair`] → restore; DESIGN.md §15);
//! * the derivation `r = b − A x`, `z = M⁻¹ r`, `p = z`, re-run after
//!   every recovery action: a non-finite reduction rolls back to the last
//!   accepted iterate, a breakdown keeps the iterate and restarts;
//! * the budgets of [`RecoveryPolicy`] and their typed [`SolverFault`]s;
//! * the checkpoint cadence and its one blob layout;
//! * the `SolverIter` span and the `hymv_solver_iterations_total` counter.
//!
//! Every branch is taken on collectively reduced values, so every rank
//! takes the same one. Each iteration blocks on two reductions: `pᵀAp`,
//! then `zᵀr` fused with `‖r‖`.

use hymv_comm::{catch_revoked, Comm, ReduceOp};

use crate::block_cg::{gemm_acc, solve_spd_rr, BlockCgResult};
use crate::mv::{column_norms, gram_sym, gram_sym_with_norms, MultiLinOp, Multivector};
use crate::precond::Precond;
use crate::resilient::{RecoveryPolicy, SolverFault};
use crate::solver::{CgResult, HostLoops, LinOp, VectorLoops};

/// What one step of the recurrence found, in rising severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Step {
    /// Full rank; the update was applied.
    Full,
    /// Solved in a rank-deficient range (panel only); the update was
    /// applied.
    Truncated,
    /// No usable direction (`pᵀAp ≤ 0`, or a rank-zero Gram matrix):
    /// nothing was updated; restart from the current iterate.
    Breakdown,
    /// A reduction came back NaN/Inf: roll back to the last accepted
    /// iterate.
    NonFinite,
}

/// The arithmetic of one CG iteration over `s` columns. The reductions
/// return `γ = zᵀr` (`s × s`, column-major) and `‖r‖` per column.
///
/// The method names are unique in the workspace: `hymv-verify` resolves
/// calls by name.
pub(crate) trait Arith {
    /// The iterate, residual and direction as flat column-major slices:
    /// what a checkpoint and a rollback copy.
    fn cg_state(&mut self) -> [&mut [f64]; 3];
    /// `‖b‖` per column, in one reduction; non-finite if `b` holds a NaN
    /// or an infinity.
    fn cg_rhs_norms(&mut self, comm: &mut Comm) -> Vec<f64>;
    /// `r = b − A x`, `z = M⁻¹ r`, `p = z`; returns `(γ, ‖r‖)`.
    fn cg_derive(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>);
    /// `q = A p`, `δ = pᵀq`, `α = δ⁻¹γ`, `x += p α`, `r −= q α`.
    fn cg_search(&mut self, comm: &mut Comm, gamma: &[f64]) -> Step;
    /// `z = M⁻¹ r`; returns `(γ₊, ‖r‖)`.
    fn cg_precondition(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>);
    /// `β = γ⁻¹γ₊`, `p = z + p β`.
    fn cg_direction(&mut self, comm: &mut Comm, gamma: &[f64], gamma_new: &[f64]) -> Step;
    /// The restart budget ran out with `budget` iterations left and the
    /// current `‖r‖/‖b‖` in `out.rel_residuals`: finish the solve some
    /// other way and return the final `‖r‖` per column, or return the
    /// fault.
    fn cg_exhausted(
        &mut self,
        comm: &mut Comm,
        rtol: f64,
        budget: usize,
        policy: &RecoveryPolicy,
        out: &mut BlockCgResult,
    ) -> Result<Vec<f64>, SolverFault>;
    /// Rebuild the operator's rank-local state after LFLR recovery
    /// resurrected the ranks in `dead`.
    fn cg_repair(&mut self, comm: &mut Comm, dead: &[usize]);
}

impl BlockCgResult {
    /// The single-column result.
    pub(crate) fn into_cg_result(self) -> CgResult {
        CgResult {
            iterations: self.iterations,
            converged: self.converged,
            rel_residual: self.rel_residuals[0],
            history: self.history,
        }
    }
}

/// Solve with arithmetic `a` to relative tolerance `rtol` in at most
/// `max_iter` iterations under `policy`; the result of a scalar solve is
/// a width-1 [`BlockCgResult`]. With
/// [`crate::resilient::CheckpointPolicy::every`] > 0 and an active fault
/// injector the solve arms LFLR crash recovery: a revoked world rolls
/// every rank back to the last buddy checkpoint and continues, producing
/// the bits a fault-free run would.
pub(crate) fn run_cg(
    comm: &mut Comm,
    a: &mut impl Arith,
    rtol: f64,
    max_iter: usize,
    policy: &RecoveryPolicy,
) -> Result<BlockCgResult, SolverFault> {
    let ckpt = policy.checkpoint;
    // Arm only when this invocation owns the protocol: checkpointing is
    // requested, an injector exists, and no enclosing solve (block-CG
    // deflation) armed it already — a nested arm would clobber the
    // owner's checkpoints, and a `Revoked` must unwind to the owner.
    if !(ckpt.every > 0 && !comm.lflr_armed() && comm.lflr_arm()) {
        return attempt(comm, a, rtol, max_iter, policy, false, None);
    }
    let x0 = a.cg_state()[0].to_vec();
    let mut restore = None;
    let mut recoveries = 0usize;
    loop {
        let retry = || attempt(comm, a, rtol, max_iter, policy, true, restore.take());
        match catch_revoked(retry) {
            Ok(res) => {
                comm.lflr_disarm();
                return res.map(|out| BlockCgResult { recoveries, ..out });
            }
            Err(_revoked) => {
                // Collective world repair, then operator repair (rebuild
                // exchange plans on the resurrected ranks), then roll
                // back to the restored checkpoint — or the initial guess
                // if the crash predated the first checkpoint.
                let recovery = comm.lflr_recover();
                a.cg_repair(comm, &recovery.dead);
                recoveries += 1;
                if recoveries > ckpt.max_recoveries {
                    comm.lflr_disarm();
                    return Err(SolverFault::RecoveryBudgetExhausted {
                        recoveries: recoveries - 1,
                    });
                }
                restore = recovery.checkpoint;
                if restore.is_none() {
                    a.cg_state()[0].copy_from_slice(&x0);
                }
            }
        }
    }
}

/// One solve attempt: the recurrence with its rollback and restart
/// recovery, plus (when `armed`) a buddy checkpoint every
/// `checkpoint.every` iterations and the installation of `restore`.
///
/// The checkpoint blob is the complete state at the loop head: the
/// counters (iterations, rollbacks, restarts, truncations), `γ` (`s²`),
/// `‖r‖` (`s`), then `x`, `r`, `p`, then the history. `z` and `q` are
/// overwritten before they are read; every count fits exactly in an f64.
fn attempt(
    comm: &mut Comm,
    a: &mut impl Arith,
    rtol: f64,
    max_iter: usize,
    policy: &RecoveryPolicy,
    armed: bool,
    mut restore: Option<(u64, Vec<f64>)>,
) -> Result<BlockCgResult, SolverFault> {
    // ‖b‖ is reduced, so every rank takes the same exit.
    let mut scale = a.cg_rhs_norms(comm);
    if !scale.iter().all(|v| v.is_finite()) {
        return Err(SolverFault::NonFiniteRhs);
    }
    // Zero columns are solved by x = 0; scale 1 keeps their residual
    // ratios well-defined (they stay exactly 0).
    let s = scale.len();
    let [x, ..] = a.cg_state();
    let n = x.len() / s;
    for (c, v) in scale.iter_mut().enumerate() {
        if *v == 0.0 {
            x[c * n..(c + 1) * n].fill(0.0);
            *v = 1.0;
        }
    }
    let ratios = |rn: &[f64]| -> Vec<f64> { rn.iter().zip(&scale).map(|(r, s)| r / s).collect() };
    let worst = |rn: &[f64]| ratios(rn).into_iter().fold(0.0f64, f64::max);
    let finite = |g: &[f64], rn: &[f64]| g.iter().chain(rn).all(|v| v.is_finite());
    // The last accepted iterate, the rollback target. With no rollback
    // budgeted it is never read, so it is never copied.
    let mut snapshot = (policy.max_rollbacks > 0).then(|| x.to_vec());

    let mut t = BlockCgResult::default();
    let (mut gamma, mut rnorms): (Vec<f64>, Vec<f64>);
    loop {
        let step = 'iterate: {
            if let Some((_round, blob)) = restore.take() {
                // LFLR rollback: install the recovered checkpoint verbatim.
                // Every rank restores the same round (the recovery's
                // consistency barrier proved it), so the replayed
                // arithmetic is bitwise the fault-free run's.
                let mut rest = blob.as_slice();
                let mut take = |len: usize| {
                    let (head, tail) = rest.split_at(len);
                    rest = tail;
                    head
                };
                let c = take(4);
                (t.iterations, t.rollbacks, t.restarts, t.truncations) =
                    (c[0] as usize, c[1] as usize, c[2] as usize, c[3] as usize);
                gamma = take(s * s).to_vec();
                rnorms = take(s).to_vec();
                for v in a.cg_state() {
                    v.copy_from_slice(take(v.len()));
                }
                t.history = rest.to_vec();
                if let Some(snap) = &mut snapshot {
                    snap.copy_from_slice(a.cg_state()[0]);
                }
            } else {
                (gamma, rnorms) = a.cg_derive(comm);
                if !finite(&gamma, &rnorms) {
                    break 'iterate Step::NonFinite;
                }
                if t.history.is_empty() {
                    t.history.push(worst(&rnorms));
                }
            }

            while !ratios(&rnorms).iter().all(|&q| q <= rtol) && t.iterations < max_iter {
                if armed
                    && t.iterations % policy.checkpoint.every == 0
                    && comm.checkpoint_round() != Some(t.iterations as u64)
                {
                    // The round guard keeps the exchange collective: after
                    // a restore (or a rollback to the same iteration
                    // count) every rank already holds this round and
                    // skips it.
                    let counters = [t.iterations, t.rollbacks, t.restarts, t.truncations];
                    let mut blob: Vec<f64> = counters.iter().map(|&c| c as f64).collect();
                    blob.extend(gamma.iter().chain(&rnorms));
                    for v in a.cg_state() {
                        blob.extend_from_slice(v);
                    }
                    blob.extend_from_slice(&t.history);
                    comm.checkpoint_exchange(t.iterations as u64, &blob);
                }
                // Recovery exits drop the guard, which closes the span at
                // the last stamped instant.
                let iter_span =
                    hymv_trace::SpanGuard::open(hymv_trace::Phase::SolverIter, comm.vt());
                let step = a.cg_search(comm, &gamma);
                if step > Step::Truncated {
                    break 'iterate step;
                }
                t.truncations += usize::from(step == Step::Truncated);
                let (gamma_new, rnorms_new) = a.cg_precondition(comm);
                if !finite(&gamma_new, &rnorms_new) {
                    break 'iterate Step::NonFinite;
                }
                rnorms = rnorms_new;
                t.history.push(worst(&rnorms));
                t.iterations += 1;
                // The iterate survived every collective check: accept it.
                if let Some(snap) = &mut snapshot {
                    snap.copy_from_slice(a.cg_state()[0]);
                }
                let step = a.cg_direction(comm, &gamma, &gamma_new);
                if step > Step::Truncated {
                    break 'iterate step;
                }
                t.truncations += usize::from(step == Step::Truncated);
                gamma = gamma_new;
                iter_span.close(comm.vt());
            }
            Step::Full
        };
        match step {
            Step::Full | Step::Truncated => break,
            Step::NonFinite => {
                t.rollbacks += 1;
                if t.rollbacks > policy.max_rollbacks {
                    return Err(SolverFault::NonFiniteRecurrence {
                        iteration: t.iterations,
                        rollbacks: t.rollbacks - 1,
                    });
                }
                if let Some(snap) = &snapshot {
                    a.cg_state()[0].copy_from_slice(snap);
                }
            }
            Step::Breakdown => {
                // Keep the (finite) iterate; rebuild the directions from
                // the true residual.
                t.restarts += 1;
                if t.restarts > policy.max_restarts {
                    t.rel_residuals = ratios(&rnorms);
                    let budget = max_iter.saturating_sub(t.iterations);
                    rnorms = a.cg_exhausted(comm, rtol, budget, policy, &mut t)?;
                    t.history.push(worst(&rnorms));
                    break;
                }
            }
        }
    }
    hymv_trace::counter_add("hymv_solver_iterations_total", &[], t.iterations as u64);
    t.rel_residuals = ratios(&rnorms);
    t.converged = t.rel_residuals.iter().all(|&q| q <= rtol);
    Ok(t)
}

/// CG on one owned-dof vector, in `cg`'s operations and order:
/// sequential local sums as [`crate::solver::dot`] does them,
/// `α = rᵀz / pᵀAp`, `x += αp` and `r −= α·Ap` in one loop, `p = z + βp`.
/// Every vector loop runs through `loops` with its flop and byte counts
/// (`n` doubles per vector; an update reads its inputs and reads and
/// writes its output).
pub(crate) struct Scalar<'a, O: LinOp + ?Sized, L: VectorLoops> {
    op: &'a mut O,
    precond: &'a mut dyn Precond,
    loops: &'a mut L,
    b: &'a [f64],
    x: &'a mut [f64],
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl<'a, O: LinOp + ?Sized, L: VectorLoops> Scalar<'a, O, L> {
    pub(crate) fn new(
        op: &'a mut O,
        precond: &'a mut dyn Precond,
        loops: &'a mut L,
        b: &'a [f64],
        x: &'a mut [f64],
    ) -> Self {
        let n = op.n_owned();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        let (r, z, p, ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        Scalar {
            op,
            precond,
            loops,
            b,
            x,
            r,
            z,
            p,
            ap,
        }
    }

    /// `(n, 8n)`: the flop and byte units of one vector loop.
    fn units(&self) -> (u64, usize) {
        (self.b.len() as u64, 8 * self.b.len())
    }
}

impl<O: LinOp + ?Sized, L: VectorLoops> Arith for Scalar<'_, O, L> {
    fn cg_state(&mut self) -> [&mut [f64]; 3] {
        [&mut *self.x, &mut self.r, &mut self.p]
    }

    fn cg_rhs_norms(&mut self, comm: &mut Comm) -> Vec<f64> {
        let ((n, v), b) = (self.units(), self.b);
        let [local] = self.loops.vector_sums(comm, 2 * n, 2 * v, || {
            [b.iter().map(|a| a * a).sum::<f64>()]
        });
        vec![comm.allreduce_sum_f64(local).sqrt()]
    }

    fn cg_derive(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>) {
        self.op.apply(comm, self.x, &mut self.r);
        let ((n, v), r, b) = (self.units(), &mut self.r, self.b);
        self.loops.vector_update(comm, n, 3 * v, || {
            for (r, b) in r.iter_mut().zip(b) {
                *r = b - *r;
            }
        });
        let reduced = self.cg_precondition(comm);
        self.p.copy_from_slice(&self.z);
        reduced
    }

    fn cg_search(&mut self, comm: &mut Comm, gamma: &[f64]) -> Step {
        self.op.apply(comm, &self.p, &mut self.ap);
        let ((n, v), p, ap) = (self.units(), &self.p, &self.ap);
        let [local] = self.loops.vector_sums(comm, 2 * n, 2 * v, || {
            [p.iter().zip(ap).map(|(a, b)| a * b).sum::<f64>()]
        });
        let pap = comm.allreduce_sum_f64(local);
        if !pap.is_finite() {
            return Step::NonFinite;
        }
        if pap <= 0.0 {
            return Step::Breakdown;
        }
        let alpha = gamma[0] / pap;
        let (x, r) = (&mut *self.x, &mut self.r);
        self.loops.vector_update(comm, 4 * n, 6 * v, || {
            for (((x, r), p), ap) in x.iter_mut().zip(r).zip(p).zip(ap) {
                *x += alpha * p;
                *r -= alpha * ap;
            }
        });
        Step::Full
    }

    /// `rᵀz` and `‖r‖` in one reduction, with the bits of two `dot`s: each
    /// local sum runs in `dot`'s order, and the reduction folds the rank
    /// contributions in rank order from rank 0's, as `dot`'s does.
    fn cg_precondition(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>) {
        self.precond.apply(comm, &self.r, &mut self.z);
        let ((n, v), r, z) = (self.units(), &self.r, &self.z);
        let local = self.loops.vector_sums(comm, 4 * n, 4 * v, || {
            [
                r.iter().zip(z).map(|(a, b)| a * b).sum::<f64>(),
                r.iter().map(|a| a * a).sum::<f64>(),
            ]
        });
        let red = comm.iallreduce(local.to_vec(), ReduceOp::Sum).wait(comm);
        (vec![red[0]], vec![red[1].sqrt()])
    }

    fn cg_direction(&mut self, comm: &mut Comm, gamma: &[f64], gamma_new: &[f64]) -> Step {
        let beta = gamma_new[0] / gamma[0];
        let ((n, v), p, z) = (self.units(), &mut self.p, &self.z);
        self.loops.vector_update(comm, 2 * n, 3 * v, || {
            for (p, z) in p.iter_mut().zip(z) {
                *p = z + beta * *p;
            }
        });
        Step::Full
    }

    fn cg_exhausted(
        &mut self,
        _: &mut Comm,
        _: f64,
        _: usize,
        _: &RecoveryPolicy,
        out: &mut BlockCgResult,
    ) -> Result<Vec<f64>, SolverFault> {
        Err(SolverFault::IndefiniteOperator {
            iteration: out.iterations,
            restarts: out.restarts - 1,
        })
    }

    fn cg_repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        self.op.repair(comm, dead);
    }
}

/// Block CG on an `nvec`-wide panel: one panel apply per iteration, the
/// columns coupled through `s × s` Gram systems solved by a rank-revealing
/// pivoted Cholesky ([`solve_spd_rr`]). A rank-deficient Gram matrix is
/// solved in its range (a truncation); a rank-zero one is a breakdown.
pub(crate) struct Panel<'a> {
    op: &'a mut dyn MultiLinOp,
    precond: &'a mut dyn Precond,
    b: &'a Multivector,
    x: &'a mut Multivector,
    r: Multivector,
    z: Multivector,
    p: Multivector,
    q: Multivector,
}

impl<'a> Panel<'a> {
    pub(crate) fn new(
        op: &'a mut dyn MultiLinOp,
        precond: &'a mut dyn Precond,
        b: &'a Multivector,
        x: &'a mut Multivector,
    ) -> Self {
        let (n, s) = (op.n_owned(), b.nvec());
        assert_eq!(b.nrows(), n, "rhs row mismatch");
        assert_eq!(x.nrows(), n, "solution row mismatch");
        assert_eq!(x.nvec(), s, "solution column mismatch");
        let zero = Multivector::new(n, s);
        let (r, z, p, q) = (zero.clone(), zero.clone(), zero.clone(), zero);
        Panel {
            op,
            precond,
            b,
            x,
            r,
            z,
            p,
            q,
        }
    }

    /// `R = B − A X`.
    fn panel_residual(&mut self, comm: &mut Comm) {
        self.op.apply_mv(comm, self.x, &mut self.r);
        comm.work(|| {
            for (r, b) in self.r.as_mut_slice().iter_mut().zip(self.b.as_slice()) {
                *r = b - *r;
            }
        });
    }

    /// The step a Gram solve of numerical rank `rank` took.
    fn rank_step(&self, rank: usize) -> Step {
        match rank {
            0 => Step::Breakdown,
            r if r < self.b.nvec() => Step::Truncated,
            _ => Step::Full,
        }
    }
}

impl Arith for Panel<'_> {
    fn cg_state(&mut self) -> [&mut [f64]; 3] {
        let (x, r, p) = (&mut *self.x, &mut self.r, &mut self.p);
        [x.as_mut_slice(), r.as_mut_slice(), p.as_mut_slice()]
    }

    fn cg_rhs_norms(&mut self, comm: &mut Comm) -> Vec<f64> {
        column_norms(comm, self.b)
    }

    fn cg_derive(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>) {
        self.panel_residual(comm);
        let reduced = self.cg_precondition(comm);
        self.p.copy_from(&self.z);
        reduced
    }

    fn cg_search(&mut self, comm: &mut Comm, gamma: &[f64]) -> Step {
        // One panel apply serves all s columns — the SpMM fast path.
        self.op.apply_mv(comm, &self.p, &mut self.q);
        let delta = gram_sym(comm, &self.p, &self.q);
        if !delta.iter().all(|v| v.is_finite()) {
            return Step::NonFinite;
        }
        let (rank, alpha) = solve_spd_rr(&delta, self.b.nvec(), gamma, self.b.nvec());
        let step = self.rank_step(rank);
        if step != Step::Breakdown {
            comm.work(|| {
                gemm_acc(self.x, &self.p, &alpha, 1.0);
                gemm_acc(&mut self.r, &self.q, &alpha, -1.0);
            });
        }
        step
    }

    fn cg_precondition(&mut self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>) {
        for c in 0..self.b.nvec() {
            self.precond.apply(comm, self.r.col(c), self.z.col_mut(c));
        }
        gram_sym_with_norms(comm, &self.z, &self.r)
    }

    fn cg_direction(&mut self, comm: &mut Comm, gamma: &[f64], gamma_new: &[f64]) -> Step {
        let (rank, beta) = solve_spd_rr(gamma, self.b.nvec(), gamma_new, self.b.nvec());
        let step = self.rank_step(rank);
        if step != Step::Breakdown {
            // P ← Z + P β.
            comm.work(|| {
                self.q.copy_from(&self.p);
                self.p.copy_from(&self.z);
                gemm_acc(&mut self.p, &self.q, &beta, 1.0);
            });
        }
        step
    }

    /// Deflation: the block space is genuinely rank-deficient (dependent
    /// right-hand sides). Finish the unconverged columns one by one with
    /// the scalar recurrence, which cannot break down on rank (and reports
    /// a typed fault if the operator itself is at fault).
    fn cg_exhausted(
        &mut self,
        comm: &mut Comm,
        rtol: f64,
        budget: usize,
        policy: &RecoveryPolicy,
        out: &mut BlockCgResult,
    ) -> Result<Vec<f64>, SolverFault> {
        let unconverged: Vec<usize> = (0..self.b.nvec())
            .filter(|&c| out.rel_residuals[c] > rtol)
            .collect();
        for c in unconverged {
            out.deflated += 1;
            let (op, precond, mut host) = (&mut *self.op, &mut *self.precond, HostLoops);
            let mut a = Scalar::new(op, precond, &mut host, self.b.col(c), self.x.col_mut(c));
            let column = run_cg(comm, &mut a, rtol, budget, policy)?;
            out.iterations = out.iterations.max(column.iterations);
        }
        self.panel_residual(comm);
        Ok(column_norms(comm, &self.r))
    }

    fn cg_repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        self.op.repair(comm, dead);
    }
}
