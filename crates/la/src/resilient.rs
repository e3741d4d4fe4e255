//! Fault-tolerant conjugate gradients (solver resilience under injected faults).
//!
//! The transport layer heals dropped/corrupted/reordered ghost traffic
//! bit-exactly, but a fault can still reach the solver through other
//! doors: a stored element matrix damaged in memory, a user kernel
//! emitting NaN after an adaptive update, or an operator that lost
//! positive-definiteness. [`resilient_cg`] runs the CG recurrence
//! (the crate's one CG core) with two bounded recovery actions:
//!
//! * **rollback** — non-finite values in the Krylov recurrence (detected
//!   collectively through the `pᵀAp` / `rᵀz` reductions, so every rank
//!   takes the same branch) restore the last accepted iterate and
//!   re-derive the residual from scratch;
//! * **residual-replacement restart** — CG breakdown (`pᵀAp ≤ 0`) keeps
//!   the current iterate but rebuilds `r = b − A x`, discarding the
//!   poisoned search direction.
//!
//! Every action draws from a budget in [`RecoveryPolicy`]; exhausting a
//! budget returns a typed [`SolverFault`] — the solver never hangs and
//! never reports convergence from damaged arithmetic.
//!
//! A third door — a **rank crash** — is covered by the LFLR protocol
//! (DESIGN.md §15): with [`CheckpointPolicy::every`] > 0 and an active
//! fault injector, the solver arms `hymv-comm`'s crash detection, takes
//! a buddy checkpoint of the full Krylov state every `every` iterations,
//! and on a [`hymv_comm::Revoked`] unwind repairs the world
//! ([`Comm::lflr_recover`] + [`LinOp::repair`]) and rolls every rank
//! back to the last globally-consistent checkpoint. Recovered solves
//! replay the same arithmetic from the same state, so they produce the
//! same solution bits as a fault-free run.

use hymv_comm::Comm;

use crate::krylov::{self, Scalar};
use crate::precond::Precond;
use crate::solver::{CgResult, HostLoops, LinOp};

/// Crash-recovery knobs: buddy-checkpoint cadence and how many LFLR
/// world repairs a single solve may consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Take a buddy checkpoint every this many solver iterations
    /// (`0` = checkpointing and crash recovery off — the default, so a
    /// solve that never opts in pays nothing).
    pub every: usize,
    /// LFLR recovery budget for one solve; exceeding it returns
    /// [`SolverFault::RecoveryBudgetExhausted`].
    pub max_recoveries: usize,
}

impl CheckpointPolicy {
    /// Checkpointing disabled (the default).
    pub const OFF: CheckpointPolicy = CheckpointPolicy {
        every: 0,
        max_recoveries: 3,
    };
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::OFF
    }
}

/// Budgets for the recovery actions [`resilient_cg`] may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rollback-to-last-good-iterate budget (non-finite recurrence).
    pub max_rollbacks: usize,
    /// Residual-replacement restart budget (breakdown: `pᵀAp ≤ 0`).
    pub max_restarts: usize,
    /// Rank-crash checkpoint/recovery knobs (off by default).
    pub checkpoint: CheckpointPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_rollbacks: 3,
            max_restarts: 3,
            checkpoint: CheckpointPolicy::OFF,
        }
    }
}

/// Typed diagnostic of an unrecoverable solve (budget exhausted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverFault {
    /// Non-finite values kept re-appearing after every rollback.
    NonFiniteRecurrence { iteration: usize, rollbacks: usize },
    /// `pᵀAp ≤ 0` persisted through every restart — the operator is not
    /// positive definite (or its damage is not transient).
    IndefiniteOperator { iteration: usize, restarts: usize },
    /// The right-hand side contained NaN/Inf on entry.
    NonFiniteRhs,
    /// Rank crashes kept revoking the world past the LFLR budget in
    /// [`CheckpointPolicy::max_recoveries`].
    RecoveryBudgetExhausted { recoveries: usize },
}

impl std::fmt::Display for SolverFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverFault::NonFiniteRecurrence {
                iteration,
                rollbacks,
            } => write!(
                f,
                "non-finite CG recurrence at iteration {iteration} after {rollbacks} rollbacks"
            ),
            SolverFault::IndefiniteOperator {
                iteration,
                restarts,
            } => write!(
                f,
                "pᵀAp ≤ 0 at iteration {iteration} after {restarts} restarts — operator not SPD"
            ),
            SolverFault::NonFiniteRhs => write!(f, "right-hand side contains NaN/Inf"),
            SolverFault::RecoveryBudgetExhausted { recoveries } => write!(
                f,
                "rank crashes persisted through {recoveries} LFLR recoveries"
            ),
        }
    }
}

/// Outcome of a resilient solve, with the recovery actions it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientCgResult {
    /// The plain CG outcome (iterations, convergence, residual history).
    pub result: CgResult,
    /// Rollbacks to the last accepted iterate.
    pub rollbacks: usize,
    /// Residual-replacement restarts after breakdown.
    pub restarts: usize,
    /// LFLR rank-crash recoveries survived.
    pub recoveries: usize,
}

/// Preconditioned CG with bounded rollback and restart. With the default
/// policy and a healthy operator this is bit-for-bit the same arithmetic
/// as [`crate::solver::cg`] — same iterates, same residual history.
///
/// With [`CheckpointPolicy::every`] > 0 and an active fault injector the
/// solve additionally arms LFLR crash recovery: a revoked world rolls
/// every rank back to the last buddy checkpoint and continues —
/// producing the same bits a fault-free run would.
#[allow(clippy::too_many_arguments)]
pub fn resilient_cg(
    comm: &mut Comm,
    op: &mut dyn LinOp,
    precond: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
    policy: &RecoveryPolicy,
) -> Result<ResilientCgResult, SolverFault> {
    let mut host = HostLoops;
    let mut a = Scalar::new(op, precond, &mut host, b, x);
    let out = krylov::run_cg(comm, &mut a, rtol, max_iter, policy)?;
    Ok(ResilientCgResult {
        rollbacks: out.rollbacks,
        restarts: out.restarts,
        recoveries: out.recoveries,
        result: out.into_cg_result(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Identity;
    use crate::solver::cg;
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

    /// Wrapper that poisons the output of selected applies with NaN —
    /// the solver-level model of a corrupted SPMV.
    struct FlakyOp {
        inner: DenseOp,
        applies: usize,
        /// Poison applies in `[from, to)` (half-open).
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

    #[test]
    fn matches_plain_cg_bit_for_bit_when_healthy() {
        let n = 30;
        let a = random_spd(n, 4);
        let out = Universe::run(1, |comm| {
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
            let mut op = DenseOp { n, a: a.clone() };
            let mut x_ref = vec![0.0; n];
            let plain = cg(comm, &mut op, &mut Identity, &b, &mut x_ref, 1e-10, 200);

            let mut op = DenseOp { n, a: a.clone() };
            let mut x = vec![0.0; n];
            let res = resilient_cg(
                comm,
                &mut op,
                &mut Identity,
                &b,
                &mut x,
                1e-10,
                200,
                &RecoveryPolicy::default(),
            )
            .expect("healthy operator");
            assert_eq!(res.rollbacks + res.restarts, 0);
            (plain, res.result, x_ref, x)
        });
        let (plain, resilient, x_ref, x) = &out[0];
        assert_eq!(plain, resilient, "same arithmetic, same history bits");
        assert_eq!(x_ref, x, "same iterates");
    }

    #[test]
    fn transient_nan_is_rolled_back_and_solve_converges() {
        let n = 25;
        let a = random_spd(n, 9);
        let out = Universe::run(1, |comm| {
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
            let mut op = FlakyOp {
                inner: DenseOp { n, a: a.clone() },
                applies: 0,
                poison: 4..5,
            };
            let mut x = vec![0.0; n];
            let res = resilient_cg(
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
            assert!(res.result.converged, "{:?}", res.result);
            assert!(res.rollbacks >= 1, "the NaN must have forced a rollback");
            // Verify against an untainted solve.
            let mut op = DenseOp { n, a: a.clone() };
            let mut x_ref = vec![0.0; n];
            cg(comm, &mut op, &mut Identity, &b, &mut x_ref, 1e-10, 500);
            x.iter()
                .zip(&x_ref)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f64, f64::max)
        });
        assert!(out[0] < 1e-8, "recovered solution off by {}", out[0]);
    }

    #[test]
    fn persistent_nan_returns_typed_fault() {
        let n = 10;
        let a = random_spd(n, 2);
        let out = Universe::run(1, |comm| {
            let mut op = FlakyOp {
                inner: DenseOp { n, a: a.clone() },
                applies: 0,
                poison: 0..usize::MAX,
            };
            let mut x = vec![0.0; n];
            resilient_cg(
                comm,
                &mut op,
                &mut Identity,
                &[1.0; 10],
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
    fn indefinite_operator_returns_typed_fault() {
        let n = 6;
        // A = −I: pᵀAp < 0 on the very first direction, every restart.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = -1.0;
        }
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp { n, a: a.clone() };
            let mut x = vec![0.0; n];
            resilient_cg(
                comm,
                &mut op,
                &mut Identity,
                &[1.0; 6],
                &mut x,
                1e-10,
                100,
                &RecoveryPolicy::default(),
            )
        });
        match out[0].as_ref().expect_err("−I is not SPD") {
            SolverFault::IndefiniteOperator { restarts, .. } => {
                assert_eq!(*restarts, RecoveryPolicy::default().max_restarts);
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
            // Only rank 1's rhs is damaged; the collective check must
            // still turn every rank away.
            let mut b = vec![1.0; n];
            if comm.rank() == 1 {
                b[2] = f64::INFINITY;
            }
            let mut x = vec![0.0; n];
            resilient_cg(
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
}
