//! Operator abstraction and the conjugate-gradient solver.
//!
//! [`LinOp`] plays the role of PETSc's `MatShell`: the solver only ever
//! applies the operator, so HYMV, the assembled CSR, and the matrix-free
//! operator plug in interchangeably — exactly how the paper integrates
//! HYMV into PETSc's KSP solvers (§V-F).

use hymv_comm::{Comm, ReduceOp};

use crate::krylov::{self, Scalar};
use crate::precond::Precond;
use crate::resilient::{CheckpointPolicy, RecoveryPolicy, SolverFault};

/// A distributed linear operator on owned-dof vectors.
pub trait LinOp {
    /// Number of locally-owned dofs (vector length on this rank).
    fn n_owned(&self) -> usize;

    /// `y = A x`. `x` and `y` are owned-dof slices; the operator performs
    /// any ghost communication internally.
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]);

    /// FLOPs of one local `apply` (throughput accounting; Table I).
    fn flops_per_apply(&self) -> u64 {
        0
    }

    /// Bytes of operator storage on this rank (memory-footprint reporting).
    fn storage_bytes(&self) -> usize {
        0
    }

    /// Rebuild rank-local derived state after the ranks in `dead` were
    /// resurrected by LFLR recovery ([`Comm::lflr_recover`]): exchange
    /// plans, batch layouts — anything the crash left stale on the
    /// resurrected ranks. Collective: every rank calls it with the same
    /// dead set. The default is a no-op for operators with no such state.
    fn repair(&mut self, _comm: &mut Comm, _dead: &[usize]) {}
}

impl<T: LinOp + ?Sized> LinOp for Box<T> {
    fn n_owned(&self) -> usize {
        (**self).n_owned()
    }
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        (**self).apply(comm, x, y)
    }
    fn flops_per_apply(&self) -> u64 {
        (**self).flops_per_apply()
    }
    fn storage_bytes(&self) -> usize {
        (**self).storage_bytes()
    }
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        (**self).repair(comm, dead)
    }
}

/// Distributed dot product over owned slices (local compute charged to
/// the virtual clock, reduction modeled by the communicator).
pub fn dot(comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let local: f64 = comm.work(|| a.iter().zip(b).map(|(x, y)| x * y).sum());
    comm.allreduce_sum_f64(local)
}

/// Distributed 2-norm.
pub fn norm2(comm: &mut Comm, a: &[f64]) -> f64 {
    dot(comm, a, a).sqrt()
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative-residual tolerance was met.
    pub converged: bool,
    /// Final relative residual `‖r‖/‖b‖`.
    pub rel_residual: f64,
    /// Relative residual `‖r‖/‖b‖` at entry and after every iteration.
    /// Bitwise-deterministic for a fixed configuration — `hymv-check`'s
    /// fault rows compare it exactly between fault-free and healed solves.
    pub history: Vec<f64>,
}

/// Where CG's vector loops run, and what each one costs. Every loop
/// passes its own flop and byte counts; the host ([`cg`]) charges the
/// loop's measured time instead, and a device model
/// (`hymv_gpu::DeviceBlas`) charges a modeled kernel. The loop itself
/// always runs on the host, so the bits do not depend on the
/// implementation.
///
/// The method names are unique in the workspace: `hymv-verify` resolves
/// calls by name.
pub trait VectorLoops {
    /// Run the update loop `f` (`flops` flops over `bytes` bytes).
    fn vector_update(&mut self, comm: &mut Comm, flops: u64, bytes: usize, f: impl FnOnce());

    /// Run the local-sum loop `f` (`flops` flops over `bytes` bytes) and
    /// return its `K` sums, which the caller reduces across ranks next.
    fn vector_sums<const K: usize>(
        &mut self,
        comm: &mut Comm,
        flops: u64,
        bytes: usize,
        f: impl FnOnce() -> [f64; K],
    ) -> [f64; K];
}

/// The host's vector loops: each is charged its measured time.
pub(crate) struct HostLoops;

impl VectorLoops for HostLoops {
    fn vector_update(&mut self, comm: &mut Comm, _flops: u64, _bytes: usize, f: impl FnOnce()) {
        comm.work(f)
    }

    fn vector_sums<const K: usize>(
        &mut self,
        comm: &mut Comm,
        _flops: u64,
        _bytes: usize,
        f: impl FnOnce() -> [f64; K],
    ) -> [f64; K] {
        comm.work(f)
    }
}

/// Preconditioned conjugate gradients: solves `A x = b` to relative
/// tolerance `rtol` (PETSc's default convergence test, the one the paper
/// uses with ε = 10⁻³ in §V-F). `x` holds the initial guess on entry and
/// the solution on exit. [`cg_on`] with the vector loops on the host.
///
/// # Panics
/// If `pᵀAp ≤ 0` (the operator is not positive-definite), or if the
/// right-hand side or the recurrence turns non-finite.
// verify: collective-entry
pub fn cg(
    comm: &mut Comm,
    op: &mut dyn LinOp,
    precond: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> CgResult {
    cg_on(comm, &mut HostLoops, op, precond, b, x, rtol, max_iter)
}

/// [`cg`] with its vector loops run by `loops`: the crate's
/// recovery-aware CG core with every budget at zero. Each iteration
/// blocks on two reductions, `pᵀAp` and the fused `rᵀz`/`‖r‖`. The loops
/// decide only the charge, never the bits: the device-resident CG (the
/// paper's future work, §V-F) is this entry with `hymv_gpu::DeviceBlas`
/// and produces [`cg`]'s solution and iteration count.
///
/// # Panics
/// As [`cg`].
#[allow(clippy::too_many_arguments)]
// verify: collective-entry
pub fn cg_on(
    comm: &mut Comm,
    loops: &mut impl VectorLoops,
    op: &mut dyn LinOp,
    precond: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> CgResult {
    let policy = RecoveryPolicy {
        max_rollbacks: 0,
        max_restarts: 0,
        checkpoint: CheckpointPolicy::OFF,
    };
    let mut a = Scalar::new(op, precond, loops, b, x);
    match krylov::run_cg(comm, &mut a, rtol, max_iter, &policy) {
        Ok(out) => out.into_cg_result(),
        Err(fault @ SolverFault::IndefiniteOperator { .. }) => {
            panic!("CG requires a positive-definite operator ({fault})")
        }
        Err(fault) => panic!("CG failed: {fault}"),
    }
}

/// Pipelined preconditioned conjugate gradients (Ghysels & Vanroose,
/// 2014): algebraically equivalent to [`cg`] (up to rounding) but with a
/// **single non-blocking reduction per iteration**, posted before the
/// preconditioner application and SPMV and completed after — the
/// reduction latency hides behind the operator work, extending the
/// paper's communication-hiding philosophy from the SPMV into the Krylov
/// solver (listed as future work in §V-F).
///
/// Costs one extra SPMV-sized vector recurrence per iteration (vectors
/// `w, m, n, z, q, s` on top of CG's four), the classic trade.
pub fn pipelined_cg(
    comm: &mut Comm,
    op: &mut dyn LinOp,
    precond: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> CgResult {
    let n = op.n_owned();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");

    let bnorm = norm2(comm, b);
    if bnorm == 0.0 {
        x.fill(0.0);
        return CgResult {
            iterations: 0,
            converged: true,
            rel_residual: 0.0,
            history: vec![0.0],
        };
    }

    // r = b − A x; u = M⁻¹ r; w = A u.
    let mut r = vec![0.0; n];
    op.apply(comm, x, &mut r);
    comm.work(|| {
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
    });
    let mut u = vec![0.0; n];
    precond.apply(comm, &r, &mut u);
    let mut w = vec![0.0; n];
    op.apply(comm, &u, &mut w);

    let (mut z, mut q, mut s, mut p) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut m = vec![0.0; n];
    let mut nn = vec![0.0; n];
    let (mut gamma_prev, mut alpha_prev) = (0.0f64, 0.0f64);
    let mut history = Vec::new();

    let mut iterations = 0usize;
    loop {
        let iter_span = hymv_trace::SpanGuard::open(hymv_trace::Phase::SolverIter, comm.vt());
        // Post the fused reduction: γ = (r,u), δ = (w,u), ‖r‖².
        let local = comm.work(|| {
            [
                r.iter().zip(&u).map(|(a, b)| a * b).sum::<f64>(),
                w.iter().zip(&u).map(|(a, b)| a * b).sum::<f64>(),
                r.iter().map(|a| a * a).sum::<f64>(),
            ]
        });
        let handle = comm.iallreduce(local.to_vec(), ReduceOp::Sum);

        // Overlap: m = M⁻¹ w; n = A m while the reduction is in flight.
        precond.apply(comm, &w, &mut m);
        op.apply(comm, &m, &mut nn);

        let red = handle.wait(comm);
        let (gamma, delta, rr) = (red[0], red[1], red[2]);
        let rnorm = rr.sqrt();
        history.push(rnorm / bnorm);
        if rnorm / bnorm <= rtol || iterations >= max_iter {
            iter_span.close(comm.vt());
            hymv_trace::counter_add("hymv_solver_iterations_total", &[], iterations as u64);
            return CgResult {
                iterations,
                converged: rnorm / bnorm <= rtol,
                rel_residual: rnorm / bnorm,
                history,
            };
        }

        let (alpha, beta);
        if iterations == 0 {
            beta = 0.0;
            alpha = gamma / delta;
        } else {
            beta = gamma / gamma_prev;
            alpha = gamma / (delta - beta * gamma / alpha_prev);
        }
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "pipelined CG breakdown (alpha = {alpha}) — operator must be SPD"
        );
        comm.work(|| {
            for i in 0..n {
                z[i] = nn[i] + beta * z[i];
                q[i] = m[i] + beta * q[i];
                s[i] = w[i] + beta * s[i];
                p[i] = u[i] + beta * p[i];
                x[i] += alpha * p[i];
                r[i] -= alpha * s[i];
                u[i] -= alpha * q[i];
                w[i] -= alpha * z[i];
            }
        });
        gamma_prev = gamma;
        alpha_prev = alpha;
        iterations += 1;
        iter_span.close(comm.vt());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use hymv_comm::Universe;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A serial SPD operator used as a reference LinOp.
    struct DenseOp {
        n: usize,
        a: Vec<f64>, // column-major
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

    fn random_spd(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // A = MᵀM + n I.
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
    fn cg_solves_spd_system() {
        let n = 30;
        let a = random_spd(n, 1);
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp { n, a: a.clone() };
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let mut b = vec![0.0; n];
            op.apply(comm, &x_true, &mut b);
            let mut x = vec![0.0; n];
            let res = cg(comm, &mut op, &mut Identity, &b, &mut x, 1e-12, 500);
            assert!(res.converged, "{res:?}");
            let err: f64 = x
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "error {err}");
            res.iterations
        });
        assert!(out[0] > 0 && out[0] <= n + 5);
    }

    #[test]
    fn jacobi_reduces_iterations_on_ill_scaled_system() {
        // Diagonally dominant but badly scaled: Jacobi fixes the scaling.
        let n = 40;
        let out = Universe::run(1, |comm| {
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                let scale = |v: usize| 10.0f64.powi(i32::try_from(v % 5).expect("v % 5 < 5"));
                let s = scale(i);
                a[i * n + i] = s;
                if i + 1 < n {
                    a[(i + 1) * n + i] = 0.1 * s.min(scale(i + 1));
                    a[i * n + (i + 1)] = a[(i + 1) * n + i];
                }
            }
            let diag: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
            let b = vec![1.0; n];

            let mut op = DenseOp { n, a: a.clone() };
            let mut x = vec![0.0; n];
            let plain = cg(comm, &mut op, &mut Identity, &b, &mut x, 1e-10, 10_000);

            let mut op = DenseOp { n, a };
            let mut x = vec![0.0; n];
            let mut pc = Jacobi::new(&diag);
            let prec = cg(comm, &mut op, &mut pc, &b, &mut x, 1e-10, 10_000);

            assert!(plain.converged && prec.converged);
            (plain.iterations, prec.iterations)
        });
        let (plain, prec) = out[0];
        assert!(prec < plain, "jacobi {prec} should beat none {plain}");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp {
                n: 4,
                a: random_spd(4, 2),
            };
            let mut x = vec![1.0; 4];
            let res = cg(comm, &mut op, &mut Identity, &[0.0; 4], &mut x, 1e-8, 10);
            (res, x)
        });
        assert_eq!(out[0].0.iterations, 0);
        assert!(out[0].0.converged);
        assert!(out[0].1.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn distributed_dot_and_norm() {
        let out = Universe::run(4, |comm| {
            let mine = vec![comm.rank() as f64 + 1.0];
            (dot(comm, &mine, &mine), norm2(comm, &mine))
        });
        // Σ (r+1)² = 1 + 4 + 9 + 16 = 30.
        for (d, n) in out {
            assert!((d - 30.0).abs() < 1e-12);
            assert!((n - 30.0f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_cg_matches_cg() {
        let n = 40;
        let a = random_spd(n, 7);
        let out = Universe::run(1, |comm| {
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
            let mut op = DenseOp { n, a: a.clone() };
            let mut b = vec![0.0; n];
            op.apply(comm, &x_true, &mut b);

            let mut x_cg = vec![0.0; n];
            let res_cg = cg(comm, &mut op, &mut Identity, &b, &mut x_cg, 1e-11, 500);

            let mut op = DenseOp { n, a: a.clone() };
            let mut x_p = vec![0.0; n];
            let res_p = pipelined_cg(comm, &mut op, &mut Identity, &b, &mut x_p, 1e-11, 500);

            assert!(res_cg.converged && res_p.converged, "{res_cg:?} {res_p:?}");
            // Same Krylov space: iteration counts within a couple.
            assert!(
                res_cg.iterations.abs_diff(res_p.iterations) <= 3,
                "cg {} vs pipelined {}",
                res_cg.iterations,
                res_p.iterations
            );
            let err: f64 = x_p
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            err
        });
        assert!(out[0] < 1e-8, "error {}", out[0]);
    }

    #[test]
    fn pipelined_cg_with_jacobi() {
        let n = 30;
        let out = Universe::run(2, |comm| {
            // Each rank owns a diagonal block of a block-diagonal SPD
            // system → the distributed reductions still exercise both
            // ranks.
            let a = random_spd(n, comm.rank() as u64 + 11);
            let diag: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
            let mut op = DenseOp { n, a };
            let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut b = vec![0.0; n];
            op.apply(comm, &x_true, &mut b);
            let mut pc = Jacobi::new(&diag);
            let mut x = vec![0.0; n];
            let res = pipelined_cg(comm, &mut op, &mut pc, &b, &mut x, 1e-11, 1000);
            assert!(res.converged, "{res:?}");
            x.iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        });
        assert!(out.iter().all(|&e| e < 1e-8), "{out:?}");
    }

    #[test]
    fn pipelined_cg_zero_rhs() {
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp {
                n: 4,
                a: random_spd(4, 2),
            };
            let mut x = vec![1.0; 4];
            pipelined_cg(comm, &mut op, &mut Identity, &[0.0; 4], &mut x, 1e-8, 10)
        });
        assert!(out[0].converged);
        assert_eq!(out[0].iterations, 0);
    }

    /// A NaN operator must not read as converged: the residual norm is a
    /// square root of a sum of squares, never clamped, so the NaN reaches
    /// the breakdown check.
    #[test]
    #[should_panic(expected = "pipelined CG breakdown (alpha = NaN)")]
    fn pipelined_cg_panics_on_a_nan_operator() {
        struct NanOp;
        impl LinOp for NanOp {
            fn n_owned(&self) -> usize {
                4
            }
            fn apply(&mut self, _comm: &mut Comm, _x: &[f64], y: &mut [f64]) {
                y.fill(f64::NAN);
            }
        }
        Universe::run(1, |comm| {
            let mut x = vec![0.0; 4];
            pipelined_cg(comm, &mut NanOp, &mut Identity, &[1.0; 4], &mut x, 1e-8, 10)
        });
    }

    #[test]
    fn max_iter_respected() {
        let out = Universe::run(1, |comm| {
            let mut op = DenseOp {
                n: 50,
                a: random_spd(50, 3),
            };
            let b = vec![1.0; 50];
            let mut x = vec![0.0; 50];
            cg(comm, &mut op, &mut Identity, &b, &mut x, 1e-300, 3)
        });
        assert_eq!(out[0].iterations, 3);
        assert!(!out[0].converged);
    }
}
