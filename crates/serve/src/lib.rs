//! # hymv-serve — the batched multi-RHS solve service
//!
//! The "millions of users" front door over the multivector engine: many
//! independent solve requests share one operator (same mesh, different
//! forcings/boundary data), so instead of solving them one CG at a time
//! the service queues them and dispatches width-`nvec` **block-CG
//! multivector solves** — every `Ke` slab load amortized over the whole
//! batch, every ghost fragment shipped once per batch instead of once
//! per request.
//!
//! Batch formation is **deadline-based** in virtual time: a batch
//! dispatches as soon as it is full ([`BatchPolicy::max_width`] pending
//! requests, default [`hymv_core::DEFAULT_NVEC_WIDTH`]) or as soon as the oldest
//! pending request has waited [`BatchPolicy::deadline_s`] virtual
//! seconds — throughput batching with a hard bound on added latency.
//! [`SolveService::flush`] drains the queue at end of stream.
//!
//! The service is deterministic SPMD: every rank constructs it around
//! the same shared operator, submits the same requests in the same
//! order, and steps it at the same points — submissions and dispatches
//! are collective, and the batch composition is a pure function of the
//! (replicated) queue state. Per-request results stream back through
//! [`SolveOutcome`]s; per-batch metrics land in hymv-trace as
//! [`Phase::ServeBatch`] spans plus `hymv_serve_*` counters and in
//! [`BatchMetrics`] for the bench harness.

use std::collections::VecDeque;

use hymv_comm::Comm;
use hymv_core::DEFAULT_NVEC_WIDTH;
use hymv_la::{block_cg, MultiLinOp, Multivector, Precond, RecoveryPolicy, SolverFault};
use hymv_trace::Phase;

/// When a pending batch dispatches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests per multivector solve (the `nvec` of the batch).
    pub max_width: usize,
    /// Maximum virtual seconds the oldest pending request may wait before
    /// a partial batch is forced out.
    pub deadline_s: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_width: DEFAULT_NVEC_WIDTH,
            deadline_s: 1e-3,
        }
    }
}

/// One queued request.
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    rhs: Vec<f64>,
    submitted_vt: f64,
}

/// Per-request result streamed back from a batch solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The id returned by [`SolveService::submit`].
    pub id: u64,
    /// The request's trace context (`hymv_trace::ctx_request(id)`):
    /// the key that links this outcome to its submit instant, batch
    /// spans, and recovery spans in the trace and flight recorder.
    pub ctx: u64,
    /// Trace context of the batch this request rode in
    /// (`hymv_trace::ctx_batch(batch)`).
    pub batch_ctx: u64,
    /// Owned-dof solution.
    pub x: Vec<f64>,
    /// Block iterations of the batch this request rode in.
    pub iterations: usize,
    /// Whether this request's column met the tolerance.
    pub converged: bool,
    /// This request's final relative residual.
    pub rel_residual: f64,
    /// Batch ordinal (index into [`SolveService::batch_metrics`]).
    pub batch: usize,
    /// Width (`nvec`) of that batch.
    pub width: usize,
    /// Virtual seconds spent queued before dispatch.
    pub wait_s: f64,
    /// Typed fault of this request's batch solve (`None` = the solve
    /// completed; individual columns may still be unconverged).
    pub fault: Option<SolverFault>,
    /// LFLR rank-crash recoveries the batch survived (or consumed, when
    /// `fault` is [`SolverFault::RecoveryBudgetExhausted`]).
    pub recoveries: usize,
}

/// Per-batch record for the bench harness and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// Batch ordinal in dispatch order.
    pub ordinal: usize,
    /// Requests in the batch (`nvec` of the multivector solve).
    pub width: usize,
    /// Block-CG iterations.
    pub iterations: usize,
    /// Virtual time at dispatch.
    pub dispatched_vt: f64,
    /// Virtual seconds the block solve took.
    pub solve_s: f64,
    /// Longest queue wait among the batch's requests.
    pub max_wait_s: f64,
    /// Whether the batch solve returned a typed fault.
    pub failed: bool,
}

/// The batched solve service. Holds the shared operator/preconditioner
/// for its lifetime; see the crate docs for the SPMD contract.
pub struct SolveService<'a> {
    op: &'a mut dyn MultiLinOp,
    precond: &'a mut dyn Precond,
    rtol: f64,
    max_iter: usize,
    policy: BatchPolicy,
    recovery: RecoveryPolicy,
    queue: VecDeque<Pending>,
    next_id: u64,
    batches: Vec<BatchMetrics>,
}

impl<'a> SolveService<'a> {
    /// Wrap a shared operator and preconditioner.
    pub fn new(
        op: &'a mut dyn MultiLinOp,
        precond: &'a mut dyn Precond,
        rtol: f64,
        max_iter: usize,
        policy: BatchPolicy,
    ) -> Self {
        assert!(policy.max_width >= 1, "batch width must be at least 1");
        assert!(
            policy.max_width <= hymv_la::MAX_NVEC_WIDTH,
            "batch width {} exceeds MAX_NVEC_WIDTH {}",
            policy.max_width,
            hymv_la::MAX_NVEC_WIDTH
        );
        SolveService {
            op,
            precond,
            rtol,
            max_iter,
            policy,
            recovery: RecoveryPolicy::default(),
            queue: VecDeque::new(),
            next_id: 0,
            batches: Vec::new(),
        }
    }

    /// Override the fault-recovery budgets the block solves run under.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Queue a solve request (owned-dof right-hand side), stamped with
    /// the current virtual time. Collective: every rank submits its own
    /// partition of the same logical request, in the same order.
    pub fn submit(&mut self, comm: &mut Comm, rhs: Vec<f64>) -> u64 {
        assert_eq!(rhs.len(), self.op.n_owned(), "rhs length mismatch");
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Pending {
            id,
            rhs,
            submitted_vt: comm.vt(),
        });
        {
            // The submit instant carries the request context — the
            // anchor every later flow link binds back to.
            let _req = hymv_trace::CtxGuard::enter(hymv_trace::ctx_request(id));
            hymv_trace::instant(Phase::Submit, comm.vt());
        }
        hymv_trace::counter_add("hymv_serve_requests_total", &[], 1);
        hymv_trace::gauge_set("hymv_serve_queue_depth", &[], self.queue.len() as f64);
        id
    }

    /// Requests waiting for dispatch.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Metrics of every batch dispatched so far.
    pub fn batch_metrics(&self) -> &[BatchMetrics] {
        &self.batches
    }

    /// Dispatch every batch the policy allows *now*: full batches always
    /// go; a final partial batch goes only if its oldest request is past
    /// the deadline. Returns the completed requests (possibly empty).
    /// Requests whose batch solve failed come back as failed
    /// [`SolveOutcome`]s with the typed fault attached — a faulted batch
    /// never tears down the service or loses the outcomes of batches
    /// dispatched earlier in the same call.
    // verify: collective-entry
    pub fn step(&mut self, comm: &mut Comm) -> Vec<SolveOutcome> {
        let mut out = Vec::new();
        loop {
            let n = self.queue.len();
            if n == 0 {
                break;
            }
            let oldest_wait = comm.vt() - self.queue.front().expect("n > 0").submitted_vt;
            if n < self.policy.max_width && oldest_wait < self.policy.deadline_s {
                break;
            }
            let take = n.min(self.policy.max_width);
            out.extend(self.dispatch(comm, take));
        }
        out
    }

    /// End of stream: dispatch everything still queued, deadline or not.
    pub fn flush(&mut self, comm: &mut Comm) -> Vec<SolveOutcome> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            let take = self.queue.len().min(self.policy.max_width);
            out.extend(self.dispatch(comm, take));
        }
        out
    }

    /// Solve the first `take` queued requests as one width-`take`
    /// block-CG multivector solve. A typed fault fails exactly this
    /// batch: each of its requests gets a failed outcome carrying the
    /// fault, and everything still queued stays queued for later
    /// dispatches.
    fn dispatch(&mut self, comm: &mut Comm, take: usize) -> Vec<SolveOutcome> {
        let reqs: Vec<Pending> = self.queue.drain(..take).collect();
        let width = reqs.len();
        let ordinal = self.batches.len();
        let dispatched_vt = comm.vt();
        let batch_ctx = hymv_trace::ctx_batch(ordinal as u64);
        for r in &reqs {
            hymv_trace::flow_link(hymv_trace::ctx_request(r.id), batch_ctx);
        }

        let cols: Vec<Vec<f64>> = reqs.iter().map(|r| r.rhs.clone()).collect();
        let b = Multivector::from_columns(&cols);
        let mut x = Multivector::new(self.op.n_owned(), width);
        let (op, precond) = (&mut *self.op, &mut *self.precond);
        let (rtol, max_iter, recovery) = (self.rtol, self.max_iter, self.recovery);
        let res = {
            // Everything under the batch — ServeBatch itself, the
            // SolverIter spans, and any Retry/Checkpoint/Recovery spans
            // — inherits the batch context through the thread-local.
            let _batch = hymv_trace::CtxGuard::enter(batch_ctx);
            comm.traced(Phase::ServeBatch, |comm| {
                block_cg(comm, op, precond, &b, &mut x, rtol, max_iter, &recovery)
            })
        };
        let solve_s = comm.vt() - dispatched_vt;

        let (iterations, recoveries, fault) = match &res {
            Ok(r) => (r.iterations, r.recoveries, None),
            Err(e) => {
                let recoveries = match e {
                    SolverFault::RecoveryBudgetExhausted { recoveries } => *recoveries,
                    _ => 0,
                };
                (0, recoveries, Some(e.clone()))
            }
        };
        let max_wait_s = reqs
            .iter()
            .map(|r| dispatched_vt - r.submitted_vt)
            .fold(0.0, f64::max);
        self.batches.push(BatchMetrics {
            ordinal,
            width,
            iterations,
            dispatched_vt,
            solve_s,
            max_wait_s,
            failed: fault.is_some(),
        });
        hymv_trace::counter_add("hymv_serve_batches_total", &[], 1);
        hymv_trace::counter_add("hymv_serve_batch_iters_total", &[], iterations as u64);
        hymv_trace::histogram_record("hymv_serve_batch_width", &[], width as u64);
        hymv_trace::gauge_set("hymv_serve_queue_depth", &[], self.queue.len() as f64);
        // Per-request latency, virtual microseconds. Count-only in the
        // canonical form (the `_us` suffix), so tracing them does not
        // disturb the determinism certification.
        let us = |s: f64| s.max(0.0) * 1e6;
        for r in &reqs {
            let wait_s = dispatched_vt - r.submitted_vt;
            hymv_trace::histogram_record("hymv_request_wait_us", &[], us(wait_s) as u64);
            hymv_trace::histogram_record("hymv_request_solve_us", &[], us(solve_s) as u64);
            hymv_trace::histogram_record("hymv_request_e2e_us", &[], us(wait_s + solve_s) as u64);
        }
        if let Some(f) = &fault {
            // A typed solver fault is SPMD-replicated (every rank sees
            // the same batch fail), so the collective postmortem dump
            // is safe here.
            comm.flight_postmortem(&format!("failed batch {ordinal} (width {width}): {f:?}"));
        }
        comm.publish_live();

        reqs.into_iter()
            .enumerate()
            .map(|(c, r)| {
                let rel_residual = res.as_ref().map_or(f64::INFINITY, |ok| ok.rel_residuals[c]);
                SolveOutcome {
                    id: r.id,
                    ctx: hymv_trace::ctx_request(r.id),
                    batch_ctx,
                    x: x.col(c).to_vec(),
                    iterations,
                    converged: fault.is_none() && rel_residual <= self.rtol,
                    rel_residual,
                    batch: ordinal,
                    width,
                    wait_s: dispatched_vt - r.submitted_vt,
                    fault: fault.clone(),
                    recoveries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_la::solver::cg;
    use hymv_la::{Identity, LinOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Serial dense SPD operator (replicated on every rank).
    struct DenseOp {
        a: Vec<f64>,
        n: usize,
    }

    impl LinOp for DenseOp {
        fn n_owned(&self) -> usize {
            self.n
        }
        fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
            comm.work(|| {
                y.fill(0.0);
                for j in 0..self.n {
                    let xj = x[j];
                    for i in 0..self.n {
                        y[i] += self.a[j * self.n + i] * xj;
                    }
                }
            });
        }
    }

    impl MultiLinOp for DenseOp {}

    fn random_spd(n: usize, seed: u64) -> DenseOp {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += m[i * n + k] * m[j * n + k];
                }
                a[j * n + i] = acc;
            }
            a[i * n + i] += n as f64;
        }
        DenseOp { a, n }
    }

    #[test]
    fn batches_form_fifo_and_results_match_per_rhs_cg() {
        let n = 24;
        let n_req = 7;
        let out = Universe::run(1, |comm| {
            let mut op = random_spd(n, 3);
            let mut rng = StdRng::seed_from_u64(17);
            let rhss: Vec<Vec<f64>> = (0..n_req)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let policy = BatchPolicy {
                max_width: 4,
                deadline_s: 1e-3,
            };
            let mut id = Identity;
            let mut svc = SolveService::new(&mut op, &mut id, 1e-10, 200, policy);
            let ids: Vec<u64> = rhss.iter().map(|r| svc.submit(comm, r.clone())).collect();
            let mut results = svc.flush(comm);
            results.sort_by_key(|o| o.id);
            let metrics = svc.batch_metrics().to_vec();
            (ids, rhss, results, metrics)
        });
        let (ids, rhss, results, metrics) = &out[0];
        // 7 requests at width 4 → batches of 4 and 3, FIFO.
        assert_eq!(metrics.len(), 2);
        assert_eq!((metrics[0].width, metrics[1].width), (4, 3));
        assert_eq!(results.len(), n_req);
        for (k, o) in results.iter().enumerate() {
            assert_eq!(o.id, ids[k]);
            assert!(o.converged, "request {k} unconverged: {o:?}");
            assert_eq!(o.batch, if k < 4 { 0 } else { 1 });
            // Per-RHS reference solve.
            let refs = Universe::run(1, |comm| {
                let mut op = random_spd(n, 3);
                let mut x = vec![0.0; n];
                let res = cg(comm, &mut op, &mut Identity, &rhss[k], &mut x, 1e-10, 200);
                assert!(res.converged);
                x
            });
            for (a, b) in o.x.iter().zip(&refs[0]) {
                assert!((a - b).abs() < 1e-7, "request {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn deadline_forces_partial_dispatch() {
        let n = 12;
        let out = Universe::run(1, |comm| {
            let mut op = random_spd(n, 9);
            let policy = BatchPolicy {
                max_width: 8,
                deadline_s: 0.5,
            };
            let mut id = Identity;
            let mut svc = SolveService::new(&mut op, &mut id, 1e-8, 100, policy);
            svc.submit(comm, vec![1.0; n]);
            svc.submit(comm, vec![2.0; n]);
            // Two pending, deadline not reached: step holds the batch.
            let early = svc.step(comm);
            let held = early.is_empty() && svc.pending() == 2;
            // Past the deadline the partial batch must go out.
            comm.add_modeled_time(1.0);
            let late = svc.step(comm);
            (held, late.len(), svc.pending(), late)
        });
        let (held, dispatched, pending, late) = &out[0];
        assert!(held, "batch dispatched before the deadline");
        assert_eq!(*dispatched, 2);
        assert_eq!(*pending, 0);
        assert_eq!(late[0].width, 2);
        assert!(late[0].wait_s >= 0.5, "wait {:.3}s", late[0].wait_s);
    }

    /// Chaos smoke over the real service path: a Poisson operator with
    /// Dirichlet walls, batched block-CG solves, and a seeded
    /// drop/corrupt fault plan on the transport. Every rank must either
    /// converge every request or abort with a typed fault report — no
    /// silent corruption, no hangs. The load is nonzero, so the solves
    /// iterate and the plan meets their ghost traffic, not only setup's.
    #[test]
    fn chaos_smoke_over_fem_service_path() {
        use std::sync::Arc;

        use hymv_comm::{AuditMode, CostModel, FaultPlan, RetryPolicy, RunConfig};
        use hymv_core::assemble::assemble_rhs;
        use hymv_core::dirichlet_op::owned_constraints;
        use hymv_core::{DirichletOp, GhostExchange, HymvMaps, HymvOperator};
        use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
        use hymv_fem::PoissonKernel;
        use hymv_mesh::partition::{partition_mesh, PartitionMethod};
        use hymv_mesh::{ElementType, StructuredHexMesh};

        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let spec = DirichletSpec::zero(1, Arc::new(|x: [f64; 3]| x[0] < 1e-9 || x[0] > 1.0 - 1e-9));
        let program = |comm: &mut Comm| {
            let part = &pm.parts[comm.rank()];
            let body = |x: [f64; 3]| 1.0 + x[0] - 2.0 * x[1] * x[1] + x[0] * x[1] * x[2];
            let kernel = PoissonKernel::with_body(ElementType::Hex8, Arc::new(body));
            let maps = HymvMaps::build(part);
            let exchange = GhostExchange::build(comm, &maps);
            let raw_rhs = assemble_rhs(comm, &maps, &exchange, part, &kernel);
            let (raw_op, _) = HymvOperator::setup(comm, part, &kernel);
            let constrained = owned_constraints(&maps, 1, &constrained_dofs(part, &spec));
            let mut op = DirichletOp::new(raw_op, constrained);
            let rhs = op.build_rhs(comm, &raw_rhs);
            let mut id = Identity;
            let policy = BatchPolicy {
                max_width: 4,
                deadline_s: 1e-3,
            };
            let mut svc = SolveService::new(&mut op, &mut id, 1e-8, 400, policy);
            let setup = comm.stats();
            for k in 0..6 {
                let scaled: Vec<f64> = rhs.iter().map(|v| v * (k + 1) as f64).collect();
                svc.submit(comm, scaled);
            }
            let results = svc.flush(comm);
            assert!(results.iter().all(|o| o.converged), "unconverged request");
            assert!(
                results.iter().all(|o| o.iterations > 0),
                "a request started converged"
            );
            assert_eq!(svc.batch_metrics().len(), 2);
            let solve = comm.stats();
            (
                results.len(),
                solve.retries - setup.retries,
                solve.corrupt_detected - setup.corrupt_detected,
            )
        };
        let cfg = RunConfig {
            model: CostModel::default(),
            perturb_seed: None,
            audit: AuditMode::Disabled,
            fault: Some(FaultPlan::new(7).with_drop(0.05).with_corrupt(0.05)),
            retry: RetryPolicy::default(),
            trace: false,
        };
        let (results, _) = Universe::run_chaos(cfg, 2, program);
        let (mut retries, mut corrupt) = (0, 0);
        for (rank, res) in results.into_iter().enumerate() {
            let (n, r, c) = res.expect("faults within the retry budget");
            assert_eq!(n, 6, "rank {rank}: lost requests");
            retries += r;
            corrupt += c;
        }
        assert!(retries > 0, "no retry during the solves");
        assert!(corrupt > 0, "no corruption detected during the solves");
    }

    /// Request traces survive LFLR: a service solve whose batch eats a
    /// rank crash still returns outcomes whose ids/contexts match the
    /// submissions, the recovery spans recorded mid-crash carry the batch
    /// context the request flow-links point at — the postmortem chain
    /// request → batch → recovery is unbroken — and the checkpoint,
    /// restore and recovery counters reach the Prometheus path.
    #[test]
    fn request_traces_and_recovery_counters_survive_a_rank_crash() {
        use std::collections::BTreeSet;
        use std::sync::Arc;

        use hymv_comm::{AuditMode, CostModel, FaultPlan, RetryPolicy, RunConfig};
        use hymv_core::assemble::{assemble_rhs, jacobi_diagonal};
        use hymv_core::dirichlet_op::owned_constraints;
        use hymv_core::{DirichletOp, HymvOperator};
        use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
        use hymv_fem::PoissonKernel;
        use hymv_la::{CheckpointPolicy, Jacobi};
        use hymv_mesh::partition::{partition_mesh, PartitionMethod};
        use hymv_mesh::{ElementType, StructuredHexMesh};
        use hymv_trace::Phase;

        let p = 4;
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
        let spec = DirichletSpec::zero(1, Arc::new(|x: [f64; 3]| x[0] < 1e-9 || x[0] > 1.0 - 1e-9));
        // Four requests, two per batch, buddy checkpoints every 4
        // iterations, the last rank's data plane dying after `crash_after`
        // envelopes. A calibration run (`crash_after` unreachable) reads
        // that rank's send counter at the setup/solve boundary and at the
        // end; the barriers order its sends before each read.
        let run = |crash_after: u64, calibrate: bool| {
            let cfg = RunConfig {
                model: CostModel::default(),
                perturb_seed: None,
                audit: AuditMode::Disabled,
                fault: Some(FaultPlan::new(5).with_crash(p - 1, crash_after)),
                retry: RetryPolicy::default(),
                trace: !calibrate,
            };
            Universe::run_chaos(cfg, p, |comm| {
                let part = &pm.parts[comm.rank()];
                // A polynomial load: a many-iteration solve, so buddy
                // checkpoints exist before the crash lands.
                let body = |x: [f64; 3]| 1.0 + x[0] - 2.0 * x[1] * x[1] + x[0] * x[1] * x[2];
                let kernel = PoissonKernel::with_body(ElementType::Hex8, Arc::new(body));
                let (raw, _) = HymvOperator::setup(comm, part, &kernel);
                let raw_rhs = assemble_rhs(comm, raw.maps(), raw.exchange(), part, &kernel);
                let mut diag = jacobi_diagonal(comm, raw.maps(), raw.exchange(), raw.store(), 1);
                let constrained = owned_constraints(raw.maps(), 1, &constrained_dofs(part, &spec));
                let mut op = DirichletOp::new(raw, constrained);
                op.mask_diagonal(&mut diag);
                let rhs = op.build_rhs(comm, &raw_rhs);
                let mut sends = Vec::new();
                if calibrate {
                    comm.barrier();
                    sends.extend(comm.crash_sends_posted());
                }
                let mut pc = Jacobi::new(&diag);
                let batching = BatchPolicy {
                    max_width: 2,
                    deadline_s: 1e-3,
                };
                let armed = RecoveryPolicy {
                    checkpoint: CheckpointPolicy {
                        every: 4,
                        max_recoveries: 4,
                    },
                    ..RecoveryPolicy::default()
                };
                let mut svc =
                    SolveService::new(&mut op, &mut pc, 1e-9, 2_000, batching).with_recovery(armed);
                let ids: Vec<u64> = (1..=4)
                    .map(|k| svc.submit(comm, rhs.iter().map(|v| v * f64::from(k)).collect()))
                    .collect();
                let mut outcomes = svc.flush(comm);
                outcomes.sort_by_key(|o| o.id);
                if calibrate {
                    comm.barrier();
                    sends.extend(comm.crash_sends_posted());
                }
                (sends, ids, outcomes)
            })
            .0
        };
        let calibration = run(u64::MAX, true);
        let (sends, ..) = calibration[0]
            .as_ref()
            .expect("the calibration crash never fires");
        let (setup, total) = (sends[0], sends[1]);
        assert!(total > setup, "no solve-phase traffic to crash into");

        // Crash about a third into the solve, between the collectives.
        let session = hymv_trace::TraceSession::begin();
        let results = run(setup + ((total - setup) * 35 / 100).max(1), false);
        let report = session.finish();
        for res in results {
            let (_, ids, outcomes) = res.expect("the armed service survives the crash");
            assert_eq!(
                outcomes.len(),
                ids.len(),
                "every submission gets an outcome"
            );
            for (o, &id) in outcomes.iter().zip(&ids) {
                assert_eq!(o.id, id, "outcome ids match submission order");
                assert_eq!(o.ctx, hymv_trace::ctx_request(id));
                assert_eq!(o.batch_ctx, hymv_trace::ctx_batch(o.batch as u64));
                assert!(o.fault.is_none() && o.converged, "request {id} failed");
            }
            assert!(
                outcomes.iter().any(|o| o.recoveries > 0),
                "the crash never fired"
            );
        }
        // The recovery spans recorded mid-crash inherited a batch context,
        // and that context is the target of the request flow links.
        let recovery_ctxs: BTreeSet<u64> = (report.spans.iter())
            .filter(|e| e.phase == Phase::Recovery)
            .map(|e| e.ctx)
            .collect();
        assert!(!recovery_ctxs.is_empty(), "no recovery spans recorded");
        for ctx in &recovery_ctxs {
            assert_eq!(*ctx, hymv_trace::ctx_batch(ctx & 0xffff_ffff));
            assert!(
                report.flows.iter().any(|&(_, to)| to == *ctx),
                "recovery ctx {ctx:#x} not flow-linked from any request"
            );
        }
        assert!(report.spans.iter().any(|e| e.phase == Phase::Submit));
        let prom = report.to_prometheus();
        for name in [
            "hymv_ckpt_bytes_total",
            "hymv_ckpt_taken_total",
            "hymv_restores_total",
            "hymv_recoveries_total",
        ] {
            assert!(prom.contains(name), "missing counter {name}:\n{prom}");
        }
    }

    /// A batch that fails with a typed fault must not tear down the
    /// service: its requests come back as failed outcomes carrying the
    /// fault, and later batches still solve.
    #[test]
    fn failed_batch_reports_per_request_and_later_batches_survive() {
        let n = 12;
        let out = Universe::run(1, |comm| {
            let mut op = random_spd(n, 21);
            let policy = BatchPolicy {
                max_width: 2,
                deadline_s: 1e-3,
            };
            let mut id = Identity;
            let mut svc = SolveService::new(&mut op, &mut id, 1e-8, 100, policy);
            let mut bad = vec![1.0; n];
            bad[3] = f64::NAN; // poisons batch 0 (NonFiniteRhs)
            svc.submit(comm, bad);
            svc.submit(comm, vec![1.0; n]);
            svc.submit(comm, vec![2.0; n]);
            svc.submit(comm, vec![3.0; n]);
            let results = svc.flush(comm);
            let metrics = svc.batch_metrics().to_vec();
            (results, metrics)
        });
        let (results, metrics) = &out[0];
        assert_eq!(results.len(), 4, "every request gets an outcome");
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].failed && !metrics[1].failed);
        for o in &results[..2] {
            assert!(!o.converged);
            assert_eq!(o.fault, Some(SolverFault::NonFiniteRhs));
            assert_eq!(o.batch, 0);
        }
        for o in &results[2..] {
            assert!(o.converged, "{o:?}");
            assert_eq!(o.fault, None);
            assert_eq!(o.batch, 1);
        }
    }

    /// The tentpole contract: request contexts survive batching. Every
    /// outcome carries its request/batch contexts, the trace records a
    /// `Submit` instant per request, the batch spans (and the solver
    /// iterations nested inside them) carry the batch context, a flow
    /// link binds each request to its batch — and the whole canonical
    /// trace stays bitwise identical across perturbation seeds.
    #[test]
    fn trace_contexts_link_requests_to_batches_deterministically() {
        use hymv_comm::RunConfig;

        let n_req = 5;
        let run = |seed: Option<u64>| {
            let n = 16;
            let cfg = RunConfig {
                perturb_seed: seed,
                trace: true,
                ..RunConfig::default()
            };
            let session = hymv_trace::TraceSession::begin();
            let (out, _audit) = Universe::run_configured(cfg, 1, |comm| {
                let mut op = random_spd(n, 5);
                let policy = BatchPolicy {
                    max_width: 2,
                    deadline_s: 1e-3,
                };
                let mut id = Identity;
                let mut svc = SolveService::new(&mut op, &mut id, 1e-8, 200, policy);
                for k in 0..n_req {
                    svc.submit(comm, vec![k as f64 + 1.0; n]);
                }
                let mut results = svc.flush(comm);
                results.sort_by_key(|o| o.id);
                results
                    .into_iter()
                    .map(|o| (o.id, o.ctx, o.batch_ctx, o.batch))
                    .collect::<Vec<_>>()
            });
            (out, session.finish())
        };

        let (out, report) = run(None);
        for &(id, ctx, batch_ctx, batch) in &out[0] {
            assert_eq!(ctx, hymv_trace::ctx_request(id));
            assert_eq!(batch_ctx, hymv_trace::ctx_batch(batch as u64));
        }
        // One Submit instant per request, carrying the request context.
        for &(id, ctx, ..) in &out[0] {
            assert!(
                report
                    .spans
                    .iter()
                    .any(|e| e.phase == Phase::Submit && e.ctx == ctx),
                "no submit instant for request {id}"
            );
        }
        // Batch spans and their nested solver iterations inherit the
        // batch context through the thread-local.
        for &(_, _, batch_ctx, _) in &out[0] {
            assert!(report
                .spans
                .iter()
                .any(|e| e.phase == Phase::ServeBatch && e.ctx == batch_ctx));
            assert!(report
                .spans
                .iter()
                .any(|e| e.phase == Phase::SolverIter && e.ctx == batch_ctx));
        }
        // Every request is flow-linked to its batch.
        for &(_, ctx, batch_ctx, _) in &out[0] {
            assert!(
                report.flows.contains(&(ctx, batch_ctx)),
                "missing flow {ctx:#x} -> {batch_ctx:#x}"
            );
        }
        // And the links materialize as Chrome flow events.
        let json = report.to_chrome_json();
        assert!(json.contains("\"ph\": \"s\""), "flow start events present");
        assert!(json.contains("\"bp\": \"e\""), "flow finish bound to slice");

        // Determinism certification with request tracing on.
        let reference = report.canonical();
        assert!(reference.contains("ctx=req:0"));
        assert!(reference.contains("flow "));
        for seed in [2u64, 3, 5, 7, 23, 101, 65537, 4096] {
            let (pert_out, pert_report) = run(Some(seed));
            assert_eq!(out, pert_out, "seed {seed}: outcomes diverged");
            assert_eq!(
                reference,
                pert_report.canonical(),
                "seed {seed}: canonical trace diverged"
            );
        }
    }

    #[test]
    fn full_batch_dispatches_without_waiting() {
        let n = 12;
        let out = Universe::run(1, |comm| {
            let mut op = random_spd(n, 11);
            let policy = BatchPolicy {
                max_width: 2,
                deadline_s: 1e9, // deadline never fires — fullness must
            };
            let mut id = Identity;
            let mut svc = SolveService::new(&mut op, &mut id, 1e-8, 100, policy);
            for k in 0..5 {
                svc.submit(comm, vec![k as f64 + 1.0; n]);
            }
            let full = svc.step(comm);
            (full.len(), svc.pending())
        });
        let (dispatched, pending) = out[0];
        // Two full width-2 batches go out; the single leftover waits.
        assert_eq!(dispatched, 4);
        assert_eq!(pending, 1);
    }
}
