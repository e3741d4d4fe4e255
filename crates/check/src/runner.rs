//! The one runner of the certificate table.
//!
//! For every distinct [`Problem`] of the selected rows the runner builds
//! the mesh and partition once and runs the map/DA and LNSM/GNGM
//! invariant passes on it once. For every distinct `(problem, run)` it
//! runs one unperturbed baseline; then every perturbed case goes through
//! one spawn path ([`Universe::run_chaos`], typed per-rank results) and
//! one [`judge`], and prints one case line.

use std::collections::BTreeMap;
use std::fmt;

use hymv_comm::{
    AuditMode, AuditReport, Comm, CommStats, CostModel, FaultPlan, FaultReport, RetryPolicy,
    RunConfig, Universe,
};
use hymv_core::assemble::{assemble_rhs, jacobi_diagonal};
use hymv_core::dirichlet_op::owned_constraints;
use hymv_core::system::{BuildOptions, FemSystem};
use hymv_core::{DirichletOp, HymvOperator, Method};
use hymv_fem::analytic::PoissonProblem;
use hymv_fem::dirichlet::constrained_dofs;
use hymv_la::{
    block_cg, resilient_cg, CheckpointPolicy, Jacobi, LinOp, MultiLinOp, Multivector,
    RecoveryPolicy,
};
use hymv_mesh::PartitionedMesh;
use hymv_serve::{BatchPolicy, SolveService};

use crate::biteq::BitEq;
use crate::maps::{check_exchange, check_partition};
use crate::table::{CrashWindow, Driver, Perturbation, Problem, Row, Run, Verdict};

/// What one rank of one run hands the judge.
pub struct Out<T> {
    /// The result whose bits the certificate holds equal.
    pub value: T,
    /// Residual history of a solve; held equal unless the row recovers
    /// (a recovery replays iterations).
    pub history: Vec<f64>,
    /// LFLR recoveries the run consumed.
    pub recoveries: usize,
    /// Driver-level failures (non-convergence, solver faults).
    pub notes: Vec<String>,
    /// Whether the channel degraded this rank to the blocking schedule.
    pub degraded: bool,
    /// The rank's transport counters.
    pub stats: CommStats,
}

impl<T> Out<T> {
    /// A plain result, with the rank's channel state.
    pub fn of(value: T, comm: &Comm) -> Self {
        Out {
            value,
            history: Vec::new(),
            recoveries: 0,
            notes: Vec::new(),
            degraded: comm.degraded(),
            stats: comm.stats(),
        }
    }
}

/// The verdict on one case: a perturbed run of a row, or a problem's
/// invariant pass (seed 0).
#[derive(Debug, Clone)]
pub struct Case {
    /// Row name.
    pub row: String,
    /// Perturbation seed.
    pub seed: u64,
    /// `bit-equal`, `typed-abort`, `recovered`, or `FAILED`.
    pub outcome: &'static str,
    /// The counters that fired, as `name=value` words: typed ranks,
    /// recoveries, degraded ranks, and the transport's retries, timeouts,
    /// dups and corruptions summed over ranks.
    pub counters: String,
    /// Contract violations: empty iff the case held its row's verdict.
    pub violations: Vec<String>,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (row, seed, outcome) = (&self.row, self.seed, self.outcome);
        let detail = if self.violations.is_empty() {
            self.counters.clone()
        } else {
            self.violations.join("; ")
        };
        let line = format!("  {row:36} seed={seed:<3} {outcome:11} {detail}");
        f.write_str(line.trim_end())
    }
}

/// The failed cases of a run, one line each, with a count — or `None`
/// when every case held.
pub fn failures(cases: &[Case]) -> Option<String> {
    let failed: Vec<String> = (cases.iter())
        .filter(|c| !c.violations.is_empty())
        .map(|c| format!("{c}\n"))
        .collect();
    let count = format!("{} of {} case(s) failed", failed.len(), cases.len());
    (!failed.is_empty()).then(|| failed.concat() + &count)
}

/// Run configuration of one run: the perturbation's knobs on a perfect,
/// unaudited transport. Schedule cases pin the protocol audit on, whatever
/// the build profile; fault cases strand tombstones and duplicates by
/// design, so they run unaudited, like the baselines.
pub(crate) fn config(pert: Option<Perturbation>, seed: u64, p: usize, crash_at: u64) -> RunConfig {
    let mut cfg = RunConfig {
        model: CostModel::default(),
        perturb_seed: None,
        audit: AuditMode::Disabled,
        fault: None,
        retry: RetryPolicy::default(),
        trace: false,
    };
    match pert {
        None => {}
        Some(Perturbation::Schedule | Perturbation::Threads(_)) => {
            cfg.perturb_seed = Some(seed);
            cfg.audit = AuditMode::Enabled;
        }
        Some(Perturbation::Chaos(scenario)) => cfg.fault = Some(scenario.plan(seed, p)),
        Some(Perturbation::Crash(_)) => {
            cfg.fault = Some(FaultPlan::new(seed).with_crash(p - 1, crash_at));
        }
        Some(Perturbation::DegradeAtFirstLoss) => {
            cfg.fault = Some(FaultPlan::new(seed).with_drop(0.2));
            cfg.retry.degrade_after = 1;
            cfg.retry.rearm_after = 0;
        }
    }
    cfg
}

/// The unperturbed baseline of `program` on `p` ranks.
///
/// # Panics
/// If any rank aborts: a baseline that cannot run is a broken row.
pub fn baseline<T: Send>(p: usize, program: impl Fn(&mut Comm) -> Out<T> + Sync) -> Vec<Out<T>> {
    let (results, _) = Universe::run_chaos(config(None, 0, p, 0), p, program);
    let ok = |r: Result<Out<T>, FaultReport>| r.unwrap_or_else(|e| panic!("baseline aborted: {e}"));
    results.into_iter().map(ok).collect()
}

/// Judge one perturbed case against its baseline and the row's verdict.
pub fn judge<T: BitEq>(
    row: &str,
    seed: u64,
    perturbation: Perturbation,
    expect: Verdict,
    baseline: &[Out<T>],
    results: Vec<Result<Out<T>, FaultReport>>,
    audit: Option<AuditReport>,
) -> Case {
    let mut bad = Vec::new();
    if let Some(report) = audit.filter(|r| !r.is_clean()) {
        bad.push(format!("communication audit failed:\n{report}"));
    }
    let (mut stats, mut recoveries, mut typed, mut degraded) = (CommStats::default(), 0, 0, 0);
    let what = format!("{perturbation:?} perturbation").to_lowercase();
    for (rank, (res, base)) in results.into_iter().zip(baseline).enumerate() {
        let out = match res {
            Ok(out) => out,
            Err(_) if expect == Verdict::TypedAbort => {
                typed += 1;
                continue;
            }
            Err(report) => {
                bad.push(format!("rank {rank}: aborted: {report}"));
                continue;
            }
        };
        stats.fold_max(&out.stats);
        recoveries = recoveries.max(out.recoveries);
        degraded += u64::from(out.degraded);
        bad.extend(out.notes.iter().map(|note| format!("rank {rank}: {note}")));
        if expect == Verdict::TypedAbort {
            bad.push(format!(
                "rank {rank}: completed under an unrecoverable fault"
            ));
        } else if let Some(m) = base.value.mismatch(&out.value) {
            bad.push(format!(
                "rank {rank}: {what} changed the result (seed {seed}): {} entr{} differ, \
                 first at index {}\n  baseline:  {}\n  perturbed: {}",
                m.count,
                if m.count == 1 { "y" } else { "ies" },
                m.first,
                m.left,
                m.right
            ));
        } else if expect != Verdict::Recovered && !out.history.bit_eq(&base.history) {
            bad.push(format!("rank {rank}: {what} changed the residual history"));
        }
    }
    if expect == Verdict::Recovered && recoveries == 0 {
        bad.push("no recovery ran: the crash never fired".into());
    }
    if perturbation == Perturbation::DegradeAtFirstLoss && degraded == 0 {
        bad.push("the drop plan never degraded a rank".into());
    }
    let outcome = match expect {
        _ if !bad.is_empty() => "FAILED",
        Verdict::BitEqual => "bit-equal",
        Verdict::TypedAbort => "typed-abort",
        Verdict::Recovered => "recovered",
    };
    let counters = [
        ("typed", typed),
        ("recoveries", recoveries as u64),
        ("degraded", degraded),
        ("retries", stats.retries),
        ("timeouts", stats.timeouts),
        ("dups", stats.dups_suppressed),
        ("corrupt", stats.corrupt_detected),
    ];
    Case {
        row: row.to_string(),
        seed,
        outcome,
        counters: (counters.iter().filter(|&&(_, v)| v > 0))
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
        violations: bad,
    }
}

/// The schedule-perturbation race detector — a schedule row for any rank
/// program, catching results that depend on message *arrival order* (a
/// `recv_any` fold, an order-sensitive reduction). Runs `f` on `p` ranks
/// unperturbed and once per seed under a legal reordering (delivery order
/// shuffled within MPI's non-overtaking constraint, transit stretched),
/// asserting bitwise-identical results per rank and a clean protocol
/// audit, which is on in every build profile. Returns the baseline.
///
/// # Panics
/// If any perturbed run differs from the baseline on any rank (the
/// message names the seed, the rank, the first differing entry and its
/// two values) or breaks the communication protocol.
pub fn run_perturbed<T, F>(p: usize, seeds: &[u64], f: F) -> Vec<T>
where
    T: BitEq + Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let program = |comm: &mut Comm| Out::of(f(comm), comm);
    let base = baseline(p, program);
    for &seed in seeds {
        let cfg = config(Some(Perturbation::Schedule), seed, p, 0);
        let (results, audit) = Universe::run_chaos(cfg, p, program);
        let case = judge(
            "run_perturbed",
            seed,
            Perturbation::Schedule,
            Verdict::BitEqual,
            &base,
            results,
            audit,
        );
        let violations = case.violations.join("\n");
        assert!(violations.is_empty(), "seed {seed}: {violations}");
    }
    base.into_iter().map(|o| o.value).collect()
}

/// Run `rows` (each under `seeds` when given, else its own), printing
/// one line per problem's invariant passes and one per case.
pub fn run_rows(rows: &[Row], seeds: Option<&[u64]>) -> Vec<Case> {
    let mut cases = Vec::new();
    // Meshes and baselines are built once, on first use, in row order.
    let mut meshes: Vec<(Problem, PartitionedMesh)> = Vec::new();
    let mut bases: Vec<((Problem, Run), Vec<Out<Vec<f64>>>, Option<(u64, u64)>)> = Vec::new();
    for row in rows {
        let (problem, run, p) = (row.problem, row.run, row.problem.p);
        if !meshes.iter().any(|(q, _)| *q == problem) {
            let pm = problem.build();
            println!("{} on {p} ranks, {}^3 elements:", problem.slug(), problem.n);
            for pass in [check_partition(&pm), check_exchange(&pm)] {
                let case = Case {
                    row: format!("{}: {}", problem.slug(), pass.title),
                    seed: 0,
                    outcome: if pass.is_clean() { "ok" } else { "FAILED" },
                    counters: String::new(),
                    violations: pass.violations,
                };
                println!("{case}");
                cases.push(case);
            }
            meshes.push((problem, pm));
        }
        let pm = &meshes
            .iter()
            .find(|(q, _)| *q == problem)
            .expect("built above")
            .1;
        if !bases.iter().any(|(k, ..)| *k == (problem, run)) {
            let base = baseline(p, |comm| execute(pm, problem, run, 1, comm));
            bases.push(((problem, run), base, None));
        }
        let (_, base, calibrated) = bases
            .iter_mut()
            .find(|(k, ..)| *k == (problem, run))
            .expect("run above");
        let (name, pert, expect) = (&row.name, row.perturbation, row.expect);
        let (threads, crash_at) = match pert {
            Perturbation::Threads(t) => (t, 0),
            Perturbation::Crash(window) => {
                // Crash-window placement, calibrated once per (problem, run).
                let (setup, total) = *calibrated.get_or_insert_with(|| calibrate(pm, problem, run));
                (1, window.place(setup, total))
            }
            _ => (1, 0),
        };
        for &seed in seeds.unwrap_or(&row.seeds) {
            let cfg = config(Some(pert), seed, p, crash_at);
            let (results, audit) =
                Universe::run_chaos(cfg, p, |comm| execute(pm, problem, run, threads, comm));
            let case = judge(name, seed, pert, expect, base, results, audit);
            println!("{case}");
            cases.push(case);
        }
    }
    cases
}

/// One rank of one run of `run` on `problem`, an apply on `threads`
/// modeled threads.
fn execute(
    pm: &PartitionedMesh,
    problem: Problem,
    run: Run,
    threads: usize,
    comm: &mut Comm,
) -> Out<Vec<f64>> {
    match run {
        Run::Apply { batch, nvec } => {
            let kernel = problem.make_kernel();
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[comm.rank()], &*kernel);
            if let Some(b) = batch {
                op.set_batch_width(b);
            }
            op.set_threads(threads);
            let y = apply_probe(&mut op, nvec, comm);
            Out::of(y, comm)
        }
        Run::Solve {
            method,
            driver,
            ckpt_every,
        } => {
            let mut sys = System::build(pm, problem, method, comm);
            drive(&mut sys, driver, ckpt_every, comm)
        }
    }
}

/// One SPMV (`nvec == 1`) or SpMM on a deterministic, rank-independent
/// input whose magnitudes span five decades, so accumulation-order bugs
/// show in the low mantissa bits; column `c` shifts the generator by `7c`.
/// Returns the owned outputs, column after column.
fn apply_probe(op: &mut HymvOperator, nvec: usize, comm: &mut Comm) -> Vec<f64> {
    let (n, begin) = (op.n_owned(), op.maps().node_range.0);
    let input = |c: u64| -> Vec<f64> {
        let x = |g: u64| ((g % 13) as f64 + 0.125) * 10f64.powi((g % 5) as i32 - 2);
        (0..n as u64).map(|i| x(begin + i + c * 7)).collect()
    };
    if nvec == 1 {
        let mut y = vec![0.0; n];
        op.matvec(comm, &input(0), &mut y);
        return y;
    }
    let x = Multivector::from_columns(&(0..nvec as u64).map(input).collect::<Vec<_>>());
    let mut y = Multivector::new(n, nvec);
    op.matvec_mv(comm, &x, &mut y);
    (0..nvec).flat_map(|c| y.col(c).to_vec()).collect()
}

/// The multivector interface over the column-loop default, for the
/// operators without an SpMM of their own; LFLR repair is forwarded.
struct Columns(DirichletOp<Box<dyn LinOp>>);

impl LinOp for Columns {
    fn n_owned(&self) -> usize {
        self.0.n_owned()
    }
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.0.apply(comm, x, y);
    }
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        self.0.repair(comm, dead);
    }
}

impl MultiLinOp for Columns {}

/// A Dirichlet-constrained Poisson system ready for any driver.
struct System {
    op: Box<dyn MultiLinOp>,
    rhs: Vec<f64>,
    diag: Vec<f64>,
}

impl System {
    /// Build on this rank. HYMV runs its own SpMM (coalesced multivector
    /// envelopes); the other methods go through [`FemSystem`].
    fn build(pm: &PartitionedMesh, problem: Problem, method: Method, comm: &mut Comm) -> System {
        let part = &pm.parts[comm.rank()];
        let kernel = problem.make_kernel();
        let spec = PoissonProblem::dirichlet();
        if method != Method::Hymv {
            let sys = FemSystem::build(comm, part, kernel, &spec, BuildOptions::new(method));
            let (op, rhs, diag) = (Box::new(Columns(sys.op)), sys.rhs, sys.diag);
            return System { op, rhs, diag };
        }
        let (op, _) = HymvOperator::setup(comm, part, &*kernel);
        let raw = assemble_rhs(comm, op.maps(), op.exchange(), part, &*kernel);
        let mut diag = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), 1);
        let constrained = owned_constraints(op.maps(), 1, &constrained_dofs(part, &spec));
        let mut a = DirichletOp::new(op, constrained);
        a.mask_diagonal(&mut diag);
        let rhs = a.build_rhs(comm, &raw);
        System {
            op: Box::new(a),
            rhs,
            diag,
        }
    }
}

/// Right-hand sides of the block-CG and service drivers.
const COLS: usize = 4;

/// The [`COLS`] right-hand sides of the multi-RHS drivers: the load
/// `rhs`, perturbed per column so the columns are independent (the
/// wrapped operator is the identity on constrained rows, so any values
/// there keep it SPD).
fn rhs_columns(rhs: &[f64]) -> Vec<Vec<f64>> {
    let col = |c: usize| {
        rhs.iter()
            .enumerate()
            .map(move |(i, &r)| r + 0.01 * ((i * 7 + c * 3) % 11) as f64)
    };
    (0..COLS).map(|c| col(c).collect()).collect()
}

/// The service's batching: the four requests go in two batches.
const BATCHING: BatchPolicy = BatchPolicy {
    max_width: 2,
    deadline_s: 1e-3,
};

/// The drivers' recovery policy, LFLR-armed when `ckpt_every` is set.
fn recovery(ckpt_every: Option<usize>) -> RecoveryPolicy {
    let armed = |every| CheckpointPolicy {
        every,
        max_recoveries: 4,
    };
    RecoveryPolicy {
        checkpoint: ckpt_every.map_or(CheckpointPolicy::OFF, armed),
        ..RecoveryPolicy::default()
    }
}

/// Run `driver` on `sys` (LFLR-armed every `ckpt` iterations when
/// set) to `1e-9` and hand the judge its solution bits.
fn drive(sys: &mut System, driver: Driver, ckpt: Option<usize>, comm: &mut Comm) -> Out<Vec<f64>> {
    let mut pc = Jacobi::new(&sys.diag);
    let policy = recovery(ckpt);
    let n = sys.op.n_owned();
    let mut out = Out::of(Vec::new(), comm);
    let (op, tol, maxit) = (&mut sys.op, 1e-9, 2_000);
    match driver {
        Driver::Cg => {
            let mut x = vec![0.0; n];
            match resilient_cg(comm, op, &mut pc, &sys.rhs, &mut x, tol, maxit, &policy) {
                Ok(res) if !res.result.converged => out.notes.push("cg did not converge".into()),
                Ok(res) => (out.history, out.recoveries) = (res.result.history, res.recoveries),
                Err(e) => out.notes.push(format!("cg fault: {e}")),
            }
            out.value = x;
        }
        Driver::BlockCg => {
            let b = Multivector::from_columns(&rhs_columns(&sys.rhs));
            let mut x = Multivector::new(n, COLS);
            match block_cg(comm, op, &mut pc, &b, &mut x, tol, maxit, &policy) {
                Ok(res) if !res.converged => out.notes.push("block_cg did not converge".into()),
                Ok(res) => (out.history, out.recoveries) = (res.history, res.recoveries),
                Err(e) => out.notes.push(format!("block_cg fault: {e}")),
            }
            out.value = (0..COLS).flat_map(|c| x.col(c).to_vec()).collect();
        }
        Driver::Service => {
            let cols = rhs_columns(&sys.rhs);
            let mut svc =
                SolveService::new(op, &mut pc, tol, maxit, BATCHING).with_recovery(policy);
            for col in cols {
                svc.submit(comm, col);
            }
            let mut outcomes = svc.flush(comm);
            outcomes.sort_by_key(|o| o.id);
            // Each request of a batch reports its batch's recoveries.
            let per_batch: BTreeMap<usize, usize> =
                outcomes.iter().map(|o| (o.batch, o.recoveries)).collect();
            out.recoveries = per_batch.values().sum();
            for o in outcomes {
                if o.fault.is_some() || !o.converged {
                    out.notes
                        .push(format!("request {} failed: {:?}", o.id, o.fault));
                }
                out.value.extend_from_slice(&o.x);
            }
        }
    }
    (out.degraded, out.stats) = (comm.degraded(), comm.stats());
    out
}

/// Calibrate the victim's (last rank's) envelope-send counter for one
/// solve run: execute it under an injector whose crash can never fire and
/// read the counter at the setup/solve boundary and at completion.
/// Returns `(setup_sends, total_sends)`.
fn calibrate(pm: &PartitionedMesh, problem: Problem, run: Run) -> (u64, u64) {
    let Run::Solve {
        method,
        driver,
        ckpt_every,
    } = run
    else {
        panic!("crash windows are placed inside solves");
    };
    let never = config(
        Some(Perturbation::Crash(CrashWindow::Scatter)),
        1,
        problem.p,
        u64::MAX,
    );
    let (out, _) = Universe::run_configured(never, problem.p, |comm| {
        let mut sys = System::build(pm, problem, method, comm);
        // The barriers order the victim's sends before each read.
        comm.barrier();
        let setup = comm.crash_sends_posted().expect("crash spec set");
        let _ = drive(&mut sys, driver, ckpt_every, comm);
        comm.barrier();
        (setup, comm.crash_sends_posted().expect("crash spec set"))
    });
    let (setup, total) = out[0];
    assert!(
        total > setup,
        "no solve-phase envelope traffic to crash into"
    );
    (setup, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::select;
    use hymv_comm::Payload;

    /// The whole table holds, and every fault scenario actually fired on
    /// every operator.
    #[test]
    fn every_row_holds() {
        let cases = run_rows(&select(&[]), None);
        assert_eq!(failures(&cases), None);
        // Drops and corruptions cost retransmissions, duplicates are
        // suppressed: a row whose fault never fired certifies nothing.
        for row in select(&["chaos/drop", "chaos/corrupt", "chaos/duplicate"]) {
            let mut cases = cases.iter().filter(|c| c.row == row.name);
            let fired = |c: &Case| c.counters.contains("retries=") || c.counters.contains("dups=");
            assert!(cases.any(fired), "{}: the fault never fired", row.name);
        }
    }

    /// Negative row: the same crash against an unarmed solve aborts the
    /// world typed, which a recovery row must reject.
    #[test]
    fn unarmed_crash_fails_a_recovery_row() {
        let mut rows = select(&["lflr/p8/allreduce/cg"]);
        if let Run::Solve { ckpt_every, .. } = &mut rows[0].run {
            *ckpt_every = None;
        }
        let cases = run_rows(&rows, Some(&[1]));
        let case = cases.last().expect("one case");
        assert_eq!(case.outcome, "FAILED");
        assert!(
            case.violations.iter().any(|v| v.contains("aborted")),
            "{case}"
        );
    }

    /// Negative verdict: a recovery row whose crash never fired proves
    /// nothing, however equal its bits.
    #[test]
    fn crash_that_never_fires_is_a_violation() {
        let outs = || baseline(2, |comm| Out::of(1.0, comm));
        let results = outs().into_iter().map(Ok).collect();
        let crash = Perturbation::Crash(CrashWindow::Allreduce);
        let case = judge(
            "never",
            1,
            crash,
            Verdict::Recovered,
            &outs(),
            results,
            None,
        );
        assert_eq!(case.outcome, "FAILED");
        assert!(case.violations[0].contains("never fired"), "{case}");
    }

    /// A result that differs is reported in a few lines — the seed, the
    /// rank, the first differing index, how many entries differ and the
    /// two values there with their bits — not as two whole vectors.
    #[test]
    fn mismatch_report_is_bounded() {
        let row = &select(&["sched/hex8-rcb"])[0];
        let pm = row.problem.build();
        let run = || {
            baseline(row.problem.p, |comm| {
                execute(&pm, row.problem, row.run, 1, comm)
            })
        };
        let base = run();
        let mut results = run();
        let tampered = &mut results[1].value;
        assert!(tampered.len() > 20, "a 4^3 rank holds more than 20 entries");
        tampered[7] = -tampered[7] - 1.0;
        tampered[20] += 1.0;
        let case = judge(
            &row.name,
            5,
            row.perturbation,
            row.expect,
            &base,
            results.into_iter().map(Ok).collect(),
            None,
        );
        assert_eq!(case.outcome, "FAILED");
        let report = case.violations.join("\n");
        assert!(report.lines().count() <= 3, "{report}");
        assert!(
            report.contains("rank 1:")
                && report.contains("(seed 5): 2 entries differ, first at index 7"),
            "{report}"
        );
        let bits = format!("{:#018x}", base[1].value[7].to_bits());
        assert!(report.contains(&bits), "{report}");
    }

    /// Deterministic ring program: matched (src, tag) receives are immune
    /// to the perturbation, so this must pass under many seeds.
    #[test]
    fn deterministic_program_certifies() {
        let out = run_perturbed(4, &[1, 2, 3, 4, 5, 6, 7, 8], |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.isend(next, 3, Payload::from_f64(vec![comm.rank() as f64 * 0.1]));
            let got = comm.recv(prev, 3).into_f64()[0];
            comm.allreduce_sum_f64(got + 1e-3)
        });
        assert_eq!(out.len(), 4);
    }

    /// Negative test: a wildcard-receive floating-point fold whose value
    /// depends on arrival order. The magnitudes are chosen so that
    /// `(1e16 + 1.0) - 1e16 == 0.0` but `(1e16 - 1e16) + 1.0 == 1.0` —
    /// reorderings of the three messages change the bits. The sends are
    /// chained (rank `k` sends once rank `k - 1` has) and rank 0 reads
    /// only after a barrier, so arrival order is fixed and only the
    /// perturbation reorders the mailbox: the verdict is deterministic.
    #[test]
    #[should_panic(expected = "schedule perturbation changed the result")]
    fn order_dependent_fold_is_caught() {
        let vals = [1e16, 1.0, -1e16];
        run_perturbed(4, &(1..=16).collect::<Vec<u64>>(), move |comm| {
            let (r, p) = (comm.rank(), comm.size());
            if r > 1 {
                comm.recv(r - 1, 8);
            }
            if r > 0 {
                comm.isend(0, 9, Payload::from_f64(vec![vals[r - 1]]));
            }
            if r > 0 && r + 1 < p {
                comm.isend(r + 1, 8, Payload::from_u64(vec![0]));
            }
            comm.barrier();
            let fold = |acc: f64, _| acc + comm.recv_any(9).1.into_f64()[0];
            if r == 0 {
                (1..p).fold(0.0, fold)
            } else {
                0.0
            }
        });
    }

    /// Negative test: a program that leaks a message fails its schedule
    /// certificate in every build profile — the audit is pinned on, not
    /// inherited from the debug-only default.
    #[test]
    #[should_panic(expected = "communication audit failed")]
    fn leaked_message_fails_under_the_pinned_audit() {
        run_perturbed(2, &[1], |comm| {
            if comm.rank() == 1 {
                comm.isend(0, 4, Payload::from_u64(vec![7]));
            }
            comm.barrier();
        });
    }
}
