//! The timed body: repetitions of `setup → steady-state applies → solve →
//! adaptive steps` on the workload's ranks. Rank 0 times every operation
//! barrier → op → barrier with `Instant`; every call into a layer is a
//! span (recorded only in the traced universe).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use hymv_comm::{Comm, RunConfig, Universe};
use hymv_core::assemble::{assemble_rhs, jacobi_diagonal, owned_node_coords};
use hymv_core::dirichlet_op::owned_constraints;
use hymv_core::{AssembledOperator, DirichletOp, GhostExchange, HymvMaps, HymvOperator};
use hymv_fem::dirichlet::constrained_dofs;
use hymv_la::solver::cg;
use hymv_la::{Jacobi, LinOp, MultiLinOp, Multivector, Precond};
use hymv_mesh::{MeshPartition, PartitionedMesh};
use hymv_serve::SolveService;

use crate::machine::with_idle_cores_busy;
use crate::spans::{spanned, Recorder, Span, SpannedOp, SpannedPrecond};
use crate::workloads::{
    seeded_vector, Kind, Problem, Spec, APPLIES_PER_STEP, BATCH_WIDTH, DIRTY_FRAC, NVEC,
    SERVICE_POLICY,
};

/// Iteration cap of every solve: far above what any workload needs, so
/// hitting it is a failure, not a truncation.
pub const MAX_ITER: usize = 20_000;

/// Untimed applies before the steady-state loop of a fresh operator.
const WARM_APPLIES: usize = 2;

/// Samples by metric name (rank 0's wall clock).
#[derive(Debug, Default, Clone)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// What one run of the body needs.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub problem: &'a Problem,
    pub pm: &'a PartitionedMesh,
    /// Shared time origin of every rank's spans.
    pub epoch: Instant,
    /// Measured repetitions needed before the time box may close.
    pub min_reps: usize,
}

/// One rank's harvest.
pub struct RankOut {
    pub samples: Samples,
    pub checks: Checks,
    pub spans: Vec<Span>,
    /// `VmHWM` right after the repetitions, before any reference
    /// operator is built for the checks.
    pub peak_rss_mib: f64,
}

/// Per-rank inputs that outlive the repetitions.
pub struct Scaffold {
    raw_rhs: Vec<f64>,
    pub constrained: Vec<(u32, f64)>,
    coords: Vec<[f64; 3]>,
    /// Seeded SPMV input.
    pub x: Vec<f64>,
    /// Seeded load cases (service workload), zero on constrained dofs.
    pub loads: Vec<Vec<f64>>,
    /// First element of the next dirty window.
    window_start: usize,
}

impl Scaffold {
    pub fn build(ctx: &Ctx, comm: &mut Comm, part: &MeshPartition) -> Scaffold {
        let kernel = &*ctx.problem.kernel;
        let ndof = kernel.ndof_per_node();
        let maps = HymvMaps::build(part);
        let exchange = GhostExchange::build(comm, &maps);
        let raw_rhs = assemble_rhs(comm, &maps, &exchange, part, kernel);
        let constrained =
            owned_constraints(&maps, ndof, &constrained_dofs(part, &ctx.problem.dirichlet));
        let first_dof = maps.node_range.0 * ndof as u64;
        let n = maps.n_owned() * ndof;
        let seed = ctx.problem.seed;
        let loads = if ctx.spec.kind == Kind::Hex8Service {
            (1..=NVEC as u64)
                .map(|k| {
                    let mut f = seeded_vector(seed, k, first_dof, n);
                    for &(d, _) in &constrained {
                        f[d as usize] = 0.0;
                    }
                    f
                })
                .collect()
        } else {
            Vec::new()
        };
        Scaffold {
            raw_rhs,
            coords: owned_node_coords(&maps, part),
            x: seeded_vector(seed, 0, first_dof, n),
            loads,
            window_start: (seed as usize).wrapping_add(comm.rank() * 7919) % part.n_elems(),
            constrained,
        }
    }

    /// The next 5 % window of local elements; consecutive steps move it.
    pub fn next_window(&mut self, n_elems: usize) -> Vec<usize> {
        let w = ((n_elems as f64 * DIRTY_FRAC).round() as usize).clamp(1, n_elems);
        let start = self.window_start;
        self.window_start = (start + w) % n_elems;
        (0..w).map(|i| (start + i) % n_elems).collect()
    }
}

/// What a repetition leaves behind for the checks.
struct RepState {
    dop: DirichletOp<HymvOperator>,
    /// Solution of the last solve (CG workloads).
    x: Vec<f64>,
    /// Outcomes of the last service batch, in submit order.
    outcomes: Vec<Vec<f64>>,
    diag: Vec<f64>,
}

/// The sinks of a measured repetition; `None` during the warm-up.
type Sinks<'a> = Option<(&'a mut Samples, &'a mut Checks)>;

fn push(sm: &mut Sinks, name: &'static str, v: f64) {
    if let Some((s, _)) = sm.as_mut() {
        s.push(name, v);
    }
}

fn barrier(comm: &mut Comm, rec: &RefCell<Recorder>) {
    spanned(rec, "comm.barrier", || comm.barrier());
}

fn all_finite(comm: &mut Comm, v: &[f64]) -> bool {
    let bad = v.iter().filter(|x| !x.is_finite()).count() as u64;
    comm.allreduce_sum_u64(bad) == 0
}

/// One repetition. `sm` is `None` for the discarded warm-up.
fn repetition(
    ctx: &Ctx,
    comm: &mut Comm,
    part: &MeshPartition,
    scaf: &mut Scaffold,
    rec: &RefCell<Recorder>,
    mut sm: Sinks,
) -> RepState {
    let spec = ctx.spec;
    let kernel = &*ctx.problem.kernel;
    let ndof = kernel.ndof_per_node();
    let rep_t0 = Instant::now();

    // ---- setup: maps, exchange, Ke, copy, plan.
    let e2e = rec.borrow_mut().open("e2e.setup");
    barrier(comm, rec);
    let (t0, vt0) = (Instant::now(), comm.vt());
    let (op, _) = spanned(rec, "core.operator.setup", || {
        HymvOperator::setup(comm, part, kernel)
    });
    barrier(comm, rec);
    let setup_s = t0.elapsed().as_secs_f64();
    rec.borrow_mut().close(e2e);
    push(&mut sm, "setup_s", setup_s);
    push(
        &mut sm,
        "comm.vt_over_wall.setup",
        (comm.vt() - vt0) / setup_s,
    );
    assert_eq!(
        op.batch_width(),
        BATCH_WIDTH,
        "benchmark pins the batch width"
    );

    // ---- untimed: what a solve needs around the operator.
    let mut diag = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), ndof);
    let mut dop = DirichletOp::new(op, scaf.constrained.clone());
    dop.mask_diagonal(&mut diag);
    let rhs = dop.build_rhs(comm, &scaf.raw_rhs);
    let mut pc = Jacobi::new(&diag);
    let n = dop.n_owned();
    let mut y = vec![0.0; n];
    for _ in 0..WARM_APPLIES {
        dop.apply(comm, &scaf.x, &mut y);
    }

    // ---- steady-state applies.
    let e2e = rec.borrow_mut().open("e2e.spmv");
    barrier(comm, rec);
    let (t0, vt0) = (Instant::now(), comm.vt());
    for _ in 0..spec.spmv_per_rep {
        let t = Instant::now();
        spanned(rec, "core.operator.matvec", || {
            dop.apply(comm, &scaf.x, &mut y)
        });
        push(&mut sm, "spmv_s", t.elapsed().as_secs_f64());
    }
    barrier(comm, rec);
    let loop_s = t0.elapsed().as_secs_f64();
    rec.borrow_mut().close(e2e);
    push(
        &mut sm,
        "comm.vt_over_wall.spmv",
        (comm.vt() - vt0) / loop_s,
    );
    let finite = all_finite(comm, &y);
    if let Some((_, ck)) = sm.as_mut() {
        ck.check(finite, || {
            "steady-state apply produced a non-finite value".into()
        });
    }

    // ---- solve.
    let mut state = RepState {
        x: Vec::new(),
        outcomes: Vec::new(),
        diag: Vec::new(),
        dop,
    };
    {
        let mut sop = SpannedOp {
            inner: &mut state.dop,
            rec,
        };
        let mut spc = SpannedPrecond {
            inner: &mut pc,
            rec,
        };
        let solve_s = if spec.kind == Kind::Hex8Service {
            let (s, outs) = service_phase(ctx, comm, &mut sop, &mut spc, scaf, rec, &mut sm);
            state.outcomes = outs;
            s
        } else {
            let (s, x) = cg_phase(ctx, comm, &mut sop, &mut spc, &rhs, rec, &mut sm);
            state.x = x;
            s
        };
        push(&mut sm, "time_to_solution_s", setup_s + solve_s);
    }

    // ---- adaptive steps: dirty window → update → applies.
    let n_elems = part.n_elems();
    for _ in 0..spec.steps_per_rep {
        let window = scaf.next_window(n_elems);
        let e2e = rec.borrow_mut().open("e2e.step");
        barrier(comm, rec);
        let t0 = Instant::now();
        spanned(rec, "core.operator.update_elements", || {
            state
                .dop
                .inner_mut()
                .update_elements(comm, part, kernel, &window)
        });
        for k in 0..APPLIES_PER_STEP {
            let name = if k == 0 {
                "core.operator.matvec+flush"
            } else {
                "core.operator.matvec"
            };
            spanned(rec, name, || state.dop.apply(comm, &scaf.x, &mut y));
            if k == 0 {
                push(&mut sm, "update_s", t0.elapsed().as_secs_f64());
            }
        }
        barrier(comm, rec);
        let step_s = t0.elapsed().as_secs_f64();
        rec.borrow_mut().close(e2e);
        push(&mut sm, "step_s", step_s);
    }

    push(&mut sm, "rep_wall_s", rep_t0.elapsed().as_secs_f64());
    state.diag = diag;
    state
}

/// One Jacobi-CG solve to the workload's tolerance: a single caller's
/// request, so its latency is the solve wall.
fn cg_phase(
    ctx: &Ctx,
    comm: &mut Comm,
    op: &mut dyn LinOp,
    pc: &mut dyn Precond,
    rhs: &[f64],
    rec: &RefCell<Recorder>,
    sm: &mut Sinks,
) -> (f64, Vec<f64>) {
    let e2e = rec.borrow_mut().open("e2e.solve");
    barrier(comm, rec);
    let (t0, vt0) = (Instant::now(), comm.vt());
    let mut x = vec![0.0; rhs.len()];
    let res = spanned(rec, "la.cg", || {
        cg(comm, op, pc, rhs, &mut x, ctx.spec.rtol, MAX_ITER)
    });
    barrier(comm, rec);
    let solve_s = t0.elapsed().as_secs_f64();
    rec.borrow_mut().close(e2e);
    let finite = all_finite(comm, &x);
    if let Some((s, ck)) = sm.as_mut() {
        s.push("solve_s", solve_s);
        s.push("req_latency_s", solve_s);
        s.push("req_per_s", 1.0 / solve_s);
        s.push("comm.vt_over_wall.solve", (comm.vt() - vt0) / solve_s);
        s.push("la.cg.iterations", res.iterations as f64);
        ck.check(res.converged && finite, || {
            format!(
                "cg did not converge: {} iterations, rel residual {:e}",
                res.iterations, res.rel_residual
            )
        });
    }
    (solve_s, x)
}

/// Closed loop through the solve service: `NVEC` callers each submit a
/// load case and wait for its outcome; a full queue dispatches at once.
/// One untimed multivector apply first (a fresh operator allocates its
/// multivector workspace on the first one), then the timed batches.
fn service_phase(
    ctx: &Ctx,
    comm: &mut Comm,
    op: &mut dyn MultiLinOp,
    pc: &mut dyn Precond,
    scaf: &Scaffold,
    rec: &RefCell<Recorder>,
    sm: &mut Sinks,
) -> (f64, Vec<Vec<f64>>) {
    let b = Multivector::from_columns(&scaf.loads);
    op.apply_mv(comm, &b, &mut Multivector::new(b.nrows(), NVEC));
    let mut svc = SolveService::new(op, pc, ctx.spec.rtol, MAX_ITER, SERVICE_POLICY);

    let e2e = rec.borrow_mut().open("e2e.solve");
    barrier(comm, rec);
    let (body_t0, vt0) = (Instant::now(), comm.vt());
    let mut batch_walls = Vec::new();
    let mut last = Vec::new();
    for _ in 0..ctx.spec.batches_per_rep {
        let submitted: Vec<Instant> = scaf
            .loads
            .iter()
            .map(|f| {
                let t = Instant::now();
                spanned(rec, "serve.submit", || svc.submit(comm, f.clone()));
                t
            })
            .collect();
        let t_batch = Instant::now();
        let outs = spanned(rec, "serve.step", || svc.step(comm));
        let done = Instant::now();
        batch_walls.push((done - t_batch).as_secs_f64());
        if let Some((s, ck)) = sm.as_mut() {
            s.push("solve_s", (done - t_batch).as_secs_f64());
            ck.check(outs.len() == NVEC, || {
                format!("batch returned {} of {NVEC} outcomes", outs.len())
            });
            for (o, t) in outs.iter().zip(&submitted) {
                s.push("req_latency_s", (done - *t).as_secs_f64());
                let finite = o.x.iter().all(|v| v.is_finite());
                ck.check(o.converged && o.fault.is_none() && finite, || {
                    format!(
                        "request {} failed: converged={} fault={:?} rel residual {:e}",
                        o.id, o.converged, o.fault, o.rel_residual
                    )
                });
            }
        }
        last = outs.into_iter().map(|o| o.x).collect();
    }
    barrier(comm, rec);
    let body_s = body_t0.elapsed().as_secs_f64();
    rec.borrow_mut().close(e2e);
    let n_batches = ctx.spec.batches_per_rep;
    if let Some((s, _)) = sm.as_mut() {
        s.push("req_per_s", (n_batches * NVEC) as f64 / body_s);
        s.push("comm.vt_over_wall.solve", (comm.vt() - vt0) / body_s);
        for b in svc.batch_metrics() {
            s.push("la.block_cg.iterations", b.iterations as f64);
            s.push("serve.width", b.width as f64);
        }
    }
    let mean_wall = batch_walls.iter().sum::<f64>() / n_batches as f64;
    (mean_wall, last)
}

fn rel_diff(comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    (comm.allreduce_sum_f64(num) / comm.allreduce_sum_f64(den)).sqrt()
}

/// The workload's correctness gates, on what the last repetition left.
fn gates(
    ctx: &Ctx,
    comm: &mut Comm,
    part: &MeshPartition,
    scaf: &Scaffold,
    state: &mut RepState,
    ck: &mut Checks,
) {
    let kernel = &*ctx.problem.kernel;
    let ndof = kernel.ndof_per_node();
    let n = state.dop.n_owned();
    let mut y = vec![0.0; n];
    state.dop.inner_mut().matvec(comm, &scaf.x, &mut y);

    match ctx.spec.kind {
        Kind::Hex20Solve | Kind::Tet10Solve => {
            // HYMV against the globally assembled matrix on the same x.
            let (mut asm, _) = AssembledOperator::setup(comm, part, kernel);
            let mut y_ref = vec![0.0; n];
            asm.apply(comm, &scaf.x, &mut y_ref);
            let d = rel_diff(comm, &y, &y_ref);
            ck.check(d <= 1e-9, || {
                format!("HYMV vs assembled apply: rel diff {d:e}")
            });
        }
        Kind::Hex8Adaptive => {
            // After every update so far, the operator still equals a
            // fresh setup on the same element matrices.
            let (mut fresh, _) = HymvOperator::setup(comm, part, kernel);
            let mut y_ref = vec![0.0; n];
            fresh.matvec(comm, &scaf.x, &mut y_ref);
            let d = rel_diff(comm, &y, &y_ref);
            ck.check(d <= 1e-11, || {
                format!("updated operator vs fresh setup: rel diff {d:e}")
            });
        }
        Kind::Hex8Service => {
            // Every outcome of the last batch against its own CG solve.
            let mut pc = Jacobi::new(&state.diag);
            for (k, (f, x_svc)) in scaf.loads.iter().zip(&state.outcomes).enumerate() {
                let mut x = vec![0.0; n];
                let res = cg(comm, &mut state.dop, &mut pc, f, &mut x, 1e-10, MAX_ITER);
                let d = rel_diff(comm, x_svc, &x);
                ck.check(res.converged && d <= 1e-6, || {
                    format!("service outcome {k} vs direct cg: rel diff {d:e}")
                });
            }
        }
    }

    if let (Some(exact), Some(max_err)) = (&ctx.problem.exact, ctx.spec.max_err) {
        let local = hymv_fem::analytic::inf_error(&scaf.coords, &state.x, ndof, |p| exact(p));
        let err = comm.allreduce_max_f64(local);
        ck.check(err <= max_err, || {
            format!("solution vs analytic field: err_inf {err:e} > {max_err:e}")
        });
    }
}

/// `VmHWM` of this process in MiB (0 if `/proc` is unreadable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run the body in one universe: a discarded warm-up repetition, then
/// measured repetitions until `seconds` have passed (and at least
/// `ctx.min_reps` are in), then — untraced only — the correctness gates.
/// With `traced`, the runner's spans are recorded and the universe
/// reports to the open `hymv_trace::TraceSession`.
pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Vec<RankOut> {
    let cfg = RunConfig {
        trace: traced,
        ..RunConfig::default()
    };
    let body = |comm: &mut Comm| {
        let part = &ctx.pm.parts[comm.rank()];
        let rec = RefCell::new(Recorder::new(traced, ctx.epoch, comm.rank()));
        let mut scaf = Scaffold::build(ctx, comm, part);
        let mut samples = Samples::default();
        let mut checks = Checks::default();

        drop(repetition(
            ctx,
            comm,
            part,
            &mut scaf,
            &RefCell::new(Recorder::new(false, ctx.epoch, comm.rank())),
            None,
        ));
        let t0 = Instant::now();
        let mut reps = 0usize;
        let mut state = loop {
            rec.borrow_mut().set_rep(reps);
            let state = repetition(
                ctx,
                comm,
                part,
                &mut scaf,
                &rec,
                Some((&mut samples, &mut checks)),
            );
            reps += 1;
            // Rank 0's clock decides; every rank learns the decision.
            let stop =
                comm.rank() == 0 && reps >= ctx.min_reps && t0.elapsed().as_secs_f64() >= seconds;
            if comm.allreduce_max_u64(u64::from(stop)) == 1 {
                break state;
            }
            // Free the operator before the next setup allocates its own.
            drop(state);
        };
        let peak_rss_mib = peak_rss_mib();
        // The traced universe repeats the untraced one, whose outputs
        // the gates have already checked.
        if !traced {
            gates(ctx, comm, part, &scaf, &mut state, &mut checks);
        }
        RankOut {
            samples,
            checks,
            spans: rec.into_inner().into_spans(),
            peak_rss_mib,
        }
    };
    with_idle_cores_busy(ctx.spec.p, || {
        Universe::run_configured(cfg, ctx.spec.p, body).0
    })
}
