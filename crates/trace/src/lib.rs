//! hymv-trace: the observability layer.
//!
//! Per-rank, virtual-time-stamped **span tracing** over the phases of
//! Algorithm 2 (ghost scatter post, independent EMV, wait/recv, dependent
//! EMV, gather accumulate, plus setup and solver iterations), a typed
//! **metrics registry** (counters / gauges / histograms), and exporters:
//! a merged multi-rank Chrome-trace JSON (CPU rank spans and GPU stream
//! events on one timebase), a Prometheus-style text dump, an ASCII Gantt
//! renderer, and derived analyses (overlap efficiency, per-phase load
//! imbalance, critical-path attribution).
//!
//! # Design constraints
//!
//! * **Virtual time only.** Span timestamps are the rank's ledger clock
//!   (`Comm::vt()`), never a wall clock — traces stay free of host
//!   nondeterminism (the kernel crates' clippy config disallows wall
//!   clocks). The *structure* of a trace (event order, phases, nesting,
//!   counters) is bitwise reproducible across schedule-perturbation
//!   seeds; the raw timestamps embed measured thread-CPU time and are
//!   not. Determinism checks therefore compare
//!   [`TraceReport::canonical`], which strips timestamps.
//! * **Near-zero disabled cost.** Every recording entry point first reads
//!   one relaxed [`AtomicBool`]; with `HYMV_TRACE` unset that load and a
//!   predicted branch are the whole overhead (guarded <3% by the bench
//!   suite).
//! * **Explicit opt-in per run.** A [`TraceSession`] arms the global
//!   enable flag under a lock (so concurrent tests cannot interleave
//!   sessions), but ranks only record when their `Universe` run was
//!   configured with `trace: true` — a concurrent untraced run never
//!   pollutes an open session.
//!
//! The crate is a leaf: it depends only on `serde`/`serde_json`, so
//! `hymv-comm` (and everything above it) can depend on it.

#![forbid(unsafe_code)]

mod analysis;
mod chrome;
pub mod flight;
mod gantt;
pub mod live;
mod metrics;

pub use analysis::{analyze, PhaseStat, TraceAnalysis};
pub use chrome::{span_to_chrome, spans_to_chrome, to_chrome_json, ChromeTraceEvent};
pub use gantt::{render_rows, render_spans};
pub use metrics::{Histogram, MetricKey, Metrics};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// ------------------------------------------------------------------ phases

/// The instrumented phases of the HYMV pipeline. CPU spans carry one of
/// these; GPU stream events reuse the `Gpu*` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Whole operator setup (maps + exchange + element matrices + plan).
    Setup,
    /// LNSM/GNGM map construction inside setup.
    MapsBuild,
    /// Ghost-exchange plan construction inside setup.
    ExchangeBuild,
    /// Element-matrix computation inside setup.
    EmatCompute,
    /// Element-matrix store copy inside setup.
    LocalCopy,
    /// Block-plan construction inside setup.
    PlanBuild,
    /// Host-to-device upload of the element store (GPU operator setup).
    GpuUpload,
    /// Algorithm 2: pack + post the ghost scatter sends.
    ScatterPost,
    /// Algorithm 2: EMV over elements touching no ghost dofs (the work
    /// that hides the scatter in flight).
    IndepEmv,
    /// Algorithm 2: receive/wait for the ghost scatter to complete.
    ScatterWait,
    /// Algorithm 2: EMV over elements touching ghost dofs.
    DepEmv,
    /// Algorithm 2: post the gather (ghost contribution) sends.
    GatherPost,
    /// Algorithm 2: receive + accumulate gathered ghost contributions.
    GatherAccum,
    /// Adaptive refresh of dirty element blocks before an apply.
    BlockRefresh,
    /// One Krylov solver iteration.
    SolverIter,
    /// A solve request entering the service queue (instant span; carries
    /// the request's trace context).
    Submit,
    /// One batched multi-RHS solve dispatched by the solve service.
    ServeBatch,
    /// Reliable-envelope retransmission backoff (fault recovery).
    Retry,
    /// LFLR buddy-checkpoint exchange (every k solver iterations).
    Checkpoint,
    /// LFLR world repair after a rank was declared dead.
    Recovery,
    /// Simulated device host-to-device copy.
    GpuH2D,
    /// Simulated device kernel execution.
    GpuKernel,
    /// Simulated device device-to-host copy.
    GpuD2H,
}

impl Phase {
    /// Every variant, in display order (used by exporters and docs).
    pub const ALL: &'static [Phase] = &[
        Phase::Setup,
        Phase::MapsBuild,
        Phase::ExchangeBuild,
        Phase::EmatCompute,
        Phase::LocalCopy,
        Phase::PlanBuild,
        Phase::GpuUpload,
        Phase::ScatterPost,
        Phase::IndepEmv,
        Phase::ScatterWait,
        Phase::DepEmv,
        Phase::GatherPost,
        Phase::GatherAccum,
        Phase::BlockRefresh,
        Phase::SolverIter,
        Phase::Submit,
        Phase::ServeBatch,
        Phase::Retry,
        Phase::Checkpoint,
        Phase::Recovery,
        Phase::GpuH2D,
        Phase::GpuKernel,
        Phase::GpuD2H,
    ];

    /// Stable identifier used in exports and the canonical trace.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::MapsBuild => "maps_build",
            Phase::ExchangeBuild => "exchange_build",
            Phase::EmatCompute => "emat_compute",
            Phase::LocalCopy => "local_copy",
            Phase::PlanBuild => "plan_build",
            Phase::GpuUpload => "gpu_upload",
            Phase::ScatterPost => "scatter_post",
            Phase::IndepEmv => "indep_emv",
            Phase::ScatterWait => "scatter_wait",
            Phase::DepEmv => "dep_emv",
            Phase::GatherPost => "gather_post",
            Phase::GatherAccum => "gather_accum",
            Phase::BlockRefresh => "block_refresh",
            Phase::SolverIter => "solver_iter",
            Phase::Submit => "submit",
            Phase::ServeBatch => "serve_batch",
            Phase::Retry => "retry",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
            Phase::GpuH2D => "h2d",
            Phase::GpuKernel => "kernel",
            Phase::GpuD2H => "d2h",
        }
    }

    /// Chrome-trace category (the `cat` field; drives Perfetto coloring).
    pub fn category(self) -> &'static str {
        match self {
            Phase::Setup
            | Phase::MapsBuild
            | Phase::ExchangeBuild
            | Phase::EmatCompute
            | Phase::LocalCopy
            | Phase::PlanBuild
            | Phase::GpuUpload => "setup",
            Phase::ScatterPost
            | Phase::ScatterWait
            | Phase::GatherPost
            | Phase::GatherAccum
            | Phase::Retry
            | Phase::Checkpoint
            | Phase::Recovery => "comm",
            Phase::IndepEmv | Phase::DepEmv | Phase::BlockRefresh => "emv",
            Phase::SolverIter | Phase::Submit | Phase::ServeBatch => "solver",
            Phase::GpuH2D | Phase::GpuKernel | Phase::GpuD2H => "gpu",
        }
    }

    /// One-character glyph for the ASCII Gantt renderer.
    pub fn glyph(self) -> char {
        match self {
            Phase::Setup => 'S',
            Phase::MapsBuild => 'm',
            Phase::ExchangeBuild => 'x',
            Phase::EmatCompute => 'e',
            Phase::LocalCopy => 'c',
            Phase::PlanBuild => 'b',
            Phase::GpuUpload => 'u',
            Phase::ScatterPost => 'p',
            // The indep-EMV host kernel and the device kernel draw the
            // same glyph on purpose: both are "EMV running".
            Phase::IndepEmv | Phase::GpuKernel => '█',
            Phase::ScatterWait => 'w',
            Phase::DepEmv => '▓',
            Phase::GatherPost => 'g',
            Phase::GatherAccum => 'a',
            Phase::BlockRefresh => 'r',
            Phase::SolverIter => 'i',
            Phase::Submit => 'q',
            Phase::ServeBatch => 'B',
            Phase::Retry => '!',
            Phase::Checkpoint => 'k',
            Phase::Recovery => 'R',
            Phase::GpuH2D => 'h',
            Phase::GpuD2H => 'd',
        }
    }
}

// ------------------------------------------------------------------- spans

/// One closed span: a `[t0, t1]` interval of virtual time on a rank's CPU
/// track (`tid == 0`) or one of its GPU stream tracks (`tid == 1 + s`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Owning rank.
    pub rank: usize,
    /// Track within the rank: 0 = CPU, `1 + s` = GPU stream `s`.
    pub tid: usize,
    /// Instrumented phase.
    pub phase: Phase,
    /// Optional detail label (GPU chunk labels like `indep[3]`); empty
    /// for plain phase spans.
    pub label: String,
    /// Span start, virtual-time seconds.
    pub t0: f64,
    /// Span end, virtual-time seconds.
    pub t1: f64,
    /// Nesting depth at open (0 = outermost).
    pub depth: usize,
    /// Per-rank open-order sequence number (deterministic tiebreaker).
    pub seq: u64,
    /// Trace context active when the span opened (0 = none). Request
    /// and batch contexts are minted by [`ctx_request`]/[`ctx_batch`]
    /// and installed with [`CtxGuard::enter`].
    pub ctx: u64,
}

struct OpenSpan {
    phase: Phase,
    t0: f64,
    seq: u64,
    ctx: u64,
}

struct RankTracer {
    active: bool,
    rank: usize,
    stack: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
    metrics: Metrics,
    flows: Vec<(u64, u64)>,
    last_vt: f64,
    next_seq: u64,
}

impl RankTracer {
    const fn new() -> Self {
        RankTracer {
            active: false,
            rank: 0,
            stack: Vec::new(),
            events: Vec::new(),
            metrics: Metrics::new(),
            flows: Vec::new(),
            last_vt: 0.0,
            next_seq: 0,
        }
    }

    fn close_top(&mut self, vt: f64) {
        if let Some(open) = self.stack.pop() {
            self.last_vt = vt;
            self.events.push(SpanEvent {
                rank: self.rank,
                tid: 0,
                phase: open.phase,
                label: String::new(),
                t0: open.t0,
                t1: vt,
                depth: self.stack.len(),
                seq: open.seq,
                ctx: open.ctx,
            });
        }
    }
}

thread_local! {
    static TRACER: RefCell<RankTracer> = const { RefCell::new(RankTracer::new()) };
    static CTX: Cell<u64> = const { Cell::new(0) };
}

// ---------------------------------------------------------- trace contexts

/// Kind bits of a trace context (high 32 bits of the `u64`).
const CTX_KIND_REQUEST: u64 = 1 << 32;
const CTX_KIND_BATCH: u64 = 2 << 32;

/// Mint the trace context of solve request `id`. Contexts are minted
/// from the service's deterministic (SPMD-replicated) request counter,
/// never from a global atomic, so the 8-seed canonical-trace
/// certification sees identical contexts on every schedule.
pub fn ctx_request(id: u64) -> u64 {
    debug_assert!(id < (1 << 32), "request id overflows the ctx id space");
    CTX_KIND_REQUEST | id
}

/// Mint the trace context of batch `ordinal` (the service's dispatch
/// ordinal, also deterministic under SPMD).
pub fn ctx_batch(ordinal: u64) -> u64 {
    debug_assert!(
        ordinal < (1 << 32),
        "batch ordinal overflows the ctx id space"
    );
    CTX_KIND_BATCH | ordinal
}

/// Human-readable spelling of a context: `req:3`, `batch:1`, or `0`.
pub fn ctx_name(ctx: u64) -> String {
    let id = ctx & 0xffff_ffff;
    match ctx & !0xffff_ffff {
        CTX_KIND_REQUEST => format!("req:{id}"),
        CTX_KIND_BATCH => format!("batch:{id}"),
        _ => format!("{ctx}"),
    }
}

/// The trace context installed on the calling thread (0 = none). Spans
/// and flight-recorder entries opened while a context is installed carry
/// it; the context is thread-local state independent of the trace gate,
/// so the flight recorder sees it even in untraced runs.
pub fn current_ctx() -> u64 {
    CTX.with(Cell::get)
}

/// RAII installation of a trace context on the calling thread. Restores
/// the previously installed context (supporting nesting: a batch context
/// inside a request context) on drop, including panic unwinds, so a
/// faulted batch never leaks its context into later batches.
pub struct CtxGuard {
    prev: u64,
}

impl CtxGuard {
    /// Install `ctx` as the thread's current trace context.
    pub fn enter(ctx: u64) -> CtxGuard {
        CtxGuard {
            prev: CTX.with(|c| c.replace(ctx)),
        }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Record a parent/child flow link between two contexts (e.g. request →
/// batch). Links are deduplicated at session harvest and exported as
/// Chrome-trace flow events; they are part of the canonical trace.
pub fn flow_link(from: u64, to: u64) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active {
            t.flows.push((from, to));
        }
    });
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: Mutex<()> = Mutex::new(());
static SINK: Mutex<Sink> = Mutex::new(Sink::new());

struct Sink {
    spans: Vec<SpanEvent>,
    metrics: Metrics,
    flows: Vec<(u64, u64)>,
}

impl Sink {
    const fn new() -> Self {
        Sink {
            spans: Vec::new(),
            metrics: Metrics::new(),
            flows: Vec::new(),
        }
    }
}

fn lock_sink() -> MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True while a [`TraceSession`] is open. This is the one check on the
/// disabled fast path: a relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm the calling thread as rank `rank` of a traced run. Called by the
/// `Universe` rank threads of a run configured with `trace: true`; a
/// no-op when no session is open.
pub fn rank_begin(rank: usize) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.active = true;
        t.rank = rank;
        t.stack.clear();
        t.events.clear();
        t.metrics = Metrics::new();
        t.flows.clear();
        t.last_vt = 0.0;
        t.next_seq = 0;
    });
}

/// Publish the calling rank thread's spans and metrics into the open
/// session and disarm the thread. Dangling open spans (a rank that
/// unwound mid-phase) are closed at the last recorded virtual time.
pub fn rank_flush() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.active {
            return;
        }
        while !t.stack.is_empty() {
            let vt = t.last_vt;
            t.close_top(vt);
        }
        t.active = false;
        let events = std::mem::take(&mut t.events);
        let metrics = std::mem::take(&mut t.metrics);
        let flows = std::mem::take(&mut t.flows);
        let rank = t.rank;
        drop(t);
        let mut sink = lock_sink();
        sink.spans.extend(events);
        sink.metrics.absorb_with_rank(&metrics, rank);
        sink.flows.extend(flows);
    });
}

/// Publish the calling rank's *current* metrics registry to the live
/// telemetry transports (HTTP endpoint / snapshot file) without closing
/// the session — replacement semantics, so calling this at every batch
/// boundary is safe. No-op unless a transport is configured and the
/// thread is a traced rank.
pub fn rank_live_publish() {
    if !live::live_enabled() || !enabled() {
        return;
    }
    TRACER.with(|t| {
        let t = t.borrow();
        if t.active {
            live::publish(t.rank, &t.metrics);
        }
    });
}

/// RAII span over a phase. Open with the current virtual time, close
/// with the virtual time at phase end; a guard dropped without an
/// explicit [`SpanGuard::close`] (panic unwind, early return) closes at
/// the thread's last recorded virtual time so the trace stays well
/// formed.
#[must_use = "a span guard records its phase only when closed or dropped"]
pub struct SpanGuard {
    armed: bool,
    closed: bool,
    phase: Phase,
    t0: f64,
}

impl SpanGuard {
    /// Open a span at virtual time `vt`. Disarmed (free, modulo the
    /// always-on flight recorder) when tracing is off or the thread is
    /// not a traced rank.
    pub fn open(phase: Phase, vt: f64) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                armed: false,
                closed: false,
                phase,
                t0: vt,
            };
        }
        let armed = TRACER.with(|t| {
            let mut t = t.borrow_mut();
            if !t.active {
                return false;
            }
            let seq = t.next_seq;
            t.next_seq += 1;
            t.last_vt = vt;
            let ctx = current_ctx();
            t.stack.push(OpenSpan {
                phase,
                t0: vt,
                seq,
                ctx,
            });
            true
        });
        SpanGuard {
            armed,
            closed: false,
            phase,
            t0: vt,
        }
    }

    /// Close the span at virtual time `vt`.
    pub fn close(mut self, vt: f64) {
        if self.armed {
            self.armed = false;
            TRACER.with(|t| t.borrow_mut().close_top(vt));
        }
        self.closed = true;
        flight::record_span(self.phase, self.t0, vt);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let vt = t.last_vt;
                t.close_top(vt);
            });
        }
        // Unwound or early-returned guard: flight-record the open edge
        // (t1 == t0) so the ring still shows the phase that was running.
        if !self.closed {
            flight::record_span(self.phase, self.t0, self.t0);
        }
    }
}

/// Record an instant (zero-length) span at virtual time `vt` carrying
/// the thread's current trace context — the anchor for request-level
/// flow events (e.g. [`Phase::Submit`] at `SolveService::submit`).
pub fn instant(phase: Phase, vt: f64) {
    flight::record_span(phase, vt, vt);
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.active {
            return;
        }
        let seq = t.next_seq;
        t.next_seq += 1;
        t.last_vt = vt;
        let rank = t.rank;
        let depth = t.stack.len();
        t.events.push(SpanEvent {
            rank,
            tid: 0,
            phase,
            label: String::new(),
            t0: vt,
            t1: vt,
            depth,
            seq,
            ctx: current_ctx(),
        });
    });
}

/// Record one already-closed GPU stream event on the calling rank's
/// timeline (`tid = 1 + stream`). Timestamps must already be shifted
/// onto the rank's virtual timebase by the caller.
pub fn gpu_span(stream: usize, phase: Phase, label: &str, t0: f64, t1: f64) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.active {
            return;
        }
        let seq = t.next_seq;
        t.next_seq += 1;
        let rank = t.rank;
        t.events.push(SpanEvent {
            rank,
            tid: 1 + stream,
            phase,
            label: label.to_string(),
            t0,
            t1,
            depth: 0,
            seq,
            ctx: current_ctx(),
        });
    });
}

// ----------------------------------------------------------------- metrics

/// Add `v` to a counter in the calling rank's registry. Counter names
/// must follow the Prometheus `_total` suffix convention (checked in
/// debug builds; see DESIGN.md §16).
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    debug_assert!(
        name.ends_with("_total"),
        "counter {name:?} violates the _total suffix convention"
    );
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active {
            t.metrics.counter_add(MetricKey::new(name, labels), v);
        }
    });
}

/// Set a gauge in the calling rank's registry.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: f64) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active {
            t.metrics.gauge_set(MetricKey::new(name, labels), v);
        }
    });
}

/// Record one observation into a log2-bucketed histogram in the calling
/// rank's registry.
pub fn histogram_record(name: &str, labels: &[(&str, &str)], v: u64) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active {
            t.metrics.histogram_record(MetricKey::new(name, labels), v);
        }
    });
}

// --------------------------------------------------------------- tag names

static TAG_NAMES: Mutex<BTreeMap<u32, &'static str>> = Mutex::new(BTreeMap::new());

/// Register a human-readable name for a message tag (used by the per-tag
/// traffic metrics). Idempotent; names persist across sessions.
pub fn name_tag(tag: u32, name: &'static str) {
    TAG_NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(tag, name);
}

/// The registered name of `tag`, or its hex spelling when unregistered.
pub fn tag_label(tag: u32) -> String {
    TAG_NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&tag)
        .map_or_else(|| format!("{tag:#06x}"), |n| (*n).to_string())
}

// ---------------------------------------------------------------- sessions

/// An open tracing window. Exactly one session can be open at a time
/// (sessions serialize on a global lock, so concurrent tests queue
/// rather than interleave); spans and metrics recorded by traced ranks
/// between [`TraceSession::begin`] and [`TraceSession::finish`] land in
/// the returned [`TraceReport`].
pub struct TraceSession {
    _serial: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Open a session: acquires the session lock, clears the collection
    /// buffers, and arms the global enable flag.
    pub fn begin() -> TraceSession {
        let serial = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut sink = lock_sink();
            sink.spans.clear();
            sink.metrics = Metrics::new();
            sink.flows.clear();
        }
        live::init_from_env();
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { _serial: serial }
    }

    /// Close the session and harvest the merged multi-rank report.
    /// Spans are ordered by `(rank, seq)` — per-rank program order.
    pub fn finish(self) -> TraceReport {
        ENABLED.store(false, Ordering::SeqCst);
        let mut sink = lock_sink();
        let mut spans = std::mem::take(&mut sink.spans);
        let metrics = std::mem::take(&mut sink.metrics);
        let mut flows = std::mem::take(&mut sink.flows);
        drop(sink);
        spans.sort_by_key(|e| (e.rank, e.seq));
        flows.sort_unstable();
        flows.dedup();
        TraceReport {
            spans,
            metrics,
            flows,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// `HYMV_TRACE` truthiness: set and not one of `0`/`off`/`false`.
pub fn env_enabled() -> bool {
    std::env::var("HYMV_TRACE").is_ok_and(|v| {
        let v = v.trim();
        !(v.is_empty()
            || v == "0"
            || v.eq_ignore_ascii_case("off")
            || v.eq_ignore_ascii_case("false"))
    })
}

/// `HYMV_TRACE_OUT`: output path override for trace artifacts.
pub fn env_out() -> Option<String> {
    std::env::var("HYMV_TRACE_OUT")
        .ok()
        .filter(|s| !s.is_empty())
}

// ----------------------------------------------------------------- reports

/// The harvest of one [`TraceSession`]: every rank's spans (CPU and GPU
/// tracks) plus the merged metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// All spans, ordered by `(rank, seq)`.
    pub spans: Vec<SpanEvent>,
    /// Merged registry; every key carries a `rank` label.
    pub metrics: Metrics,
    /// Deduplicated parent/child context links (request → batch),
    /// sorted; exported as Chrome-trace flow events.
    pub flows: Vec<(u64, u64)>,
}

impl TraceReport {
    /// Merged multi-rank Chrome-trace JSON: CPU spans on `pid = rank,
    /// tid = 0`, GPU stream events on `pid = rank, tid = 1 + stream`,
    /// plus `s`/`f` flow events for the recorded context links.
    pub fn to_chrome_json(&self) -> String {
        let mut events = spans_to_chrome(&self.spans);
        events.extend(chrome::flows_to_chrome(&self.spans, &self.flows));
        to_chrome_json(&events)
    }

    /// Prometheus text exposition of the metrics registry.
    pub fn to_prometheus(&self) -> String {
        self.metrics.to_prometheus()
    }

    /// Derived overlap / imbalance / critical-path analysis.
    pub fn analyze(&self) -> TraceAnalysis {
        analyze(&self.spans)
    }

    /// Multi-rank ASCII Gantt chart (`width` columns).
    pub fn render_gantt(&self, width: usize) -> String {
        render_spans(&self.spans, width)
    }

    /// The timestamp-free structural image of the trace: span order,
    /// ranks, tracks, phases, nesting, labels, trace contexts, flow
    /// links, plus the counter and histogram halves of the registry.
    /// Gauges embed measured time and are excluded; histograms whose
    /// names end in `_us` or `_seconds` hold time-valued observations
    /// (per-request latencies), so only their counts — not their
    /// measured sums or bucket spread — enter the canonical image.
    /// Bitwise identical across schedule-perturbation seeds for a
    /// deterministic program — the object the 8-seed determinism
    /// certification compares.
    pub fn canonical(&self) -> String {
        let mut out = String::from("canonical-trace v1\n");
        for e in &self.spans {
            writeln!(
                out,
                "span rank={} tid={} depth={} seq={} phase={} ctx={} label={}",
                e.rank,
                e.tid,
                e.depth,
                e.seq,
                e.phase.name(),
                ctx_name(e.ctx),
                e.label
            )
            .expect("writing to String cannot fail");
        }
        for (from, to) in &self.flows {
            writeln!(out, "flow {} -> {}", ctx_name(*from), ctx_name(*to))
                .expect("writing to String cannot fail");
        }
        for (k, v) in &self.metrics.counters {
            writeln!(out, "counter {} {v}", k.render()).expect("writing to String cannot fail");
        }
        for (k, h) in &self.metrics.histograms {
            if k.name.ends_with("_us") || k.name.ends_with("_seconds") {
                writeln!(out, "hist {} count={}", k.render(), h.count)
                    .expect("writing to String cannot fail");
            } else {
                writeln!(out, "hist {} count={} sum={}", k.render(), h.count, h.sum)
                    .expect("writing to String cannot fail");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_thread<R: Send>(rank: usize, f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| {
            s.spawn(move || {
                rank_begin(rank);
                let out = f();
                rank_flush();
                out
            })
            .join()
            .expect("traced thread panicked")
        })
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Hold the session lock so no concurrent test opens a session.
        let _serial = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let g = SpanGuard::open(Phase::IndepEmv, 1.0);
        g.close(2.0);
        counter_add("hymv_test_total", &[], 1);
        // No session: nothing to harvest, and nothing panicked.
    }

    #[test]
    fn session_collects_nested_spans_in_order() {
        let session = TraceSession::begin();
        traced_thread(3, || {
            let outer = SpanGuard::open(Phase::SolverIter, 0.0);
            let inner = SpanGuard::open(Phase::ScatterPost, 1.0);
            inner.close(2.0);
            let inner2 = SpanGuard::open(Phase::IndepEmv, 2.0);
            inner2.close(5.0);
            outer.close(6.0);
        });
        let report = session.finish();
        assert_eq!(report.spans.len(), 3);
        // Spans close inner-first but sort back to open order by seq.
        assert_eq!(report.spans[0].phase, Phase::SolverIter);
        assert_eq!(report.spans[0].depth, 0);
        assert_eq!(report.spans[0].t1, 6.0);
        assert_eq!(report.spans[1].phase, Phase::ScatterPost);
        assert_eq!(report.spans[1].depth, 1);
        assert_eq!(report.spans[2].phase, Phase::IndepEmv);
        assert!(report.spans.iter().all(|e| e.rank == 3 && e.tid == 0));
    }

    #[test]
    fn dropped_guard_closes_at_last_vt() {
        let session = TraceSession::begin();
        traced_thread(0, || {
            let outer = SpanGuard::open(Phase::SolverIter, 0.0);
            {
                let _inner = SpanGuard::open(Phase::DepEmv, 4.0);
                // Dropped without close: must close at last_vt = 4.0.
            }
            outer.close(9.0);
        });
        let report = session.finish();
        let dep = report
            .spans
            .iter()
            .find(|e| e.phase == Phase::DepEmv)
            .expect("dropped span recorded");
        assert_eq!(dep.t0, 4.0);
        assert_eq!(dep.t1, 4.0);
        let outer = &report.spans[0];
        assert_eq!(outer.phase, Phase::SolverIter);
        assert_eq!(outer.t1, 9.0);
    }

    #[test]
    fn unflushed_rank_spans_are_closed_on_flush() {
        let session = TraceSession::begin();
        traced_thread(1, || {
            let g = SpanGuard::open(Phase::GatherAccum, 2.5);
            // Simulate a rank unwinding mid-phase: forget the guard so
            // neither close nor Drop runs, then flush.
            std::mem::forget(g);
        });
        let report = session.finish();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].t1, 2.5);
    }

    #[test]
    fn gpu_spans_land_on_stream_tracks() {
        let session = TraceSession::begin();
        traced_thread(2, || {
            gpu_span(0, Phase::GpuKernel, "indep[0]", 1.0, 2.0);
            gpu_span(3, Phase::GpuD2H, "d", 2.0, 2.5);
        });
        let report = session.finish();
        assert_eq!(report.spans[0].tid, 1);
        assert_eq!(report.spans[0].label, "indep[0]");
        assert_eq!(report.spans[1].tid, 4);
    }

    #[test]
    fn metrics_get_rank_labels_and_merge() {
        let session = TraceSession::begin();
        traced_thread(0, || {
            counter_add("hymv_widgets_total", &[("tag", "scatter")], 2);
            counter_add("hymv_widgets_total", &[("tag", "scatter")], 3);
            gauge_set("hymv_level", &[], 1.5);
            histogram_record("hymv_sizes", &[], 9);
        });
        let report = session.finish();
        let prom = report.to_prometheus();
        assert!(
            prom.contains("hymv_widgets_total{rank=\"0\",tag=\"scatter\"} 5"),
            "{prom}"
        );
        assert!(prom.contains("# TYPE hymv_widgets_total counter"), "{prom}");
        assert!(prom.contains("hymv_level{rank=\"0\"} 1.5"), "{prom}");
        assert!(prom.contains("hymv_sizes_count{rank=\"0\"} 1"), "{prom}");
    }

    #[test]
    fn untraced_threads_do_not_pollute_a_session() {
        let session = TraceSession::begin();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Enabled globally, but this thread never called
                // rank_begin: nothing may record.
                let g = SpanGuard::open(Phase::IndepEmv, 0.0);
                g.close(1.0);
                counter_add("hymv_noise_total", &[], 7);
                rank_flush();
            })
            .join()
            .expect("thread panicked");
        });
        let report = session.finish();
        assert!(report.spans.is_empty());
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn canonical_strips_timestamps() {
        let session = TraceSession::begin();
        traced_thread(0, || {
            let g = SpanGuard::open(Phase::IndepEmv, 0.123);
            g.close(0.456);
        });
        let a = session.finish();

        let session = TraceSession::begin();
        traced_thread(0, || {
            let g = SpanGuard::open(Phase::IndepEmv, 7.0);
            g.close(8.0);
        });
        let b = session.finish();

        assert_ne!(a.spans[0].t0, b.spans[0].t0);
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().contains("phase=indep_emv"));
    }

    #[test]
    fn tag_labels_fall_back_to_hex() {
        name_tag(0x0C01, "scatter");
        assert_eq!(tag_label(0x0C01), "scatter");
        assert_eq!(tag_label(0x0ABC), "0x0abc");
    }

    #[test]
    fn env_enabled_parses_truthiness() {
        // Not set in the test environment by default.
        assert!(!env_enabled() || std::env::var("HYMV_TRACE").is_ok());
    }
}
