//! The runner's own spans: one per call into a layer, recorded from the
//! benchmark's side of the public API, held in memory and written out as
//! Chrome JSON when the run ends. A span's self time is its duration
//! minus the part its children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use hymv_comm::Comm;
use hymv_la::{LinOp, MultiLinOp, Multivector, Precond};

/// Spans whose names start with this prefix are the end-to-end intervals;
/// everything recorded inside one is a call into a layer.
pub const E2E_PREFIX: &str = "e2e.";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same recorder) of the span that was open when this
    /// one started.
    pub parent: Option<u32>,
    pub rank: u32,
    /// Repetition the span belongs to: spans of one rep share it.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::open`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-rank span recorder. All ranks share one `epoch` so their
/// timelines line up in the trace file.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    rank: u32,
    rep: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, rank: usize) -> Self {
        Recorder {
            on,
            epoch,
            rank: rank as u32,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep as u32;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rank: self.rank,
            rep: self.rep,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Record `f` as one span.
pub fn spanned<R>(rec: &RefCell<Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = rec.borrow_mut().open(name);
    let out = f();
    rec.borrow_mut().close(open);
    out
}

/// An operator whose every apply is a span: what the Krylov solvers are
/// handed in the traced run, so a solve span's self time is the solver's
/// own reductions and vector updates.
pub struct SpannedOp<'a, O> {
    pub inner: &'a mut O,
    pub rec: &'a RefCell<Recorder>,
}

impl<O: LinOp> LinOp for SpannedOp<'_, O> {
    fn n_owned(&self) -> usize {
        self.inner.n_owned()
    }
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        spanned(self.rec, "core.operator.matvec", || {
            self.inner.apply(comm, x, y)
        });
    }
    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
}

impl<O: MultiLinOp> MultiLinOp for SpannedOp<'_, O> {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        spanned(self.rec, "core.operator.matvec_mv", || {
            self.inner.apply_mv(comm, x, y)
        });
    }
}

/// A preconditioner whose every apply is a span.
pub struct SpannedPrecond<'a, P> {
    pub inner: &'a mut P,
    pub rec: &'a RefCell<Recorder>,
}

impl<P: Precond> Precond for SpannedPrecond<'_, P> {
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        spanned(self.rec, "la.precond.apply", || {
            self.inner.apply(comm, r, z)
        });
    }
}

/// Self time of every span: duration minus the summed durations of its
/// direct children (children of one parent run one after another on one
/// rank, so they never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of the end-to-end intervals that calls into layers cover:
/// `1 − Σ self(e2e spans) / Σ dur(e2e spans)`.
pub fn attributed_frac(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let (mut total, mut unattributed) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&own) {
        if s.name.starts_with(E2E_PREFIX) {
            total += s.dur_ns();
            unattributed += own_ns;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - unattributed as f64 / total as f64
}

/// Total self time per span name, descending.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += *own_ns as f64 * 1e-9,
            None => by_name.push((s.name, *own_ns as f64 * 1e-9)),
        }
    }
    by_name.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    by_name
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one row per rank. `per_rank` holds each rank's spans;
/// parent ids are per rank.
pub fn chrome_json(per_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for spans in per_rank {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"rep\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rank,
                id,
                parent,
                s.rep
            )
            .expect("writing to a String");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rank: 0,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("e2e.solve", 0, 100, None),
            span("la.cg", 5, 95, Some(0)),
            span("core.operator.matvec", 10, 40, Some(1)),
            span("core.operator.matvec", 50, 80, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 30, 30]);
        // Grandchildren do not count twice against the root.
        assert!((attributed_frac(&spans) - 0.9).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0].0, "core.operator.matvec");
        assert!((by_name[0].1 - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn attributed_frac_only_counts_e2e_roots() {
        let spans = vec![
            span("e2e.setup", 0, 100, None),
            span("core.operator.setup", 0, 100, Some(0)),
            span("warmup", 100, 1000, None),
        ];
        assert!((attributed_frac(&spans) - 1.0).abs() < 1e-12);
        assert_eq!(attributed_frac(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_tags_reps() {
        let rec = RefCell::new(Recorder::new(true, Instant::now(), 1));
        rec.borrow_mut().set_rep(3);
        spanned(&rec, "e2e.spmv", || {
            spanned(&rec, "core.operator.matvec", || {});
        });
        let spans = rec.into_inner().into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.rank == 1 && s.rep == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = RefCell::new(Recorder::new(false, Instant::now(), 0));
        spanned(&rec, "e2e.spmv", || {});
        assert!(rec.into_inner().into_spans().is_empty());
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let json = chrome_json(&[vec![span("a", 1000, 3000, None)], vec![]]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.000"));
        assert!(json.contains("\"parent\":-1"));
    }
}
