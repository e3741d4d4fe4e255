//! Communication protocol auditor.
//!
//! While a universe runs, every point-to-point send, completed receive,
//! and collective participation is recorded as a typed [`AuditEvent`] in a
//! globally-ordered log (one atomic counter across ranks). At
//! [`Universe`](crate::Universe) teardown — after every rank's closure has
//! returned — the log is checked together with the leftover runtime state
//! (mailbox contents, open collective slots) for protocol violations:
//!
//! * **unmatched sends** — a message still sitting in a mailbox means some
//!   `isend` was never received;
//! * **sends to exited ranks** — a send globally ordered after the
//!   destination rank returned can never be matched;
//! * **unbalanced collectives** — a collective slot still open at teardown
//!   means some rank posted a barrier/reduction the others never joined,
//!   or posted a non-blocking reduction and never waited on it;
//! * **reserved-tag traffic** — user-range entry points reject reserved
//!   tags eagerly, so any reserved tag in the event log is an internal
//!   protocol error.
//!
//! Algorithm 2's phase rules are checked while the run is live, where the
//! code runs (DESIGN.md §9):
//!
//! * **window-blocking** — a blocking receive or collective wait reached
//!   inside the scatter window ([`Comm::overlap_window`](crate::Comm::overlap_window));
//! * **window-allocation** — a heap allocation on the rank's thread inside
//!   the window, counted by [`CountingAlloc`] when the program installs it
//!   as its global allocator;
//! * **collective-kind-mismatch** — two ranks posted different collectives
//!   at one sequence number;
//! * **collective-never-posted** — a rank waits on a collective that a rank
//!   which already returned never posted.
//!
//! All but window-allocation stop the run with a typed
//! [`FaultKind::ProtocolViolation`](crate::FaultKind::ProtocolViolation)
//! abort on every rank: the blocked wait may be one that never completes.
//! (Ghost reads inside the window show as the tagged NaN `hymv-core`'s
//! schedule writes into the ghost slots of an audited apply.)
//!
//! The auditor is on by default in debug builds and off in release
//! (`RunConfig::audit` chooses either way); see [`AuditMode`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::comm::ReduceOp;
use crate::RESERVED_TAG_BASE;

/// A counting global allocator: [`System`]'s, plus a per-thread count of
/// allocations and bytes that the scatter window reads at its marks. A
/// program opts in with
/// `#[global_allocator] static A: hymv_comm::CountingAlloc = hymv_comm::CountingAlloc;`;
/// without it the count stays at zero and the window-allocation rule sees
/// nothing.
pub struct CountingAlloc;

thread_local! {
    /// `(allocations, bytes)` this thread has asked for.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_allocation(bytes: usize) {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// `(allocations, bytes)` the calling thread has made so far through
/// [`CountingAlloc`].
pub(crate) fn thread_allocations() -> (u64, u64) {
    ALLOCATED.try_with(Cell::get).unwrap_or((0, 0))
}

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What a rank posted at one collective sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// [`Comm::barrier`](crate::Comm::barrier).
    Barrier,
    /// [`Comm::iallreduce`](crate::Comm::iallreduce) of `len` elements.
    Iallreduce { op: ReduceOp, len: usize },
    /// [`Comm::allgather_u64`](crate::Comm::allgather_u64).
    Allgather,
    /// [`Comm::bcast`](crate::Comm::bcast) from `root`.
    Bcast { root: usize },
    /// An LFLR recovery rendezvous.
    Recovery,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveKind::Barrier => write!(f, "barrier"),
            CollectiveKind::Iallreduce { op, len } => write!(f, "iallreduce({op:?}, len {len})"),
            CollectiveKind::Allgather => write!(f, "allgather"),
            CollectiveKind::Bcast { root } => write!(f, "bcast(root {root})"),
            CollectiveKind::Recovery => write!(f, "recovery rendezvous"),
        }
    }
}

/// The blocking operation a rank reached inside the scatter window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingOp {
    /// A matched (`src`) or wildcard (`None`) receive on `tag`.
    Recv { src: Option<usize>, tag: u32 },
    /// The wait of collective `seq`.
    Collective { seq: u64, kind: CollectiveKind },
}

impl fmt::Display for BlockingOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockingOp::Recv {
                src: Some(src),
                tag,
            } => {
                write!(f, "recv from rank {src} tag {tag:#x}")
            }
            BlockingOp::Recv { src: None, tag } => write!(f, "recv_any tag {tag:#x}"),
            BlockingOp::Collective { seq, kind } => write!(f, "the wait of {kind} seq {seq}"),
        }
    }
}

/// What happened, from the acting rank's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEventKind {
    /// This rank buffered a send into `dst`'s mailbox.
    SendPosted { dst: usize, tag: u32, bytes: usize },
    /// This rank confirmed a send's completion (`SendHandle::wait`).
    SendCompleted { dst: usize, tag: u32 },
    /// This rank completed a matched receive.
    RecvCompleted { src: usize, tag: u32, bytes: usize },
    /// This rank deposited its contribution to collective `seq`.
    CollectivePosted { seq: u64 },
    /// This rank consumed the result of collective `seq`.
    CollectiveCompleted { seq: u64 },
    /// This rank's SPMD closure returned.
    RankExited,
}

impl fmt::Display for AuditEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEventKind::SendPosted { dst, tag, bytes } => {
                write!(f, "send  -> rank {dst} tag {tag:#x} ({bytes} B)")
            }
            AuditEventKind::SendCompleted { dst, tag } => {
                write!(f, "send✓ -> rank {dst} tag {tag:#x}")
            }
            AuditEventKind::RecvCompleted { src, tag, bytes } => {
                write!(f, "recv  <- rank {src} tag {tag:#x} ({bytes} B)")
            }
            AuditEventKind::CollectivePosted { seq } => write!(f, "coll post  seq {seq}"),
            AuditEventKind::CollectiveCompleted { seq } => write!(f, "coll done  seq {seq}"),
            AuditEventKind::RankExited => write!(f, "exit"),
        }
    }
}

/// One globally-ordered protocol event.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Position in the global total order (atomic counter at record time).
    pub order: u64,
    /// The acting rank.
    pub rank: usize,
    /// What it did.
    pub kind: AuditEventKind,
}

/// The shared audit state of one audited universe: the event log (kept
/// only when the teardown checks run) and the violations found live.
pub(crate) struct AuditLog {
    /// Whether events are logged and the teardown checks run
    /// ([`AuditMode::PhaseRules`] runs only the live rules).
    pub(crate) teardown: bool,
    counter: AtomicU64,
    events: Mutex<Vec<AuditEvent>>,
    live: Mutex<Vec<AuditViolation>>,
    /// Per rank, the collective sequence number it had reached when its
    /// closure returned (`None` while it runs): it never posts that one or
    /// any later one.
    exits: Mutex<Vec<Option<u64>>>,
}

impl AuditLog {
    pub(crate) fn new(size: usize, teardown: bool) -> Self {
        AuditLog {
            teardown,
            counter: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            live: Mutex::new(Vec::new()),
            exits: Mutex::new(vec![None; size]),
        }
    }

    pub(crate) fn record(&self, rank: usize, kind: AuditEventKind) {
        if !self.teardown {
            return;
        }
        let order = self.counter.fetch_add(1, Ordering::Relaxed);
        self.events.lock().push(AuditEvent { order, rank, kind });
    }

    /// Records a violation found while the run is live.
    pub(crate) fn violation(&self, v: AuditViolation) {
        self.live.lock().push(v);
    }

    /// Records that `rank` returned having posted collectives `0..seq`.
    pub(crate) fn note_exit(&self, rank: usize, seq: u64) {
        self.exits.lock()[rank] = Some(seq);
    }

    /// A rank that returned without posting collective `seq`, if any.
    pub(crate) fn exited_before(&self, seq: u64) -> Option<usize> {
        self.exits
            .lock()
            .iter()
            .position(|e| e.is_some_and(|posted| posted <= seq))
    }

    /// The violations found live, in detection order.
    pub(crate) fn take_live(&self) -> Vec<AuditViolation> {
        std::mem::take(&mut *self.live.lock())
    }

    /// Drains the log (teardown only — ranks have all exited).
    pub(crate) fn take_events(&self) -> Vec<AuditEvent> {
        let mut events = std::mem::take(&mut *self.events.lock());
        events.sort_by_key(|e| e.order);
        events
    }
}

/// A message still in a mailbox at teardown.
#[derive(Debug, Clone)]
pub(crate) struct LeftoverMessage {
    pub dst: usize,
    pub src: usize,
    pub tag: u32,
    pub bytes: usize,
}

/// An open collective slot at teardown.
#[derive(Debug, Clone)]
pub(crate) struct LeftoverCollective {
    pub seq: u64,
    pub posted: usize,
    pub completed: usize,
}

/// A protocol violation found at teardown.
#[derive(Debug, Clone)]
pub enum AuditViolation {
    /// `src` sent to `dst` with `tag` but `dst` never received it.
    UnmatchedSend {
        dst: usize,
        src: usize,
        tag: u32,
        bytes: usize,
    },
    /// `src` posted a send to `dst` after `dst` had already exited.
    SendToExitedRank {
        src: usize,
        dst: usize,
        tag: u32,
        order: u64,
    },
    /// Collective `seq` ended the run with unequal participation: `posted`
    /// ranks contributed, `completed` ranks consumed the result (both must
    /// equal the universe size).
    UnbalancedCollective {
        seq: u64,
        posted: usize,
        completed: usize,
        size: usize,
    },
    /// A message used a tag in the reserved internal range.
    ReservedTagTraffic { src: usize, dst: usize, tag: u32 },
    /// `rank` reached a blocking operation inside the scatter window.
    BlockingInWindow { rank: usize, op: BlockingOp },
    /// `rank` allocated inside the scatter window: `allocs` allocations of
    /// `bytes` bytes in all.
    AllocationInWindow {
        rank: usize,
        allocs: u64,
        bytes: u64,
    },
    /// At collective `seq`, `rank` posted `kind` where `first_rank` had
    /// posted `first`.
    CollectiveKindMismatch {
        seq: u64,
        first_rank: usize,
        first: CollectiveKind,
        rank: usize,
        kind: CollectiveKind,
    },
    /// `rank` waits on collective `seq` (`kind`), which `exited` returned
    /// without posting.
    CollectiveNeverPosted {
        seq: u64,
        rank: usize,
        kind: CollectiveKind,
        exited: usize,
    },
}

impl AuditViolation {
    /// The rule this violation breaks, as case lines and docs name it.
    pub fn rule(&self) -> &'static str {
        match self {
            AuditViolation::UnmatchedSend { .. } => "unmatched-send",
            AuditViolation::SendToExitedRank { .. } => "send-to-exited-rank",
            AuditViolation::UnbalancedCollective { .. } => "unbalanced-collective",
            AuditViolation::ReservedTagTraffic { .. } => "reserved-tag-traffic",
            AuditViolation::BlockingInWindow { .. } => "window-blocking",
            AuditViolation::AllocationInWindow { .. } => "window-allocation",
            AuditViolation::CollectiveKindMismatch { .. } => "collective-kind-mismatch",
            AuditViolation::CollectiveNeverPosted { .. } => "collective-never-posted",
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::UnmatchedSend {
                dst,
                src,
                tag,
                bytes,
            } => write!(
                f,
                "unmatched send: rank {src} -> rank {dst}, tag {tag:#x} ({bytes} B) never received"
            ),
            AuditViolation::SendToExitedRank {
                src,
                dst,
                tag,
                order,
            } => write!(
                f,
                "send to exited rank: rank {src} -> rank {dst}, tag {tag:#x} posted at order \
                 {order} after rank {dst} exited"
            ),
            AuditViolation::UnbalancedCollective {
                seq,
                posted,
                completed,
                size,
            } => write!(
                f,
                "unbalanced collective seq {seq}: {posted}/{size} ranks posted, \
                 {completed}/{size} completed"
            ),
            AuditViolation::ReservedTagTraffic { src, dst, tag } => write!(
                f,
                "reserved-tag traffic: rank {src} -> rank {dst} used internal tag {tag:#x}"
            ),
            AuditViolation::BlockingInWindow { rank, op } => write!(
                f,
                "window-blocking: rank {rank} reached {op} inside the scatter window"
            ),
            AuditViolation::AllocationInWindow {
                rank,
                allocs,
                bytes,
            } => write!(
                f,
                "window-allocation: rank {rank} made {allocs} allocation(s), {bytes} B, \
                 inside the scatter window"
            ),
            AuditViolation::CollectiveKindMismatch {
                seq,
                first_rank,
                first,
                rank,
                kind,
            } => write!(
                f,
                "collective-kind-mismatch: at collective seq {seq} rank {first_rank} posted \
                 {first} but rank {rank} posted {kind}"
            ),
            AuditViolation::CollectiveNeverPosted {
                seq,
                rank,
                kind,
                exited,
            } => write!(
                f,
                "collective-never-posted: rank {rank} waits on {kind} seq {seq}, which rank \
                 {exited} returned without posting"
            ),
        }
    }
}

/// The auditor's verdict for one finished universe: violations plus the
/// full event log for per-rank trace rendering.
#[derive(Debug)]
pub struct AuditReport {
    /// Violations, in detection order.
    pub violations: Vec<AuditViolation>,
    /// The globally-ordered event log.
    pub events: Vec<AuditEvent>,
    size: usize,
}

impl AuditReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The event trace of one rank, in global order (for diagnostics).
    pub fn rank_trace(&self, rank: usize) -> Vec<&AuditEvent> {
        self.events.iter().filter(|e| e.rank == rank).collect()
    }
}

/// Cap on rendered events per rank when a report is displayed (the full
/// log stays available via [`AuditReport::rank_trace`]).
const TRACE_RENDER_CAP: usize = 64;

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "audit clean ({} events)", self.events.len());
        }
        writeln!(f, "{} protocol violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        if self.events.is_empty() {
            return Ok(());
        }
        writeln!(f, "per-rank event traces (global order):")?;
        for rank in 0..self.size {
            let trace = self.rank_trace(rank);
            writeln!(f, "  rank {rank} ({} events):", trace.len())?;
            let skip = trace.len().saturating_sub(TRACE_RENDER_CAP);
            if skip > 0 {
                writeln!(f, "    ... {skip} earlier events elided ...")?;
            }
            for e in &trace[skip..] {
                writeln!(f, "    [{:>6}] {}", e.order, e.kind)?;
            }
        }
        Ok(())
    }
}

/// Runs every teardown check over the drained event log and leftover
/// runtime state; the violations found live (`live`) come first.
pub(crate) fn verify(
    size: usize,
    live: Vec<AuditViolation>,
    events: Vec<AuditEvent>,
    leftover_msgs: Vec<LeftoverMessage>,
    leftover_colls: Vec<LeftoverCollective>,
) -> AuditReport {
    let mut violations = live;

    // Exit order per rank (missing exit => never treated as exited; a rank
    // that panicked unwinds past teardown, so this path only sees clean
    // returns).
    let mut exit_order = vec![u64::MAX; size];
    for e in &events {
        if matches!(e.kind, AuditEventKind::RankExited) {
            exit_order[e.rank] = e.order;
        }
    }

    for e in &events {
        if let AuditEventKind::SendPosted { dst, tag, .. } = e.kind {
            if tag >= RESERVED_TAG_BASE {
                violations.push(AuditViolation::ReservedTagTraffic {
                    src: e.rank,
                    dst,
                    tag,
                });
            }
            if e.order > exit_order[dst] {
                violations.push(AuditViolation::SendToExitedRank {
                    src: e.rank,
                    dst,
                    tag,
                    order: e.order,
                });
            }
        }
    }

    for m in leftover_msgs {
        violations.push(AuditViolation::UnmatchedSend {
            dst: m.dst,
            src: m.src,
            tag: m.tag,
            bytes: m.bytes,
        });
    }

    for c in leftover_colls {
        violations.push(AuditViolation::UnbalancedCollective {
            seq: c.seq,
            posted: c.posted,
            completed: c.completed,
            size,
        });
    }

    AuditReport {
        violations,
        events,
        size,
    }
}

/// Whether a universe records and verifies protocol events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// On in debug builds, off in release.
    #[default]
    Default,
    /// Always audit.
    Enabled,
    /// Never audit.
    Disabled,
    /// The live phase rules only — scatter window, collective kinds,
    /// collectives an exited rank never posts — without the event log and
    /// the teardown checks: for fault runs, whose healed transports strand
    /// tombstones and duplicates by design.
    PhaseRules,
}

impl AuditMode {
    /// Resolves the mode against the build profile.
    pub fn is_enabled(self) -> bool {
        match self {
            AuditMode::Enabled | AuditMode::PhaseRules => true,
            AuditMode::Disabled => false,
            AuditMode::Default => cfg!(debug_assertions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(order: u64, rank: usize, kind: AuditEventKind) -> AuditEvent {
        AuditEvent { order, rank, kind }
    }

    #[test]
    fn clean_log_verifies_clean() {
        let events = vec![
            ev(
                0,
                0,
                AuditEventKind::SendPosted {
                    dst: 1,
                    tag: 3,
                    bytes: 8,
                },
            ),
            ev(
                1,
                1,
                AuditEventKind::RecvCompleted {
                    src: 0,
                    tag: 3,
                    bytes: 8,
                },
            ),
            ev(2, 0, AuditEventKind::RankExited),
            ev(3, 1, AuditEventKind::RankExited),
        ];
        let report = verify(2, Vec::new(), events, Vec::new(), Vec::new());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.rank_trace(0).len(), 2);
    }

    #[test]
    fn send_after_exit_detected() {
        let events = vec![
            ev(0, 1, AuditEventKind::RankExited),
            ev(
                1,
                0,
                AuditEventKind::SendPosted {
                    dst: 1,
                    tag: 5,
                    bytes: 16,
                },
            ),
            ev(2, 0, AuditEventKind::RankExited),
        ];
        let report = verify(2, Vec::new(), events, Vec::new(), Vec::new());
        assert!(matches!(
            report.violations.as_slice(),
            [AuditViolation::SendToExitedRank {
                src: 0,
                dst: 1,
                tag: 5,
                ..
            }]
        ));
    }

    #[test]
    fn reserved_tag_in_log_detected() {
        let events = vec![ev(
            0,
            0,
            AuditEventKind::SendPosted {
                dst: 1,
                tag: RESERVED_TAG_BASE + 7,
                bytes: 0,
            },
        )];
        let report = verify(2, Vec::new(), events, Vec::new(), Vec::new());
        assert!(matches!(
            report.violations.as_slice(),
            [AuditViolation::ReservedTagTraffic { src: 0, dst: 1, .. }]
        ));
    }

    #[test]
    fn leftovers_become_violations() {
        let msgs = vec![LeftoverMessage {
            dst: 2,
            src: 0,
            tag: 9,
            bytes: 24,
        }];
        let colls = vec![LeftoverCollective {
            seq: 4,
            posted: 3,
            completed: 1,
        }];
        let report = verify(3, Vec::new(), Vec::new(), msgs, colls);
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            report.violations[0],
            AuditViolation::UnmatchedSend { dst: 2, .. }
        ));
        assert!(matches!(
            report.violations[1],
            AuditViolation::UnbalancedCollective {
                seq: 4,
                posted: 3,
                completed: 1,
                size: 3
            }
        ));
        let rendered = format!("{report}");
        assert!(rendered.contains("unmatched send"), "{rendered}");
        assert!(rendered.contains("unbalanced collective"), "{rendered}");
    }

    #[test]
    fn audit_mode_resolution() {
        assert!(AuditMode::Enabled.is_enabled());
        assert!(!AuditMode::Disabled.is_enabled());
        assert_eq!(AuditMode::Default.is_enabled(), cfg!(debug_assertions));
    }
}
