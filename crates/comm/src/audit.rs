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
//! The auditor is on by default in debug builds and off in release
//! (`RunConfig::audit` chooses either way); see [`AuditMode`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::RESERVED_TAG_BASE;

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

/// The shared event log (one per audited universe).
#[derive(Default)]
pub(crate) struct AuditLog {
    counter: AtomicU64,
    events: Mutex<Vec<AuditEvent>>,
}

impl AuditLog {
    pub(crate) fn record(&self, rank: usize, kind: AuditEventKind) {
        let order = self.counter.fetch_add(1, Ordering::Relaxed);
        self.events.lock().push(AuditEvent { order, rank, kind });
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
/// runtime state.
pub(crate) fn verify(
    size: usize,
    events: Vec<AuditEvent>,
    leftover_msgs: Vec<LeftoverMessage>,
    leftover_colls: Vec<LeftoverCollective>,
) -> AuditReport {
    let mut violations = Vec::new();

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
}

impl AuditMode {
    /// Resolves the mode against the build profile.
    pub fn is_enabled(self) -> bool {
        match self {
            AuditMode::Enabled => true,
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
        let report = verify(2, events, Vec::new(), Vec::new());
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
        let report = verify(2, events, Vec::new(), Vec::new());
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
        let report = verify(2, events, Vec::new(), Vec::new());
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
        let report = verify(3, Vec::new(), msgs, colls);
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
