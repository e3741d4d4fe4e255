//! Deterministic, seeded fault injection for the message substrate.
//!
//! A [`FaultPlan`] describes *which* transport faults to inject (drop,
//! duplication, out-of-order delivery beyond the perturbation jitter,
//! bounded delay/stragglers, bit-flip payload corruption, one-shot rank
//! crash) and with what seeded probabilities. The plan is **off by
//! default** and only applies to traffic sent through the reliable
//! envelope layer (`Comm::send_enveloped`, which carries all
//! ghost-exchange traffic) — collectives and setup
//! exchanges model a reliable fabric, exactly like MPI's own collectives.
//!
//! ## Determinism
//!
//! Every fault decision is drawn from a SplitMix64 stream keyed by
//! `(plan.seed, src, dst)` and consumed in the sender's program order, so
//! the decision sequence on each link is a pure function of the plan —
//! independent of thread scheduling. Dropped messages are not vanished:
//! they are delivered as **tombstones** (`Message::dropped`), modelling
//! the instant the receiver's timeout would fire. This is what makes
//! virtual-time timeouts deterministic: the loss *event* is observed at a
//! modeled arrival time instead of depending on a wall-clock race.
//!
//! Unrecoverable faults terminate the whole universe through a typed
//! [`FaultReport`]: the detecting rank poisons the shared world and every
//! blocking wait re-checks the poison flag, so no rank can hang. Use
//! [`Universe::run_chaos`](crate::Universe::run_chaos) to harvest the
//! per-rank `Result<T, FaultReport>`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::world::{mix64, next_rand};

/// One-shot rank crash: after `rank` has posted `after_sends` fault-scoped
/// sends, every later fault-scoped send from it is permanently tombstoned
/// (the rank keeps computing and servicing control traffic — it is the
/// *data plane* that dies, as with a failed NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank whose outbound data plane fails.
    pub rank: usize,
    /// Number of fault-scoped sends it completes before failing.
    pub after_sends: u64,
}

/// A seeded description of transport faults to inject. All probabilities
/// are per-message and default to zero (no faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-link decision streams.
    pub seed: u64,
    /// Probability a message is dropped (delivered as a tombstone).
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability one payload bit is flipped in flight.
    pub corrupt: f64,
    /// Probability a message is inserted at a random mailbox position,
    /// ignoring even the per-(src, tag) FIFO the perturbation jitter
    /// preserves.
    pub reorder: f64,
    /// Probability a message's modeled transit is stretched by
    /// [`FaultPlan::delay_factor`] (straggler link).
    pub delay: f64,
    /// Transit multiplier for delayed messages (≥ 1).
    pub delay_factor: f64,
    /// Optional one-shot rank crash.
    pub crash: Option<CrashSpec>,
}

impl FaultPlan {
    /// A plan with every fault disabled (seed only).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_factor: 8.0,
            crash: None,
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the bit-flip corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Sets the mailbox-reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the straggler probability and its transit multiplier.
    pub fn with_delay(mut self, p: f64, factor: f64) -> Self {
        self.delay = p;
        self.delay_factor = factor;
        self
    }

    /// Sets the one-shot rank crash.
    pub fn with_crash(mut self, rank: usize, after_sends: u64) -> Self {
        self.crash = Some(CrashSpec { rank, after_sends });
        self
    }

    /// True when at least one fault can fire.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.reorder > 0.0
            || self.delay > 0.0
            || self.crash.is_some()
    }
}

/// Retry/backoff policy of the reliable envelope layer, including the
/// heartbeat knobs of the LFLR (local-failure local-recovery) detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmission attempts per message before the typed abort.
    pub max_retries: u32,
    /// Base of the exponential virtual-time backoff (seconds); attempt
    /// `k` charges `backoff_s * 2^(k-1)`.
    pub backoff_s: f64,
    /// Total timeouts observed before the exchange degrades from
    /// overlapped to blocking (see `Comm::degraded`).
    pub degrade_after: u64,
    /// Consecutive clean exchanges after which a degraded rank re-arms the
    /// overlapped exchange (0 = degradation stays permanent).
    pub rearm_after: u64,
    /// Times a rank that answered its heartbeat probe (slow, not dead) is
    /// granted a fresh retry budget before the typed abort fires anyway.
    pub hb_grace: u32,
    /// Liveness pongs a probed rank returns through its data plane; the
    /// accuser declares it dead only on tombstoned pongs (positive
    /// evidence of a crashed data plane), never on silence.
    pub hb_pongs: u32,
    /// Polling-iteration budget the accuser waits for pongs before
    /// treating the peer as slow (silence is never a death verdict).
    pub hb_spin: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff_s: 2.0e-5,
            degrade_after: 16,
            rearm_after: 32,
            hb_grace: 2,
            hb_pongs: 3,
            hb_spin: 20_000,
        }
    }
}

/// Why a chaos run terminated a rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A message from `peer` stayed lost after `attempts` retransmission
    /// requests (rank crash, or drop rate beyond the retry budget).
    RetryBudgetExhausted {
        peer: usize,
        tag: u32,
        attempts: u32,
    },
    /// Another rank aborted first; this rank was unwound from a blocking
    /// wait by the poison flag.
    PeerAborted { origin: usize },
    /// LFLR recovery found no usable checkpoint for a dead rank (its
    /// buddy died too, the buddy copy failed its checksum, or the restore
    /// rounds disagreed across ranks).
    CheckpointLost { dead: usize },
    /// A world revocation escaped every recovery handler (the solver was
    /// not LFLR-armed, or recovery itself failed); `suspects` are the
    /// ranks declared dead by the accusers.
    Revoked { suspects: Vec<usize> },
}

/// The typed diagnostic every unrecoverable fault terminates with —
/// never a hang, never a silently wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The rank reporting.
    pub rank: usize,
    /// What it observed.
    pub kind: FaultKind,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FaultKind::RetryBudgetExhausted {
                peer,
                tag,
                attempts,
            } => write!(
                f,
                "rank {}: retry budget exhausted waiting on rank {peer} tag {tag:#x} \
                 ({attempts} attempts)",
                self.rank
            ),
            FaultKind::PeerAborted { origin } => {
                write!(
                    f,
                    "rank {}: aborted after rank {origin} reported a fault",
                    self.rank
                )
            }
            FaultKind::CheckpointLost { dead } => write!(
                f,
                "rank {}: no usable buddy checkpoint to recover dead rank {dead}",
                self.rank
            ),
            FaultKind::Revoked { suspects } => write!(
                f,
                "rank {}: world revoked (suspects {suspects:?}) with no recovery handler",
                self.rank
            ),
        }
    }
}

/// Panic payload of a fault abort; `Universe::run_chaos` downcasts it back
/// into the typed [`FaultReport`].
#[derive(Debug)]
pub(crate) struct FaultAbort(pub(crate) FaultReport);

/// How the injector delivers one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeliverAs {
    /// Untouched.
    Data,
    /// As a tombstone (the deterministic image of a drop).
    Tombstone,
    /// With one payload bit flipped.
    Corrupt { bit: u64 },
}

/// The injector's verdict for one send.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultDecision {
    pub deliver: DeliverAs,
    /// Deliver a second identical copy right after the first.
    pub duplicate: bool,
    /// Transit-time multiplier (1.0 = no delay).
    pub delay_mult: f64,
    /// When set, insert at `value % (queue_len + 1)` instead of FIFO.
    pub reorder_pos: Option<u64>,
}

impl FaultDecision {
    fn tombstone() -> Self {
        FaultDecision {
            deliver: DeliverAs::Tombstone,
            duplicate: false,
            delay_mult: 1.0,
            reorder_pos: None,
        }
    }
}

/// Per-world injector state: one decision stream per (src, dst) link plus
/// the crash send counter.
pub(crate) struct FaultState {
    plan: FaultPlan,
    links: Mutex<std::collections::HashMap<(usize, usize), u64>>,
    /// Fault-scoped sends posted by the crash rank (program order on that
    /// rank's thread, hence deterministic).
    crash_sends: AtomicU64,
    /// Set by LFLR recovery once the crashed rank has been resurrected
    /// from its buddy checkpoint: the respawned rank has a working data
    /// plane, so the (one-shot) crash stops tombstoning. Random faults
    /// keep firing — only the crash is healed.
    revived: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            links: Mutex::new(std::collections::HashMap::new()),
            crash_sends: AtomicU64::new(0),
            revived: AtomicBool::new(false),
        }
    }

    /// Heal the one-shot crash (idempotent): models the dead rank being
    /// respawned with fresh hardware.
    pub(crate) fn revive(&self) {
        self.revived.store(true, Ordering::Release);
    }

    /// Fault-scoped sends the crash rank has posted so far; `None`
    /// without a crash spec. Calibration hook for crash-window tests:
    /// run once with an unreachable `after_sends`, read the counter at
    /// phase boundaries, and place real crash triggers between them.
    pub(crate) fn crash_sends_posted(&self) -> Option<u64> {
        self.plan
            .crash
            .map(|_| self.crash_sends.load(Ordering::Relaxed))
    }

    /// True when `src`'s outbound data plane is currently dead: the crash
    /// has reached its trigger and no recovery has revived the rank. The
    /// heartbeat protocol consults this for pong delivery so a death
    /// verdict is a deterministic function of the crash state, never of
    /// the random drop stream.
    pub(crate) fn data_plane_dead(&self, src: usize) -> bool {
        if self.revived.load(Ordering::Acquire) {
            return false;
        }
        match self.plan.crash {
            Some(c) => src == c.rank && self.crash_sends.load(Ordering::Relaxed) > c.after_sends,
            None => false,
        }
    }

    /// Decides the fate of the next message on link `src -> dst`. Draws a
    /// fixed number of variates per call so the per-link stream stays
    /// aligned regardless of which faults are enabled.
    pub(crate) fn decide(&self, src: usize, dst: usize) -> FaultDecision {
        if let Some(c) = self.plan.crash {
            if src == c.rank && !self.revived.load(Ordering::Acquire) {
                let n = self.crash_sends.fetch_add(1, Ordering::Relaxed);
                if n >= c.after_sends {
                    return FaultDecision::tombstone();
                }
            }
        }
        let mut links = self.links.lock();
        let state = links.entry((src, dst)).or_insert_with(|| {
            mix64(self.plan.seed ^ mix64(((src as u64) << 20) | dst as u64 | 1 << 63))
        });
        let mut unit = || (next_rand(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let (drop_u, dup_u, corrupt_u, reorder_u, delay_u) =
            (unit(), unit(), unit(), unit(), unit());
        let (bit, pos) = (next_rand(state), next_rand(state));
        let p = &self.plan;
        let deliver = if drop_u < p.drop {
            DeliverAs::Tombstone
        } else if corrupt_u < p.corrupt {
            DeliverAs::Corrupt { bit }
        } else {
            DeliverAs::Data
        };
        FaultDecision {
            deliver,
            duplicate: dup_u < p.duplicate && deliver != DeliverAs::Tombstone,
            delay_mult: if delay_u < p.delay {
                p.delay_factor
            } else {
                1.0
            },
            reorder_pos: (reorder_u < p.reorder).then_some(pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        let plan = FaultPlan::new(7);
        assert!(!plan.is_active());
        assert!(plan.with_drop(0.1).is_active());
        assert!(plan.with_crash(0, 3).is_active());
    }

    #[test]
    fn decisions_are_deterministic_per_link() {
        let mk = || FaultState::new(FaultPlan::new(42).with_drop(0.3).with_duplicate(0.3));
        let (a, b) = (mk(), mk());
        for _ in 0..64 {
            let (da, db) = (a.decide(0, 1), b.decide(0, 1));
            assert_eq!(da.deliver, db.deliver);
            assert_eq!(da.duplicate, db.duplicate);
        }
    }

    #[test]
    fn links_have_independent_streams() {
        let fs = FaultState::new(FaultPlan::new(1).with_drop(0.5));
        let seq = |src: usize, dst: usize| -> Vec<bool> {
            (0..64)
                .map(|_| fs.decide(src, dst).deliver == DeliverAs::Tombstone)
                .collect()
        };
        assert_ne!(seq(0, 1), seq(1, 0), "links share a stream");
    }

    #[test]
    fn drop_rate_roughly_respected() {
        let fs = FaultState::new(FaultPlan::new(3).with_drop(0.25));
        let n = 4000;
        let dropped = (0..n)
            .filter(|_| fs.decide(0, 1).deliver == DeliverAs::Tombstone)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn crash_tombstones_everything_after_trigger() {
        let fs = FaultState::new(FaultPlan::new(1).with_crash(2, 3));
        for _ in 0..3 {
            assert_eq!(fs.decide(2, 0).deliver, DeliverAs::Data);
        }
        for _ in 0..8 {
            assert_eq!(fs.decide(2, 1).deliver, DeliverAs::Tombstone);
        }
        // Other ranks are unaffected.
        assert_eq!(fs.decide(0, 2).deliver, DeliverAs::Data);
    }

    #[test]
    fn fault_report_displays() {
        let r = FaultReport {
            rank: 1,
            kind: FaultKind::RetryBudgetExhausted {
                peer: 0,
                tag: 0x0C01,
                attempts: 9,
            },
        };
        let s = format!("{r}");
        assert!(s.contains("retry budget exhausted"), "{s}");
        let r = FaultReport {
            rank: 2,
            kind: FaultKind::PeerAborted { origin: 1 },
        };
        assert!(format!("{r}").contains("rank 1"), "{r}");
    }
}
