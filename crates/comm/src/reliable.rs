//! Reliable, self-healing transport over the (possibly faulty) substrate.
//!
//! Every ghost-exchange payload travels inside an **envelope**: a `U64`
//! payload laid out as `[MAGIC, seq, len, checksum, f64-bits...]`. The
//! per-(peer, tag) sequence number restores order under duplication and
//! reordering; the checksum catches in-flight bit flips (structural
//! damage to the header is caught by the magic/length checks). The
//! receiver-driven recovery protocol is:
//!
//! * **accept** — an intact envelope with the expected sequence number;
//! * **suppress** — a sequence number already consumed (duplicate);
//! * **stash** — a future sequence number (reordered past a loss), kept
//!   for the later `recv_enveloped` call that expects it;
//! * **retry** — a tombstone (deterministic image of a drop, observed at
//!   the modeled time the receiver's timeout would fire) or a corrupt
//!   envelope triggers a `TAG_RESEND` control message and charges an
//!   exponentially growing virtual-time backoff; after
//!   `RetryPolicy::max_retries` failed attempts the rank aborts the run
//!   with a typed [`FaultReport`] (poisoning the world so no rank hangs).
//!
//! Control traffic (`TAG_RESEND`) lives in its own reserved band
//! ([`CTRL_TAG_BASE`](crate::CTRL_TAG_BASE)) and uses the reliable fabric
//! — like real resilience protocols, the control plane is assumed (or
//! engineered) to be far more robust than the data plane.
//!
//! Senders keep a bounded window of recently sent envelopes per
//! (peer, tag) for retransmission. The window only needs to cover the
//! messages of one exchange phase (at most a couple per neighbour);
//! successive phases are separated by collectives, so a peer can never be
//! a whole phase behind while the sender keeps overwriting the window.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::comm::Comm;
use crate::fault::{FaultKind, FaultReport, RetryPolicy};
use crate::payload::Payload;

/// Control tag: "resend envelope `seq` on `tag`" (in the control band, so
/// never fault-injected and never clashing with user tags).
pub const TAG_RESEND: u32 = crate::CTRL_TAG_BASE | 0x01;

/// First envelope word; doubles as a cheap structural check.
pub const ENVELOPE_MAGIC: u64 = 0x4859_4D56_454E_5631; // "HYMVENV1"

/// `[magic, seq, len, checksum]`.
const HEADER_WORDS: usize = 4;

/// Index of the checksum word (zeroed while hashing).
const CHECKSUM_WORD: usize = 3;

/// Retransmit-window depth per (peer, tag): comfortably above the two
/// same-tag messages a split ghost range can produce in one phase.
const SENT_WINDOW: usize = 8;

/// Why an envelope failed to decode. Every variant is treated as
/// in-flight corruption by the receiver (counted and retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Wrong payload variant, too short, or bad magic.
    NotAnEnvelope,
    /// Header length disagrees with the payload size.
    LengthMismatch { header: u64, actual: u64 },
    /// Payload bits don't hash to the header checksum.
    ChecksumMismatch { expected: u64, computed: u64 },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::NotAnEnvelope => write!(f, "not an envelope (bad magic or shape)"),
            EnvelopeError::LengthMismatch { header, actual } => {
                write!(f, "length mismatch (header {header}, actual {actual})")
            }
            EnvelopeError::ChecksumMismatch { expected, computed } => write!(
                f,
                "checksum mismatch (expected {expected:#018x}, computed {computed:#018x})"
            ),
        }
    }
}

/// FNV-1a stepped per 64-bit word (not per byte — this sits on the
/// per-SPMV critical path and the bench guard holds it under 5%), with
/// the checksum word treated as zero. Each step `h ← (h ⊕ w)·p` composes
/// two bijections of the 64-bit state, so envelopes differing in exactly
/// one word — any single-bit flip included — always hash differently:
/// detection of the injector's `corrupt` fault is 100%, not
/// probabilistic. Order-dependent, so word swaps perturb it too.
fn envelope_checksum(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &w) in words.iter().enumerate() {
        let w = if i == CHECKSUM_WORD { 0 } else { w };
        h ^= w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Wrap `data` in a checksummed, sequence-numbered envelope.
pub fn envelope_pack(seq: u64, data: &[f64]) -> Payload {
    let mut words = Vec::with_capacity(HEADER_WORDS + data.len());
    words.push(ENVELOPE_MAGIC);
    words.push(seq);
    words.push(data.len() as u64);
    words.push(0);
    words.extend(data.iter().map(|v| v.to_bits()));
    words[CHECKSUM_WORD] = envelope_checksum(&words);
    Payload::from_u64(words)
}

/// Validate and unwrap an envelope into `(seq, data)`.
pub fn envelope_unpack(payload: &Payload) -> Result<(u64, Vec<f64>), EnvelopeError> {
    let Payload::U64(words) = payload else {
        return Err(EnvelopeError::NotAnEnvelope);
    };
    if words.len() < HEADER_WORDS || words[0] != ENVELOPE_MAGIC {
        return Err(EnvelopeError::NotAnEnvelope);
    }
    let (seq, len) = (words[1], words[2]);
    if words.len() as u64 != HEADER_WORDS as u64 + len {
        return Err(EnvelopeError::LengthMismatch {
            header: len,
            actual: words.len() as u64 - HEADER_WORDS as u64,
        });
    }
    let computed = envelope_checksum(words);
    if computed != words[CHECKSUM_WORD] {
        return Err(EnvelopeError::ChecksumMismatch {
            expected: words[CHECKSUM_WORD],
            computed,
        });
    }
    let data = words[HEADER_WORDS..]
        .iter()
        .map(|&w| f64::from_bits(w))
        .collect();
    Ok((seq, data))
}

/// Per-rank state of the reliable transport (lives inside [`Comm`] so
/// every blocking comm point can service retransmission requests).
#[derive(Debug)]
pub(crate) struct ReliableState {
    pub(crate) policy: RetryPolicy,
    /// Next sequence number to assign per (peer, tag).
    send_seq: HashMap<(usize, u32), u64>,
    /// Next sequence number to accept per (peer, tag).
    recv_seq: HashMap<(usize, u32), u64>,
    /// Retransmit window: recently sent envelopes per (peer, tag).
    sent: HashMap<(usize, u32), VecDeque<(u64, Payload)>>,
    /// Intact envelopes that arrived ahead of their turn.
    stash: HashMap<(usize, u32, u64), Vec<f64>>,
    /// Total timeouts seen; at `policy.degrade_after` the rank reports
    /// itself degraded and operators fall back to blocking exchange.
    timeouts_seen: u64,
    pub(crate) degraded: bool,
    /// Consecutive exchanges completed without a new timeout (see
    /// [`Comm::note_exchange_outcome`]); at `policy.rearm_after` a
    /// degraded rank re-arms the overlapped exchange.
    clean_streak: u64,
    /// `timeouts_seen` at the last outcome note, to detect fresh timeouts.
    timeouts_at_note: u64,
}

impl ReliableState {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        ReliableState {
            policy,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            sent: HashMap::new(),
            stash: HashMap::new(),
            timeouts_seen: 0,
            degraded: false,
            clean_streak: 0,
            timeouts_at_note: 0,
        }
    }

    /// Drop all transport state (sequence numbers, retransmit windows,
    /// stashes, degradation counters) — the world-repair step of LFLR
    /// recovery resynchronizes every rank to a fresh transport epoch after
    /// mailboxes are drained, so stale sequence numbers from the aborted
    /// epoch can never be confused with post-repair traffic.
    pub(crate) fn reset(&mut self) {
        let policy = self.policy;
        *self = ReliableState::new(policy);
    }
}

impl Comm {
    /// Send `data` to `peer` inside a sequence-numbered, checksummed
    /// envelope, through the fault injector when one is active. The
    /// envelope is retained in a bounded retransmit window so the peer's
    /// recovery protocol can request it again; completion is confirmed in
    /// the ledger (buffered sends complete at post time).
    pub fn send_enveloped(&mut self, peer: usize, tag: u32, data: &[f64]) -> crate::SendHandle {
        let seq_slot = self.reliable.send_seq.entry((peer, tag)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let env = envelope_pack(seq, data);
        let window = self.reliable.sent.entry((peer, tag)).or_default();
        window.push_back((seq, env.clone()));
        if window.len() > SENT_WINDOW {
            window.pop_front();
        }
        let h = self.isend_unreliable(peer, tag, env);
        self.confirm_send(h);
        h
    }

    /// Receive the next in-sequence envelope from `peer` on `tag`,
    /// running the full recovery protocol (suppress duplicates, stash
    /// reordered arrivals, request retransmission of dropped or corrupted
    /// envelopes with exponential virtual-time backoff). Aborts the run
    /// with a typed [`FaultReport`] once the retry budget is exhausted —
    /// by construction this either returns the exact bits the sender
    /// packed or terminates every rank; it never hangs and never returns
    /// damaged data.
    pub fn recv_enveloped(&mut self, peer: usize, tag: u32) -> Vec<f64> {
        let expected = *self.reliable.recv_seq.entry((peer, tag)).or_insert(0);
        if let Some(data) = self.reliable.stash.remove(&(peer, tag, expected)) {
            self.advance_recv_seq(peer, tag);
            return data;
        }
        let mut attempts: u32 = 0;
        loop {
            let msg = self.blocking_receive(peer, tag);
            if msg.dropped {
                self.ledger.on_timeout();
                self.reliable.timeouts_seen += 1;
                if self.reliable.timeouts_seen >= self.reliable.policy.degrade_after {
                    self.reliable.degraded = true;
                }
                self.retry_or_abort(peer, tag, expected, &mut attempts);
                continue;
            }
            self.ledger
                .on_recv_complete(msg.arrival_vt, tag, msg.payload.len_bytes());
            match envelope_unpack(&msg.payload) {
                Ok((seq, data)) if seq == expected => {
                    self.advance_recv_seq(peer, tag);
                    return data;
                }
                Ok((seq, _)) if seq < expected => {
                    self.ledger.on_dup_suppressed();
                }
                Ok((seq, data)) => {
                    // Reordered past an earlier envelope; hold for later.
                    self.reliable.stash.insert((peer, tag, seq), data);
                }
                // Only the injector corrupts an envelope: on a perfect
                // transport the payload was never one — a raw send on an
                // envelope tag, which no resend can heal.
                Err(_) if self.world.fault.is_none() => self.fault_abort(FaultReport {
                    rank: self.rank(),
                    kind: FaultKind::ProtocolViolation {
                        rule: "envelope-bypass",
                    },
                }),
                Err(_) => {
                    self.ledger.on_corrupt_detected();
                    self.retry_or_abort(peer, tag, expected, &mut attempts);
                }
            }
        }
    }

    fn advance_recv_seq(&mut self, peer: usize, tag: u32) {
        *self
            .reliable
            .recv_seq
            .get_mut(&(peer, tag))
            .expect("entry created by recv_enveloped") += 1;
    }

    /// Charge one exponential-backoff step in virtual time and ask `peer`
    /// to retransmit, or abort with the typed diagnostic once the budget
    /// is spent. When LFLR is armed, a spent budget first runs the
    /// heartbeat probe instead of aborting: a peer proven *dead* (its
    /// data plane tombstones the pongs) revokes the world for local
    /// recovery, a peer proven merely *slow* gets the retry budget
    /// re-granted up to `hb_grace` times before the PR 4 abort fires.
    fn retry_or_abort(&mut self, peer: usize, tag: u32, seq: u64, attempts: &mut u32) {
        *attempts += 1;
        if *attempts > self.reliable.policy.max_retries {
            if self.lflr_armed() && self.probe_peer_liveness(peer) {
                // Slow, not dead: degrade and re-grant the budget (the
                // reset restarts the exponential backoff too).
                self.reliable.degraded = true;
                *attempts = 1;
            } else {
                self.fault_abort(FaultReport {
                    rank: self.rank(),
                    kind: FaultKind::RetryBudgetExhausted {
                        peer,
                        tag,
                        attempts: *attempts,
                    },
                });
            }
        }
        // 2^(attempts-1) × base, capped to keep the arithmetic sane; all
        // in virtual time, so bitwise deterministic across schedules.
        let backoff = self.reliable.policy.backoff_s * (1u64 << (*attempts - 1).min(16)) as f64;
        let span = hymv_trace::SpanGuard::open(hymv_trace::Phase::Retry, self.vt());
        self.ledger.on_retry(backoff);
        span.close(self.vt());
        // Control plane: reliable fabric, tag in the closed control band.
        let _ = self.isend_internal(peer, TAG_RESEND, Payload::from_u64(vec![tag as u64, seq]));
    }

    /// Drain pending `TAG_RESEND` requests and retransmit the named
    /// envelopes from the window (through the injector again — resends
    /// are as lossy as first sends). Called from every blocking comm
    /// point while faults are active, so a rank parked in a collective or
    /// an unrelated receive still heals its neighbours. Requests for
    /// envelopes outside the window are dropped; the requester will ask
    /// again and eventually abort with a typed report rather than hang.
    /// Heartbeat probes are answered here too — the probed rank replies
    /// through its (possibly dead) data plane from the same loop, so any
    /// rank parked at any blocking point can prove its liveness.
    pub(crate) fn service_resend_requests(&mut self) {
        while let Some(msg) = self.world.try_receive_any(self.rank, TAG_RESEND) {
            let req = match &msg.payload {
                Payload::U64(w) if w.len() == 2 => (w[0] as u32, w[1]),
                _ => continue,
            };
            let (tag, seq) = req;
            let env = self
                .reliable
                .sent
                .get(&(msg.src, tag))
                .and_then(|win| win.iter().find(|(s, _)| *s == seq))
                .map(|(_, e)| e.clone());
            if let Some(env) = env {
                let _ = self.isend_unreliable(msg.src, tag, env);
            }
        }
        self.answer_liveness_probes();
    }

    /// Note the completion of one ghost-exchange cycle: a degraded rank
    /// that has stayed timeout-free for `RetryPolicy::rearm_after`
    /// consecutive exchanges re-arms the overlapped schedule (the PR 4
    /// degradation was permanent — a rank whose link healed was stuck on
    /// blocking exchange forever). `rearm_after = 0` keeps the old
    /// stays-degraded behaviour.
    pub fn note_exchange_outcome(&mut self) {
        let r = &mut self.reliable;
        if r.policy.rearm_after == 0 {
            return;
        }
        if r.timeouts_seen != r.timeouts_at_note {
            r.timeouts_at_note = r.timeouts_seen;
            r.clean_streak = 0;
        } else if r.degraded {
            r.clean_streak += 1;
            if r.clean_streak >= r.policy.rearm_after {
                r.degraded = false;
                r.clean_streak = 0;
                // Leave degrade_after headroom again: a single stray
                // timeout after a re-arm should not instantly re-degrade.
                r.timeouts_seen = 0;
                r.timeouts_at_note = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let data = [1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let (seq, out) = envelope_unpack(&envelope_pack(7, &data)).expect("intact");
        assert_eq!(seq, 7);
        assert_eq!(out, data);
    }

    #[test]
    fn empty_envelope_roundtrip() {
        let (seq, out) = envelope_unpack(&envelope_pack(0, &[])).expect("intact");
        assert_eq!(seq, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn non_envelope_rejected() {
        assert_eq!(
            envelope_unpack(&Payload::from_f64(vec![1.0])),
            Err(EnvelopeError::NotAnEnvelope)
        );
        assert_eq!(
            envelope_unpack(&Payload::from_u64(vec![1, 2])),
            Err(EnvelopeError::NotAnEnvelope)
        );
    }

    #[test]
    fn truncation_detected() {
        let env = envelope_pack(3, &[1.0, 2.0, 3.0]);
        let mut words = env.into_u64();
        words.pop();
        assert!(matches!(
            envelope_unpack(&Payload::from_u64(words)),
            Err(EnvelopeError::LengthMismatch { .. })
        ));
    }

    /// The satellite acceptance bar: every single-bit flip, in every word
    /// (header and payload), is detected.
    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let data: Vec<f64> = (0..6).map(|i| (i as f64 + 0.5) * 1.75e-3).collect();
        let words = envelope_pack(42, &data).into_u64();
        for word in 0..words.len() {
            for bit in 0..64 {
                let mut corrupted = words.clone();
                corrupted[word] ^= 1u64 << bit;
                // Header flips fail structurally or by checksum (the seq
                // and length are hashed too); payload and checksum-word
                // flips fail by checksum. Nothing slips through.
                assert!(
                    envelope_unpack(&Payload::from_u64(corrupted)).is_err(),
                    "flip of word {word} bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_catches_word_swap() {
        let env = envelope_pack(1, &[3.0, 4.0]).into_u64();
        let mut swapped = env.clone();
        swapped.swap(HEADER_WORDS, HEADER_WORDS + 1);
        assert!(envelope_unpack(&Payload::from_u64(swapped)).is_err());
    }

    fn rearm_cfg(rearm_after: u64) -> crate::RunConfig {
        crate::RunConfig {
            model: crate::CostModel::default(),
            perturb_seed: None,
            audit: crate::AuditMode::Disabled,
            fault: None,
            retry: crate::RetryPolicy {
                rearm_after,
                ..crate::RetryPolicy::default()
            },
            trace: false,
        }
    }

    /// Satellite: the PR 4 degradation was permanent — a rank whose link
    /// healed was stuck on blocking exchange forever. A degraded rank
    /// must re-arm after `rearm_after` consecutive timeout-free
    /// exchanges, and a fresh timeout must reset the streak.
    #[test]
    fn degraded_rank_rearms_after_clean_streak() {
        let out = crate::Universe::run_configured(rearm_cfg(3), 1, |comm| {
            comm.reliable.degraded = true;
            // Two clean exchanges: not enough.
            comm.note_exchange_outcome();
            comm.note_exchange_outcome();
            let still_degraded = comm.degraded();
            // A fresh timeout resets the streak…
            comm.reliable.timeouts_seen += 1;
            comm.note_exchange_outcome();
            comm.note_exchange_outcome();
            comm.note_exchange_outcome();
            let after_reset = comm.degraded();
            // …so re-arming needs three clean exchanges from there.
            comm.note_exchange_outcome();
            let rearmed = !comm.degraded();
            (still_degraded, after_reset, rearmed)
        })
        .0;
        let (still_degraded, after_reset, rearmed) = out[0];
        assert!(still_degraded, "re-armed before the streak completed");
        assert!(after_reset, "a fresh timeout must reset the clean streak");
        assert!(rearmed, "three clean exchanges after the timeout re-arm");
    }

    /// `rearm_after = 0` keeps the old stays-degraded behaviour.
    #[test]
    fn rearm_disabled_keeps_degradation_permanent() {
        let out = crate::Universe::run_configured(rearm_cfg(0), 1, |comm| {
            comm.reliable.degraded = true;
            for _ in 0..100 {
                comm.note_exchange_outcome();
            }
            comm.degraded()
        })
        .0;
        assert!(out[0], "rearm_after = 0 must never re-arm");
    }
}
