//! Local-failure local-recovery (LFLR): crash detection, buddy
//! checkpoints, and world repair.
//!
//! PR 4 treated a rank crash as terminal: the first retry budget to run
//! out poisoned the world and every rank unwound with a typed abort. This
//! module replaces that with a ULFM-style local protocol:
//!
//! 1. **Detection** — when a retry budget runs out and LFLR is armed, the
//!    accuser sends a heartbeat probe on the control plane; the accused
//!    answers with `hb_pongs` pongs through its *data plane*. A crashed
//!    data plane tombstones the pongs, so tombstoned pongs are positive,
//!    deterministic evidence of death (silence or live pongs mean "slow" —
//!    the accuser re-grants the retry budget up to `hb_grace` times).
//! 2. **Agreement + revocation** — the accuser *revokes* the world: every
//!    armed rank unwinds from its next blocking point with a [`Revoked`]
//!    payload (after first draining any already-satisfiable operation, so
//!    completed collectives are consumed consistently). The solver catches
//!    it with [`catch_revoked`] and calls [`Comm::lflr_recover`], whose
//!    first rendezvous OR-combines the suspect sets — the agreement round.
//! 3. **Checkpoints** — every `k` solver iterations each rank packs its
//!    solver state, wraps it in the PR 4 FNV-checksummed envelope, and
//!    sends it to its buddy `(rank+1) % p` over the control plane while
//!    blocking (revoke-blind) on its ward's checkpoint. The control plane
//!    plus the "if any rank reaches checkpoint round K, all do" lemma
//!    (the previous iteration's final collective completed, and no
//!    blocking point separates it from the loop head) guarantee the
//!    exchange completes globally, so the set of committed checkpoint
//!    rounds is identical on every rank.
//! 4. **Repair** — [`Comm::lflr_recover`] heals the injector (the dead
//!    rank is "respawned" with working hardware), clears the revocation,
//!    purges half-completed collective slots, drains stale mailbox
//!    traffic, resets the reliable transport and collective sequence
//!    numbers to a fresh epoch, ships the dead rank its buddy-held
//!    checkpoint (checksum-verified on receipt), and barriers on a
//!    consistency check of the restore round. The solver then rolls every
//!    rank back to that round and continues.
//!
//! Determinism: all ranks roll back to the same globally-consistent
//! round and recompute with bitwise-identical arithmetic, so a recovered
//! solve produces the same solution bits as a fault-free run.

use crate::comm::Comm;
use crate::fault::{FaultKind, FaultReport};
use crate::payload::Payload;
use crate::reliable::{envelope_pack, envelope_unpack};
use crate::world::Message;

/// Control tag: buddy checkpoint payload (rank → its buddy).
pub const TAG_CKPT: u32 = crate::CTRL_TAG_BASE | 0x02;
/// Control tag: checkpoint restore (buddy → resurrected rank).
pub const TAG_CKPT_RESTORE: u32 = crate::CTRL_TAG_BASE | 0x03;
/// Control tag: heartbeat probe (accuser → accused).
pub const TAG_HB_PROBE: u32 = crate::CTRL_TAG_BASE | 0x04;
/// Data-plane tag: heartbeat pong (accused → accuser, through the
/// injector's crash state so a dead data plane tombstones it).
pub const TAG_HB_PONG: u32 = crate::CTRL_TAG_BASE | 0x05;

/// Collective sequence numbers at or above this value belong to recovery
/// rendezvous, which survive the slot purge and ignore the normal
/// per-rank collective counter (ranks may have diverged before revoking).
const RECOVERY_SEQ_BASE: u64 = 1 << 63;

/// Restore-round marker meaning "no checkpoint was ever committed":
/// every rank restarts the solve from scratch instead of rolling back.
const NO_CKPT_ROUND: u64 = u64::MAX;

/// Unwind payload of a world revocation. Armed ranks throw it from their
/// blocking comm points once a peer has been declared dead; the solver
/// catches it with [`catch_revoked`] and runs [`Comm::lflr_recover`].
#[derive(Debug, Clone)]
pub struct Revoked {
    /// Ranks declared dead by the accusers so far.
    pub suspects: Vec<usize>,
}

/// Run `f`, converting a [`Revoked`] unwind into `Err` (any other panic
/// keeps unwinding). This is the solver-side boundary of the LFLR
/// protocol: the closure is the solve attempt, the `Err` arm runs
/// [`Comm::lflr_recover`] and retries from the restored checkpoint.
pub fn catch_revoked<R>(f: impl FnOnce() -> R) -> Result<R, Revoked> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<Revoked>() {
            Ok(r) => Err(*r),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// What [`Comm::lflr_recover`] hands back to the solver.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Ranks that were declared dead and resurrected this round.
    pub dead: Vec<usize>,
    /// The globally-consistent checkpoint to roll back to: `(round,
    /// flattened solver state)`. `None` means the crash predated the
    /// first checkpoint — restart the solve from scratch.
    pub checkpoint: Option<(u64, Vec<f64>)>,
}

/// Per-rank LFLR state (lives inside [`Comm`]).
#[derive(Debug, Default)]
pub(crate) struct LflrState {
    /// Detection + recovery only run while a resilient solver has armed
    /// them; unarmed runs keep the exact PR 4 poison-and-abort contract.
    pub(crate) armed: bool,
    /// Retry-budget re-grants consumed on slow-but-alive peers.
    pub(crate) graces_used: u32,
    /// Monotone count of recoveries completed (keys the recovery
    /// rendezvous sequence numbers; never reset so sequence numbers stay
    /// unique across solves).
    pub(crate) recovery_round: u64,
    /// This rank's own last committed checkpoint.
    pub(crate) local_ckpt: Option<(u64, Vec<f64>)>,
    /// The last committed checkpoint of this rank's ward `(rank-1) % p`,
    /// held for the ward's resurrection.
    pub(crate) ward_ckpt: Option<(u64, Vec<f64>)>,
}

impl Comm {
    /// True when this universe runs under an active fault injector (the
    /// precondition for arming LFLR — without an injector there is
    /// nothing to detect or recover from).
    fn fault_active(&self) -> bool {
        self.world.fault.is_some()
    }

    /// Arm crash detection and recovery for the current solve. Returns
    /// `false` (and stays disarmed) without an active fault injector.
    /// Clears checkpoints from any previous solve — a rollback must never
    /// resurrect stale state.
    pub fn lflr_arm(&mut self) -> bool {
        if !self.fault_active() {
            return false;
        }
        // Expected Revoked unwinds should not spray backtraces even when
        // the run was not launched through `run_chaos`.
        crate::world::install_fault_abort_hook();
        self.lflr.armed = true;
        self.lflr.graces_used = 0;
        self.lflr.local_ckpt = None;
        self.lflr.ward_ckpt = None;
        true
    }

    /// Disarm LFLR (solver exit): blocking points go back to the PR 4
    /// poison-only contract.
    pub fn lflr_disarm(&mut self) {
        self.lflr.armed = false;
    }

    /// Whether LFLR detection/recovery is currently armed.
    pub fn lflr_armed(&self) -> bool {
        self.lflr.armed
    }

    /// Unwind with [`Revoked`] if an accuser has revoked the world and
    /// this rank is armed to handle it. Callers check *after* testing
    /// their own operation for satisfiability (drain-before-revoke):
    /// an already-completed collective or delivered message is consumed
    /// first, which is what keeps the set of committed checkpoint rounds
    /// globally consistent.
    pub(crate) fn check_revoked(&self) {
        if self.lflr.armed && self.world.revoked() {
            std::panic::panic_any(Revoked {
                suspects: self.world.revoke_suspects(),
            });
        }
    }

    /// Probe `peer` for liveness after its retry budget ran out. Returns
    /// `true` to re-grant the budget (peer is slow, grace remains),
    /// `false` to fall through to the typed abort (grace exhausted), or
    /// unwinds with [`Revoked`] after declaring the peer dead.
    pub(crate) fn probe_peer_liveness(&mut self, peer: usize) -> bool {
        let policy = self.reliable.policy;
        // Stale pongs from an earlier probe of the same peer would
        // short-circuit the verdict; drain them first (probes from this
        // rank are strictly sequential).
        while self
            .world
            .try_receive(self.rank, peer, TAG_HB_PONG)
            .is_some()
        {}
        let _ = self.isend_internal(peer, TAG_HB_PROBE, Payload::from_u64(vec![]));
        let want = policy.hb_pongs.max(1);
        let (mut live, mut dead) = (0u32, 0u32);
        let mut spins = 0u64;
        while live + dead < want && spins < policy.hb_spin {
            if let Some(msg) = self.world.try_receive(self.rank, peer, TAG_HB_PONG) {
                self.ledger
                    .on_recv_complete(msg.arrival_vt, TAG_HB_PONG, msg.payload.len_bytes());
                if msg.dropped {
                    dead += 1;
                } else {
                    live += 1;
                }
                continue;
            }
            self.world.check_poison(self.rank);
            // A concurrent accuser may already have revoked: join its
            // recovery instead of finishing this probe.
            self.check_revoked();
            self.service_resend_requests();
            spins += 1;
            std::thread::yield_now();
        }
        if dead > 0 {
            // Tombstoned pongs: the peer's data plane is dead. Declare it
            // and revoke the world so every rank enters recovery.
            self.world.revoke(&[peer]);
            std::panic::panic_any(Revoked {
                suspects: vec![peer],
            });
        }
        // Live pongs or silence: slow, not dead.
        if self.lflr.graces_used < policy.hb_grace {
            self.lflr.graces_used += 1;
            true
        } else {
            false
        }
    }

    /// Answer pending heartbeat probes: reply `hb_pongs` pongs through
    /// the data plane. A crashed data plane delivers them as tombstones —
    /// the deterministic death confession the accuser is waiting for.
    /// Called from `service_resend_requests`, i.e. from every blocking
    /// comm point, so a rank parked anywhere still answers.
    pub(crate) fn answer_liveness_probes(&mut self) {
        while let Some(msg) = self.world.try_receive_any(self.rank, TAG_HB_PROBE) {
            let pongs = self.reliable.policy.hb_pongs.max(1);
            let plane_dead = self
                .world
                .fault
                .as_ref()
                .is_some_and(|f| f.data_plane_dead(self.rank));
            for _ in 0..pongs {
                if plane_dead {
                    // The pong dies on the wire, deterministically: no
                    // random draw, so probe traffic never perturbs the
                    // per-link fault streams.
                    let arrival_vt = self.stamp_arrival(TAG_HB_PONG, 0);
                    self.world.deliver(
                        msg.src,
                        Message {
                            src: self.rank,
                            tag: TAG_HB_PONG,
                            payload: Payload::Bytes(Vec::new()),
                            arrival_vt,
                            dropped: true,
                        },
                    );
                } else {
                    let _ = self.isend_internal(msg.src, TAG_HB_PONG, Payload::from_u64(vec![1]));
                }
            }
        }
    }

    /// Take a buddy checkpoint of `data` at checkpoint round `round`:
    /// send it (FNV-checksummed envelope, control plane) to the buddy
    /// `(rank+1) % p`, block — revoke-blind — on the ward's symmetric
    /// checkpoint, then commit both. The blind wait is safe: if any rank
    /// reached this round's loop head, every rank does (see module docs),
    /// and checkpoint traffic rides the control plane, which a crash
    /// never touches. No-op unless LFLR is armed.
    pub fn checkpoint_exchange(&mut self, round: u64, data: &[f64]) {
        if !self.lflr.armed {
            return;
        }
        let guard = hymv_trace::SpanGuard::open(hymv_trace::Phase::Checkpoint, self.vt());
        hymv_trace::counter_add("hymv_ckpt_bytes_total", &[], (data.len() * 8) as u64);
        hymv_trace::counter_add("hymv_ckpt_taken_total", &[], 1);
        let p = self.size();
        if p == 1 {
            self.lflr.local_ckpt = Some((round, data.to_vec()));
            guard.close(self.vt());
            return;
        }
        let buddy = (self.rank + 1) % p;
        let ward = (self.rank + p - 1) % p;
        let h = self.isend_internal(buddy, TAG_CKPT, envelope_pack(round, data));
        self.confirm_send(h);
        let msg = loop {
            if let Some(m) = self.world.try_receive(self.rank, ward, TAG_CKPT) {
                break m;
            }
            self.world.check_poison(self.rank);
            self.service_resend_requests();
            std::thread::yield_now();
        };
        self.ledger
            .on_recv_complete(msg.arrival_vt, TAG_CKPT, msg.payload.len_bytes());
        match envelope_unpack(&msg.payload) {
            Ok((r, ward_data)) if r == round => {
                self.lflr.ward_ckpt = Some((round, ward_data));
                self.lflr.local_ckpt = Some((round, data.to_vec()));
            }
            // The control plane is reliable, so a mismatched or damaged
            // checkpoint is a protocol violation, not recoverable noise.
            _ => self.fault_abort(FaultReport {
                rank: self.rank,
                kind: FaultKind::CheckpointLost { dead: ward },
            }),
        }
        guard.close(self.vt());
    }

    /// The last checkpoint round this rank committed (testing hook).
    pub fn checkpoint_round(&self) -> Option<u64> {
        self.lflr.local_ckpt.as_ref().map(|(r, _)| *r)
    }

    /// Recovery rendezvous: a collective on a sequence number outside the
    /// normal epoch, polled without the revoke check (revocation is what
    /// brought us here).
    fn recovery_rendezvous(
        &mut self,
        seq: u64,
        contribution: Payload,
        combine: impl FnOnce(&mut [Option<Payload>]) -> Payload,
    ) -> Payload {
        let kind = crate::audit::CollectiveKind::Recovery;
        self.world
            .rendezvous_post(self.rank, seq, self.vt(), kind, Some(contribution), combine);
        loop {
            if let Some((max_vt, payload)) = self.world.try_rendezvous_result(self.rank, seq) {
                let size = self.size();
                self.ledger.on_collective(max_vt, size);
                return payload;
            }
            self.world.check_poison(self.rank);
            self.service_resend_requests();
            std::thread::yield_now();
        }
    }

    /// Repair the world after a revocation: agree on the dead set, heal
    /// the injector, resynchronize transport state, resurrect the dead
    /// rank from its buddy checkpoint, and verify the restore round is
    /// globally consistent. Collective — every armed rank calls this from
    /// its [`catch_revoked`] handler. Returns the dead set and the
    /// checkpoint this rank must roll back to.
    pub fn lflr_recover(&mut self) -> Recovery {
        let guard = hymv_trace::SpanGuard::open(hymv_trace::Phase::Recovery, self.vt());
        let round = self.lflr.recovery_round;
        self.lflr.recovery_round += 1;
        let p = self.size();
        let words = p.div_ceil(64);

        // Agreement round: OR-combine every rank's suspect bitmask. All
        // ranks reaching this rendezvous is also the signal that nobody
        // still polls a pre-revocation operation.
        let mut mask = vec![0u64; words];
        for s in self.world.revoke_suspects() {
            mask[s / 64] |= 1 << (s % 64);
        }
        let combined = self
            .recovery_rendezvous(
                RECOVERY_SEQ_BASE | (round * 2),
                Payload::from_u64(mask),
                move |contrib| {
                    let mut acc = vec![0u64; words];
                    for c in contrib.iter() {
                        if let Some(Payload::U64(w)) = c {
                            for (a, b) in acc.iter_mut().zip(w) {
                                *a |= b;
                            }
                        }
                    }
                    Payload::from_u64(acc)
                },
            )
            .into_u64();
        let dead: Vec<usize> = (0..p)
            .filter(|r| combined[r / 64] >> (r % 64) & 1 == 1)
            .collect();

        // Resurrect: heal the injector (the dead rank gets fresh
        // hardware), lift the revocation, and purge the half-completed
        // collective slots of the aborted epoch (their sequence numbers
        // will be reused after the reset below). Clearing and purging are
        // idempotent, and no rank can accuse again before the repaired
        // solve resumes, so every rank doing both here is safe.
        if let Some(f) = &self.world.fault {
            f.revive();
        }
        self.world.clear_revoke();
        self.world.purge_collective_slots_below(RECOVERY_SEQ_BASE);

        // Fresh transport epoch: drop stale in-flight traffic (keeping
        // only restore payloads, which a buddy may post before this rank
        // drains) and restart sequence numbers on every rank.
        self.world.drain_mailbox(self.rank, TAG_CKPT_RESTORE);
        self.reliable.reset();
        self.coll_seq = 0;
        self.in_window = false;
        self.lflr.graces_used = 0;

        // Restore shipping. A dead buddy of a dead rank would leave no
        // checkpoint replica — typed abort, not a wrong answer.
        for &d in &dead {
            let buddy = (d + 1) % p;
            if dead.contains(&buddy) {
                self.fault_abort(FaultReport {
                    rank: self.rank,
                    kind: FaultKind::CheckpointLost { dead: d },
                });
            }
            if self.rank == buddy {
                let env = match &self.lflr.ward_ckpt {
                    Some((r, data)) => envelope_pack(*r, data),
                    None => envelope_pack(NO_CKPT_ROUND, &[]),
                };
                let h = self.isend_internal(d, TAG_CKPT_RESTORE, env);
                self.confirm_send(h);
            }
        }
        let me_dead = dead.contains(&self.rank);
        let restored: Option<(u64, Vec<f64>)> = if me_dead {
            let buddy = (self.rank + 1) % p;
            let msg = loop {
                if let Some(m) = self.world.try_receive(self.rank, buddy, TAG_CKPT_RESTORE) {
                    break m;
                }
                self.world.check_poison(self.rank);
                self.service_resend_requests();
                std::thread::yield_now();
            };
            self.ledger
                .on_recv_complete(msg.arrival_vt, TAG_CKPT_RESTORE, msg.payload.len_bytes());
            hymv_trace::counter_add("hymv_restores_total", &[], 1);
            match envelope_unpack(&msg.payload) {
                Ok((NO_CKPT_ROUND, _)) => None,
                Ok((r, data)) => Some((r, data)),
                Err(_) => self.fault_abort(FaultReport {
                    rank: self.rank,
                    kind: FaultKind::CheckpointLost { dead: self.rank },
                }),
            }
        } else {
            self.lflr.local_ckpt.clone()
        };
        if me_dead {
            // The restored state is now this rank's committed checkpoint.
            self.lflr.local_ckpt = restored.clone();
        }

        // Consistency barrier: every rank must restore the same round.
        let my_round = restored.as_ref().map_or(NO_CKPT_ROUND, |(r, _)| *r);
        let rounds = self
            .recovery_rendezvous(
                RECOVERY_SEQ_BASE | (round * 2 + 1),
                Payload::from_u64(vec![my_round]),
                move |contrib| {
                    let (mut lo, mut hi) = (u64::MAX, u64::MIN);
                    for c in contrib.iter() {
                        if let Some(Payload::U64(w)) = c {
                            lo = lo.min(w[0]);
                            hi = hi.max(w[0]);
                        }
                    }
                    Payload::from_u64(vec![lo, hi])
                },
            )
            .into_u64();
        if rounds[0] != rounds[1] {
            self.fault_abort(FaultReport {
                rank: self.rank,
                kind: FaultKind::CheckpointLost {
                    dead: dead.first().copied().unwrap_or(self.rank),
                },
            });
        }
        hymv_trace::counter_add("hymv_recoveries_total", &[], 1);
        guard.close(self.vt());
        Recovery {
            dead,
            checkpoint: restored,
        }
    }
}
