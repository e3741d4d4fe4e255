//! The shared "world": mailboxes, collective rendezvous state, and the
//! [`Universe`] entry point that spawns one thread per rank.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::audit::{self, AuditEventKind, AuditLog, AuditMode, AuditReport};
use crate::comm::Comm;
use crate::fault::{FaultAbort, FaultKind, FaultPlan, FaultReport, FaultState, RetryPolicy};
use crate::ledger::CostModel;
use crate::lflr::Revoked;
use crate::payload::Payload;

/// SplitMix64 step shared by the perturbation machinery (mailbox shuffle,
/// send-latency jitter).
#[inline]
pub(crate) fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One finalization mix (decorrelates seed-derived streams).
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut state = x ^ 0x6A09_E667_F3BC_C909;
    next_rand(&mut state)
}

/// One in-flight message.
pub(crate) struct Message {
    pub src: usize,
    pub tag: u32,
    pub payload: Payload,
    /// Modeled (virtual-time) arrival timestamp, stamped at send.
    pub arrival_vt: f64,
    /// Tombstone: the fault injector dropped this message, and what the
    /// receiver observes at `arrival_vt` is its timeout firing instead of
    /// data. Only the reliable envelope layer may consume tombstones; raw
    /// receives panic on them (they have no recovery protocol).
    pub dropped: bool,
}

/// A rank's mailbox: FIFO per (src, tag), implemented as one queue searched
/// in order (message volumes per rank are small; ghost exchanges post a few
/// dozen messages at most).
///
/// Under schedule perturbation (`shuffle_state` set) an arriving message is
/// inserted at a *random* queue position instead of the back — constrained
/// to stay behind earlier messages of the same `(src, tag)`, so matched
/// receives still observe MPI's non-overtaking order while wildcard
/// receives ([`World::receive_any`]) see a randomized arrival order.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: VecDeque<Message>,
    shuffle_state: Option<u64>,
}

pub(crate) struct MailSlot {
    pub mailbox: Mutex<Mailbox>,
    pub cond: Condvar,
}

/// Rendezvous state for one collective operation instance.
pub(crate) struct CollSlot {
    arrived: usize,
    max_vt: f64,
    /// Per-rank contributions (used by reductions/gathers).
    contrib: Vec<Option<Payload>>,
    /// The one result every rank receives, computed by the last arriver.
    result: Option<Payload>,
    departed: usize,
}

impl CollSlot {
    fn new(size: usize) -> Self {
        CollSlot {
            arrived: 0,
            max_vt: 0.0,
            contrib: vec![None; size],
            result: None,
            departed: 0,
        }
    }
}

pub(crate) struct CollState {
    pub slots: Mutex<HashMap<u64, CollSlot>>,
    pub cond: Condvar,
}

/// Shared state for one run: `size` mailboxes plus collective slots, and
/// the optional correctness-tooling state (audit log, perturbation seed).
pub(crate) struct World {
    pub size: usize,
    pub model: CostModel,
    pub mail: Vec<MailSlot>,
    pub coll: CollState,
    /// Event log when the protocol auditor is enabled.
    pub audit: Option<AuditLog>,
    /// Schedule-perturbation seed (None = deterministic FIFO delivery).
    pub perturb_seed: Option<u64>,
    /// Fault injector (None = perfect transport, the default).
    pub fault: Option<FaultState>,
    /// Retry/backoff policy the reliable envelope layer runs under.
    pub retry: RetryPolicy,
    /// Whether rank threads record into the open trace session.
    pub trace: bool,
    /// Flight-recorder run id: keys this run's per-rank postmortem
    /// rings so concurrent universes (parallel tests) never mix dumps.
    pub flight_run: u64,
    /// First fault report of the run; set once, then every blocking wait
    /// unwinds with a typed abort instead of hanging on a dead peer.
    poison: Mutex<Option<FaultReport>>,
    poisoned: AtomicBool,
    /// Ranks declared dead by LFLR accusers. Unlike poison, a revocation
    /// is *recoverable*: armed ranks unwind to their solver's recovery
    /// handler, repair the world, and clear it.
    revoke_suspects: Mutex<Vec<usize>>,
    revoked: AtomicBool,
}

impl World {
    fn new(
        size: usize,
        model: CostModel,
        audit: bool,
        perturb_seed: Option<u64>,
        fault: Option<FaultPlan>,
        retry: RetryPolicy,
        trace: bool,
    ) -> Arc<Self> {
        let mail = (0..size)
            .map(|dst| {
                let shuffle_state = perturb_seed.map(|s| mix64(s ^ mix64(dst as u64)));
                MailSlot {
                    mailbox: Mutex::new(Mailbox {
                        queue: VecDeque::new(),
                        shuffle_state,
                    }),
                    cond: Condvar::new(),
                }
            })
            .collect();
        Arc::new(World {
            size,
            model,
            mail,
            coll: CollState {
                slots: Mutex::new(HashMap::new()),
                cond: Condvar::new(),
            },
            audit: audit.then(AuditLog::default),
            perturb_seed,
            fault: fault.filter(FaultPlan::is_active).map(FaultState::new),
            retry,
            trace,
            flight_run: hymv_trace::flight::next_run_id(),
            poison: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            revoke_suspects: Mutex::new(Vec::new()),
            revoked: AtomicBool::new(false),
        })
    }

    /// Declare `suspects` dead and revoke the world: every armed rank
    /// unwinds from its next blocking point with a [`Revoked`] payload
    /// (after draining already-satisfiable operations). Concurrent
    /// accusations merge their suspect sets.
    pub(crate) fn revoke(&self, suspects: &[usize]) {
        {
            let mut set = self.revoke_suspects.lock();
            for &s in suspects {
                if !set.contains(&s) {
                    set.push(s);
                }
            }
        }
        self.revoked.store(true, Ordering::Release);
        for slot in &self.mail {
            slot.cond.notify_all();
        }
        self.coll.cond.notify_all();
    }

    pub(crate) fn revoked(&self) -> bool {
        self.revoked.load(Ordering::Acquire)
    }

    pub(crate) fn revoke_suspects(&self) -> Vec<usize> {
        self.revoke_suspects.lock().clone()
    }

    /// Lift the revocation (idempotent). Called during recovery, strictly
    /// after the agreement rendezvous — by then every rank has stopped
    /// accusing, so no new revocation can race the clear.
    pub(crate) fn clear_revoke(&self) {
        self.revoke_suspects.lock().clear();
        self.revoked.store(false, Ordering::Release);
    }

    /// Drop every message pending for rank `me` except those with
    /// `keep_tag` (restore payloads a buddy may post before this rank
    /// reaches its drain step). Part of the world-repair transport reset:
    /// pre-revocation traffic must not leak into the fresh epoch.
    pub(crate) fn drain_mailbox(&self, me: usize, keep_tag: u32) {
        self.mail[me]
            .mailbox
            .lock()
            .queue
            .retain(|m| m.tag == keep_tag);
    }

    /// Remove half-completed collective slots with `seq < bound` (the
    /// aborted epoch; recovery rendezvous live at or above `bound`).
    /// Their sequence numbers are reused after the epoch reset, and a
    /// stale partial slot would corrupt the reused collective.
    pub(crate) fn purge_collective_slots_below(&self, bound: u64) {
        self.coll.slots.lock().retain(|&seq, _| seq >= bound);
    }

    /// Record the first fault report and wake every blocked rank so each
    /// unwinds with a typed [`FaultAbort`] instead of waiting forever.
    pub(crate) fn poison(&self, report: FaultReport) {
        {
            let mut slot = self.poison.lock();
            if slot.is_none() {
                *slot = Some(report);
            }
        }
        self.poisoned.store(true, Ordering::Release);
        for slot in &self.mail {
            slot.cond.notify_all();
        }
        self.coll.cond.notify_all();
    }

    pub(crate) fn poison_report(&self) -> Option<FaultReport> {
        if self.poisoned.load(Ordering::Acquire) {
            self.poison.lock().clone()
        } else {
            None
        }
    }

    /// Unwind rank `me` if another rank has already aborted the run.
    pub(crate) fn check_poison(&self, me: usize) {
        if let Some(origin) = self.poison_report() {
            std::panic::panic_any(FaultAbort(FaultReport {
                rank: me,
                kind: FaultKind::PeerAborted {
                    origin: origin.rank,
                },
            }));
        }
    }

    fn record(&self, rank: usize, kind: AuditEventKind) {
        if let Some(log) = &self.audit {
            log.record(rank, kind);
        }
    }

    /// Deposit a message into `dst`'s mailbox (buffered send).
    pub(crate) fn deliver(&self, dst: usize, msg: Message) {
        self.deliver_at(dst, msg, None);
    }

    /// [`Self::deliver`]; with `fault_pos`, fault-injected delivery at a
    /// queue position derived from it — unlike the perturbation shuffle
    /// this deliberately ignores the per-(src, tag) FIFO; the envelope
    /// sequence numbers restore order.
    pub(crate) fn deliver_at(&self, dst: usize, msg: Message, fault_pos: Option<u64>) {
        self.record(
            msg.src,
            AuditEventKind::SendPosted {
                dst,
                tag: msg.tag,
                bytes: msg.payload.len_bytes(),
            },
        );
        let slot = &self.mail[dst];
        let mut mb = slot.mailbox.lock();
        let len = mb.queue.len();
        let pos = if let Some(rand) = fault_pos {
            (rand as usize) % (len + 1)
        } else if let Some(state) = mb.shuffle_state.as_mut() {
            // Random position, but never ahead of an earlier same-(src,tag)
            // message: per-pair FIFO is part of the contract programs may
            // rely on (MPI non-overtaking), so only inter-pair order is
            // perturbed.
            let r = next_rand(state) as usize;
            let lo = mb
                .queue
                .iter()
                .rposition(|m| m.src == msg.src && m.tag == msg.tag)
                .map_or(0, |i| i + 1);
            lo + r % (len - lo + 1)
        } else {
            len
        };
        mb.queue.insert(pos, msg);
        drop(mb);
        slot.cond.notify_all();
    }

    /// Blocking matched receive for rank `me` from `src` with `tag`.
    pub(crate) fn receive(&self, me: usize, src: usize, tag: u32) -> Message {
        let slot = &self.mail[me];
        let mut mb = slot.mailbox.lock();
        let msg = loop {
            if let Some(pos) = mb.queue.iter().position(|m| m.src == src && m.tag == tag) {
                break mb.queue.remove(pos).expect("position just found");
            }
            self.check_poison(me);
            slot.cond.wait(&mut mb);
        };
        drop(mb);
        self.record(
            me,
            AuditEventKind::RecvCompleted {
                src,
                tag,
                bytes: msg.payload.len_bytes(),
            },
        );
        msg
    }

    /// Blocking wildcard receive for rank `me`: the first queued message
    /// with `tag` from *any* source. Order-sensitive by design — under
    /// schedule perturbation the arrival order is randomized, which is how
    /// the race detector exposes code that depends on it.
    pub(crate) fn receive_any(&self, me: usize, tag: u32) -> Message {
        let slot = &self.mail[me];
        let mut mb = slot.mailbox.lock();
        let msg = loop {
            if let Some(pos) = mb.queue.iter().position(|m| m.tag == tag) {
                break mb.queue.remove(pos).expect("position just found");
            }
            self.check_poison(me);
            slot.cond.wait(&mut mb);
        };
        drop(mb);
        self.record(
            me,
            AuditEventKind::RecvCompleted {
                src: msg.src,
                tag,
                bytes: msg.payload.len_bytes(),
            },
        );
        msg
    }

    /// Non-blocking probe: take a matching message if present.
    pub(crate) fn try_receive(&self, me: usize, src: usize, tag: u32) -> Option<Message> {
        let slot = &self.mail[me];
        let mut mb = slot.mailbox.lock();
        let msg = mb
            .queue
            .iter()
            .position(|m| m.src == src && m.tag == tag)
            .map(|pos| mb.queue.remove(pos).expect("position just found"));
        drop(mb);
        if let Some(m) = &msg {
            self.record(
                me,
                AuditEventKind::RecvCompleted {
                    src,
                    tag,
                    bytes: m.payload.len_bytes(),
                },
            );
        }
        msg
    }

    /// Non-blocking wildcard probe: take the first queued message with
    /// `tag` from any source, if present (used to service reliable-layer
    /// control traffic from inside other blocking waits).
    pub(crate) fn try_receive_any(&self, me: usize, tag: u32) -> Option<Message> {
        let slot = &self.mail[me];
        let mut mb = slot.mailbox.lock();
        let msg = mb
            .queue
            .iter()
            .position(|m| m.tag == tag)
            .map(|pos| mb.queue.remove(pos).expect("position just found"));
        drop(mb);
        if let Some(m) = &msg {
            self.record(
                me,
                AuditEventKind::RecvCompleted {
                    src: m.src,
                    tag,
                    bytes: m.payload.len_bytes(),
                },
            );
        }
        msg
    }

    /// Number of messages pending in rank `me`'s mailbox.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending(&self, me: usize) -> usize {
        self.mail[me].mailbox.lock().queue.len()
    }

    /// Non-blocking posting half of a collective rendezvous.
    ///
    /// Every rank calls this with the same `seq` (a per-rank monotonically
    /// increasing collective counter — SPMD code issues collectives in the
    /// same order on all ranks). Each rank deposits its virtual time and an
    /// optional contribution; the last depositor runs `combine` over all
    /// contributions to produce the result every rank receives. No waiting;
    /// pair with [`Self::rendezvous_await`] or [`Self::try_rendezvous_result`].
    pub(crate) fn rendezvous_post(
        &self,
        me: usize,
        seq: u64,
        vt: f64,
        contribution: Option<Payload>,
        combine: impl FnOnce(&mut [Option<Payload>]) -> Payload,
    ) {
        self.record(me, AuditEventKind::CollectivePosted { seq });
        let mut slots = self.coll.slots.lock();
        let slot = slots.entry(seq).or_insert_with(|| CollSlot::new(self.size));
        slot.arrived += 1;
        slot.max_vt = slot.max_vt.max(vt);
        slot.contrib[me] = contribution;
        if slot.arrived == self.size {
            slot.result = Some(combine(&mut slot.contrib));
            self.coll.cond.notify_all();
        }
    }

    /// Blocking half: wait for the result of a posted rendezvous.
    pub(crate) fn rendezvous_await(&self, me: usize, seq: u64) -> (f64, Payload) {
        let mut slots = self.coll.slots.lock();
        while slots.get(&seq).is_some_and(|s| s.result.is_none()) {
            self.check_poison(me);
            self.coll.cond.wait(&mut slots);
        }
        let out = Self::take_rendezvous_result(&mut slots, self.size, seq);
        drop(slots);
        self.record(me, AuditEventKind::CollectiveCompleted { seq });
        out
    }

    /// Non-blocking half: the result of a posted rendezvous if every rank
    /// has arrived, `None` otherwise (lets a rank service reliable-layer
    /// control traffic while "inside" a collective).
    pub(crate) fn try_rendezvous_result(&self, me: usize, seq: u64) -> Option<(f64, Payload)> {
        let mut slots = self.coll.slots.lock();
        if slots.get(&seq).is_some_and(|s| s.result.is_none()) {
            return None;
        }
        let out = Self::take_rendezvous_result(&mut slots, self.size, seq);
        drop(slots);
        self.record(me, AuditEventKind::CollectiveCompleted { seq });
        Some(out)
    }

    /// Departure bookkeeping shared by the blocking and polling awaits;
    /// call only once the result is known to be set. Every rank but the
    /// last departer copies the result; the last one takes it.
    fn take_rendezvous_result(
        slots: &mut HashMap<u64, CollSlot>,
        size: usize,
        seq: u64,
    ) -> (f64, Payload) {
        let slot = slots
            .get_mut(&seq)
            .expect("slot exists until last departer");
        slot.departed += 1;
        if slot.departed == size {
            let slot = slots.remove(&seq).expect("just looked up");
            return (slot.max_vt, slot.result.expect("result set before wake"));
        }
        let result = slot.result.clone().expect("result set before wake");
        (slot.max_vt, result)
    }

    /// Teardown inspection (all ranks joined): drain the event log, sweep
    /// leftover mailbox messages and open collective slots, and run every
    /// auditor check. `None` when auditing is disabled.
    fn audit_report(&self) -> Option<AuditReport> {
        let log = self.audit.as_ref()?;
        let events = log.take_events();
        let mut leftover_msgs = Vec::new();
        for (dst, slot) in self.mail.iter().enumerate() {
            for m in &slot.mailbox.lock().queue {
                leftover_msgs.push(audit::LeftoverMessage {
                    dst,
                    src: m.src,
                    tag: m.tag,
                    bytes: m.payload.len_bytes(),
                });
            }
        }
        let leftover_colls: Vec<_> = self
            .coll
            .slots
            .lock()
            .iter()
            .map(|(&seq, s)| audit::LeftoverCollective {
                seq,
                posted: s.arrived,
                completed: s.departed,
            })
            .collect();
        Some(audit::verify(
            self.size,
            events,
            leftover_msgs,
            leftover_colls,
        ))
    }
}

/// Full configuration of one universe run: cost model plus the
/// correctness-tooling knobs (protocol audit, schedule perturbation,
/// fault injection).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// α-β communication cost model.
    pub model: CostModel,
    /// When set, randomize mailbox delivery order and jitter modeled send
    /// latencies from this seed (see `hymv-check`'s race detector).
    pub perturb_seed: Option<u64>,
    /// Whether to record and verify protocol events.
    pub audit: AuditMode,
    /// Seeded transport-fault injection (None = perfect transport, the
    /// default).
    pub fault: Option<FaultPlan>,
    /// Retry/backoff and heartbeat policy of the reliable envelope layer.
    pub retry: RetryPolicy,
    /// Record spans/metrics into the open `hymv_trace::TraceSession`.
    /// Off by default so concurrently running untraced universes (e.g.
    /// parallel tests) never pollute someone else's session; recording
    /// additionally requires a session to actually be open.
    pub trace: bool,
}

/// The default reads nothing from the environment: perfect transport,
/// [`RetryPolicy::default`], auditing as the build profile decides
/// ([`AuditMode::Default`]), no perturbation, no tracing.
impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            model: CostModel::default(),
            perturb_seed: None,
            audit: AuditMode::default(),
            fault: None,
            retry: RetryPolicy::default(),
            trace: false,
        }
    }
}

/// Entry point: spawns `size` thread-ranks running the same SPMD closure.
pub struct Universe;

impl Universe {
    /// Run `f` on `size` ranks with the default cost model; returns each
    /// rank's result, ordered by rank.
    ///
    /// In debug/test builds the protocol auditor runs at teardown and this
    /// call panics with a per-rank event trace on any violation (set
    /// [`RunConfig::audit`] and call [`Universe::run_configured`] to choose
    /// otherwise).
    ///
    /// # Panics
    /// Panics if `size == 0`, on a protocol violation when auditing, or
    /// propagates a panic from any rank.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let (results, report) = Self::run_configured(RunConfig::default(), size, f);
        if let Some(report) = report {
            assert!(report.is_clean(), "communication audit failed:\n{report}");
        }
        results
    }

    /// Run `f` on `size` ranks under an explicit [`RunConfig`]; returns
    /// each rank's result plus the audit report (None when auditing is
    /// off). Unlike [`Universe::run`], protocol violations do **not**
    /// panic — the caller inspects the report (this is the entry point the
    /// `hymv-check` passes drive).
    pub fn run_configured<T, F>(cfg: RunConfig, size: usize, f: F) -> (Vec<T>, Option<AuditReport>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let (joined, world) = Self::spawn(cfg, size, f);
        let reason = joined.iter().find_map(|r| r.as_ref().err()).map(|p| {
            p.downcast_ref::<FaultAbort>().map_or_else(
                || "rank panic".to_string(),
                |abort| format!("{:?}", abort.0),
            )
        });
        settle_flight(world.flight_run, reason);
        let results = joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        (results, world.audit_report())
    }

    /// Run `f` on `size` ranks under fault injection and harvest typed
    /// outcomes: each rank yields `Ok(T)` or the [`FaultReport`] it aborted
    /// with. Any non-fault panic still propagates. This is the chaos-test
    /// entry point — unlike [`Universe::run`], an unrecoverable fault is an
    /// *expected* result, not a test failure, and is guaranteed by the
    /// poison protocol to terminate every rank (no hangs).
    pub fn run_chaos<T, F>(
        cfg: RunConfig,
        size: usize,
        f: F,
    ) -> (Vec<Result<T, FaultReport>>, Option<AuditReport>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        install_fault_abort_hook();
        let (joined, world) = Self::spawn(cfg, size, f);
        let typed: Vec<Result<T, FaultReport>> = joined
            .into_iter()
            .enumerate()
            .map(|(rank, r)| {
                r.or_else(|payload| match payload.downcast::<FaultAbort>() {
                    Ok(abort) => Err(abort.0),
                    // A revocation nobody recovered (the solver was not
                    // LFLR-armed or recovery itself unwound): typed, like
                    // every other chaos outcome.
                    Err(other) => match other.downcast::<Revoked>() {
                        Ok(revoked) => Err(FaultReport {
                            rank,
                            kind: FaultKind::Revoked {
                                suspects: revoked.suspects,
                            },
                        }),
                        Err(other) => std::panic::resume_unwind(other),
                    },
                })
            })
            .collect();
        // A run that died with any typed fault — crash aborts,
        // CheckpointLost, unrecovered revocations — ships its postmortem;
        // a clean run discards its rings.
        let fault = typed.iter().find_map(|r| r.as_ref().err());
        settle_flight(world.flight_run, fault.map(|report| format!("{report:?}")));
        (typed, world.audit_report())
    }

    /// The one spawn body of [`Universe::run_configured`] and
    /// [`Universe::run_chaos`]: one scoped thread per rank, each with its
    /// trace and flight-recorder bracket, all joined (so every rank's ring,
    /// crashed or not, is deposited) before the caller reads the outcomes.
    fn spawn<T, F>(cfg: RunConfig, size: usize, f: F) -> (Vec<std::thread::Result<T>>, Arc<World>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(size > 0, "a universe needs at least one rank");
        let world = World::new(
            size,
            cfg.model,
            cfg.audit.is_enabled(),
            cfg.perturb_seed,
            cfg.fault,
            cfg.retry,
            cfg.trace,
        );
        let f = &f;
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let world = Arc::clone(&world);
                    scope.spawn(move || {
                        let traced = world.trace && hymv_trace::enabled();
                        if traced {
                            hymv_trace::rank_begin(rank);
                        }
                        hymv_trace::flight::rank_begin(world.flight_run, rank);
                        let _flight = FlightDepositGuard;
                        let mut comm = Comm::new(rank, world);
                        let out = f(&mut comm);
                        if traced {
                            comm.publish_trace_metrics();
                            comm.publish_live();
                            hymv_trace::rank_flush();
                        }
                        comm.note_exit();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .collect()
        });
        (joined, world)
    }
}

/// Dump the run's flight-recorder rings as a postmortem when it died
/// (`reason`), discard them when it did not.
fn settle_flight(run: u64, reason: Option<String>) {
    match reason {
        Some(reason) => {
            hymv_trace::flight::dump(run, &reason);
        }
        None => hymv_trace::flight::discard(run),
    }
}

/// Deposits the rank thread's flight-recorder ring into the postmortem
/// store when the rank ends — drop guards run on panic unwinds too,
/// which is exactly the case the flight recorder exists for: the ring
/// of a crashed rank must survive to the dump.
struct FlightDepositGuard;

impl Drop for FlightDepositGuard {
    fn drop(&mut self) {
        hymv_trace::flight::rank_deposit();
    }
}

/// Silence the default panic printout for the *typed* fault aborts that
/// [`Universe::run_chaos`] turns into `Err(FaultReport)`, and for the
/// [`Revoked`] unwinds of LFLR recovery (caught by the solver's
/// `catch_revoked` boundary in the expected case) — a crash scenario
/// would otherwise spray one backtrace per rank over a run whose
/// contract held. Installed once, process-wide; every other panic
/// payload still reaches the previously installed hook untouched.
pub(crate) fn install_fault_abort_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultAbort>().is_none()
                && info.payload().downcast_ref::<Revoked>().is_none()
            {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Universe::run(1, |comm| comm.rank() + comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn results_ordered_by_rank() {
        let out = Universe::run(7, |comm| comm.rank());
        assert_eq!(out, (0..7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Universe::run(0, |_| ());
    }

    fn bare_world(size: usize) -> Arc<World> {
        World::new(
            size,
            CostModel::default(),
            false,
            None,
            None,
            RetryPolicy::default(),
            false,
        )
    }

    #[test]
    fn mailbox_fifo_per_src_tag() {
        let world = bare_world(2);
        for i in 0..3 {
            world.deliver(
                1,
                Message {
                    src: 0,
                    tag: 5,
                    payload: Payload::from_u64(vec![i]),
                    arrival_vt: 0.0,
                    dropped: false,
                },
            );
        }
        for i in 0..3 {
            let m = world.receive(1, 0, 5);
            assert_eq!(m.payload, Payload::from_u64(vec![i]));
        }
    }

    #[test]
    fn try_receive_misses_then_hits() {
        let world = bare_world(2);
        assert!(world.try_receive(0, 1, 9).is_none());
        world.deliver(
            0,
            Message {
                src: 1,
                tag: 9,
                payload: Payload::from_f64(vec![]),
                arrival_vt: 0.0,
                dropped: false,
            },
        );
        assert!(world.try_receive(0, 1, 9).is_some());
        assert_eq!(world.pending(0), 0);
    }

    #[test]
    fn receive_matches_tag_not_order() {
        let world = bare_world(2);
        world.deliver(
            0,
            Message {
                src: 1,
                tag: 1,
                payload: Payload::from_u64(vec![1]),
                arrival_vt: 0.0,
                dropped: false,
            },
        );
        world.deliver(
            0,
            Message {
                src: 1,
                tag: 2,
                payload: Payload::from_u64(vec![2]),
                arrival_vt: 0.0,
                dropped: false,
            },
        );
        let m = world.receive(0, 1, 2);
        assert_eq!(m.payload, Payload::from_u64(vec![2]));
        let m = world.receive(0, 1, 1);
        assert_eq!(m.payload, Payload::from_u64(vec![1]));
    }

    /// Drains rank 0's queue order after delivering `n` messages from two
    /// fake sources under `cfg`.
    fn delivery_order(perturb_seed: Option<u64>, n: u64) -> Vec<u64> {
        let world = World::new(
            3,
            CostModel::default(),
            false,
            perturb_seed,
            None,
            RetryPolicy::default(),
            false,
        );
        for i in 0..n {
            let src = 1 + (i % 2) as usize;
            world.deliver(
                0,
                Message {
                    src,
                    tag: 4,
                    payload: Payload::from_u64(vec![i]),
                    arrival_vt: 0.0,
                    dropped: false,
                },
            );
        }
        (0..n)
            .map(|_| world.receive_any(0, 4).payload.into_u64()[0])
            .collect()
    }

    #[test]
    fn perturbed_delivery_preserves_pairwise_fifo() {
        for seed in [1u64, 2, 3, 99] {
            let order = delivery_order(Some(seed), 16);
            // Messages from one source carry ascending values; per-source
            // subsequences must stay ascending (non-overtaking).
            for parity in 0..2 {
                let per_src: Vec<u64> = order.iter().copied().filter(|v| v % 2 == parity).collect();
                assert!(
                    per_src.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: {order:?}"
                );
            }
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..16).collect::<Vec<_>>(),
                "nothing lost or duplicated"
            );
        }
    }

    #[test]
    fn perturbed_delivery_reproducible_and_seed_sensitive() {
        let a = delivery_order(Some(7), 24);
        let b = delivery_order(Some(7), 24);
        assert_eq!(a, b, "same seed, same schedule");
        let unperturbed = delivery_order(None, 24);
        assert_eq!(
            unperturbed,
            (0..24).collect::<Vec<_>>(),
            "FIFO without perturbation"
        );
        // At least one of a handful of seeds must disagree with FIFO order
        // (24 interleaved messages: astronomically likely).
        let shuffled = [11u64, 12, 13]
            .iter()
            .any(|&s| delivery_order(Some(s), 24) != unperturbed);
        assert!(shuffled, "perturbation never changed the wildcard order");
    }

    #[test]
    fn audit_reports_clean_run() {
        let cfg = RunConfig {
            audit: AuditMode::Enabled,
            ..RunConfig::default()
        };
        let (out, report) = Universe::run_configured(cfg, 3, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.isend(next, 2, Payload::from_u64(vec![c.rank() as u64]));
            let got = c.recv(prev, 2).into_u64()[0];
            c.barrier();
            got
        });
        assert_eq!(out, vec![2, 0, 1]);
        let report = report.expect("audit was enabled");
        assert!(report.is_clean(), "{report}");
        // Every rank's trace ends with its exit event.
        for rank in 0..3 {
            let trace = report.rank_trace(rank);
            assert!(matches!(
                trace.last().map(|e| &e.kind),
                Some(AuditEventKind::RankExited)
            ));
        }
    }

    #[test]
    fn audit_disabled_yields_no_report() {
        let cfg = RunConfig {
            audit: AuditMode::Disabled,
            ..RunConfig::default()
        };
        let (_, report) = Universe::run_configured(cfg, 2, |c| c.rank());
        assert!(report.is_none());
    }

    #[test]
    fn audit_detects_leaked_send() {
        let cfg = RunConfig {
            audit: AuditMode::Enabled,
            ..RunConfig::default()
        };
        let (_, report) = Universe::run_configured(cfg, 2, |c| {
            if c.rank() == 0 {
                // Injected violation: nobody ever receives this.
                c.isend(1, 5, Payload::from_u64(vec![0xdead]));
            }
            c.barrier();
        });
        let report = report.expect("audit was enabled");
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                crate::AuditViolation::UnmatchedSend {
                    dst: 1,
                    src: 0,
                    tag: 5,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_unawaited_collective() {
        let cfg = RunConfig {
            audit: AuditMode::Enabled,
            ..RunConfig::default()
        };
        let (_, report) = Universe::run_configured(cfg, 3, |c| {
            // Injected violation: a non-blocking reduction posted by every
            // rank but never completed.
            let _leaked = c.iallreduce(vec![1.0, 2.0], crate::ReduceOp::Sum);
            c.rank()
        });
        let report = report.expect("audit was enabled");
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                crate::AuditViolation::UnbalancedCollective {
                    posted: 3,
                    completed: 0,
                    size: 3,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    #[should_panic(expected = "communication audit failed")]
    fn default_run_panics_on_violation_in_debug() {
        // Universe::run audits by default in debug builds; a release test
        // build has no auditor, so it states the premise's absence with
        // the expected message itself.
        assert!(
            crate::AuditMode::Default.is_enabled(),
            "communication audit failed: (release build, no auditor; vacuous pass)"
        );
        let _ = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.isend(1, 5, Payload::from_u64(vec![1]));
            }
            c.barrier();
        });
    }

    #[test]
    fn perturbed_universe_matches_unperturbed_results() {
        // A schedule-deterministic program: results must be bitwise equal
        // under any perturbation seed.
        let run = |seed: Option<u64>| {
            let cfg = RunConfig {
                perturb_seed: seed,
                ..RunConfig::default()
            };
            let (out, _) = Universe::run_configured(cfg, 4, |c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                c.isend(next, 1, Payload::from_f64(vec![c.rank() as f64 + 0.25]));
                let got = c.recv(prev, 1).into_f64()[0];
                c.allreduce_sum_f64(got)
            });
            out
        };
        let base = run(None);
        for seed in 0..4 {
            assert_eq!(run(Some(seed)), base, "seed {seed}");
        }
    }
}
