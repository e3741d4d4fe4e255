//! The per-rank communicator handle.

use std::sync::Arc;

use crate::audit::AuditEventKind;
use crate::fault::{DeliverAs, FaultAbort, FaultReport, RetryPolicy};
use crate::ledger::{thread_cpu_time, CommStats, Ledger};
use crate::lflr::LflrState;
use crate::payload::Payload;
use crate::reliable::ReliableState;
use crate::world::{mix64, next_rand, Message, World};

/// A completed-immediately send token (sends are buffered: the payload is
/// moved into the receiver's mailbox at `isend` time, matching MPI's
/// buffered-send semantics which the paper's algorithms rely on).
#[derive(Debug, Clone, Copy)]
pub struct SendHandle {
    pub(crate) dst: usize,
    pub(crate) tag: u32,
}

impl SendHandle {
    /// Destination rank of the send.
    pub fn dst(&self) -> usize {
        self.dst
    }

    /// Tag of the send.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Waits for completion. Sends are buffered so there is nothing to
    /// block on, but completion is *recorded*: the ledger counts the send
    /// as confirmed and the protocol auditor sees its full lifetime
    /// (`SendPosted` … `SendCompleted`) instead of a fire-and-forget.
    pub fn wait(self, comm: &mut Comm) {
        comm.confirm_send(self);
    }
}

/// A posted non-blocking receive. Completing it (`wait`) blocks until a
/// matching message exists and advances the rank's virtual clock to the
/// message's modeled arrival time.
#[derive(Debug, Clone, Copy)]
pub struct RecvHandle {
    pub(crate) src: usize,
    pub(crate) tag: u32,
}

impl RecvHandle {
    /// Block until the matching message arrives; returns its payload.
    pub fn wait(self, comm: &mut Comm) -> Payload {
        comm.complete_recv(self.src, self.tag)
    }

    /// Non-blocking test; returns the payload if the message is already in
    /// the mailbox.
    pub fn test(self, comm: &mut Comm) -> Option<Payload> {
        comm.try_complete_recv(self.src, self.tag)
    }
}

/// A posted non-blocking allreduce (see [`Comm::iallreduce_sum_vec`]).
#[derive(Debug, Clone, Copy)]
pub struct IallreduceHandle {
    pub(crate) seq: u64,
}

impl IallreduceHandle {
    /// Block until every rank has contributed; returns the element-wise
    /// sums and synchronizes the virtual clock.
    pub fn wait(self, comm: &mut Comm) -> Vec<f64> {
        comm.iallreduce_wait(self)
    }
}

/// One rank's communicator: point-to-point, collectives, the virtual-time
/// ledger, and the reliable envelope layer's per-rank state.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) world: Arc<World>,
    pub(crate) ledger: Ledger,
    /// Reset to 0 by LFLR world repair (a fresh collective epoch), so it
    /// lives behind a crate-visible field rather than a local.
    pub(crate) coll_seq: u64,
    /// Per-rank jitter stream under schedule perturbation (None otherwise).
    jitter: Option<u64>,
    /// Sequence numbers, retransmit window, and dedup state of the
    /// reliable envelope transport (see `crate::reliable`).
    pub(crate) reliable: ReliableState,
    /// Local-failure local-recovery state (see `crate::lflr`).
    pub(crate) lflr: LflrState,
}

impl Comm {
    pub(crate) fn new(rank: usize, world: Arc<World>) -> Self {
        let ledger = Ledger::new(world.model);
        let jitter = world
            .perturb_seed
            .map(|s| mix64(s.wrapping_add(mix64(rank as u64 + 1))));
        let reliable = ReliableState::new(world.retry);
        Comm {
            rank,
            world,
            ledger,
            coll_seq: 0,
            jitter,
            reliable,
            lflr: LflrState::default(),
        }
    }

    /// Records this rank's clean exit in the audit log (called by the
    /// universe after the SPMD closure returns).
    pub(crate) fn note_exit(&self) {
        if let Some(log) = &self.world.audit {
            log.record(self.rank, AuditEventKind::RankExited);
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Immutable view of the virtual-time ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Current virtual time, seconds.
    pub fn vt(&self) -> f64 {
        self.ledger.vt()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CommStats {
        self.ledger.stats()
    }

    /// Reset the ledger (between timed phases of an experiment). Collective:
    /// internally barriers first so no rank resets while messages from the
    /// previous phase are in flight.
    pub fn reset_ledger(&mut self) {
        self.barrier();
        self.ledger.reset();
    }

    // ---------------------------------------------------------------- p2p

    /// Non-blocking (buffered) send on the **reliable** fabric: never
    /// fault-injected, mirroring MPI's guaranteed delivery. Fault studies
    /// go through [`Comm::isend_unreliable`] (via the envelope API).
    pub fn isend(&mut self, dst: usize, tag: u32, payload: Payload) -> SendHandle {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        crate::assert_tag_valid(tag);
        self.isend_internal(dst, tag, payload)
    }

    /// Non-blocking send through the fault injector (when one is active):
    /// the message may be dropped (delivered as a tombstone), duplicated,
    /// reordered, delayed, or bit-flipped according to the world's
    /// [`FaultPlan`](crate::FaultPlan). Payloads sent here **must** be
    /// protected by the envelope layer — a tombstone reaching a raw
    /// receive is a panic, because raw receives cannot recover.
    pub fn isend_unreliable(&mut self, dst: usize, tag: u32, payload: Payload) -> SendHandle {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        crate::assert_tag_valid(tag);
        let Some(decision) = self.world.fault.as_ref().map(|f| f.decide(self.rank, dst)) else {
            return self.isend_internal(dst, tag, payload);
        };
        let base_arrival = self.stamp_arrival(tag, payload.len_bytes());
        let vt = self.ledger.vt();
        hymv_trace::flight::record_send(dst, tag, payload.len_bytes(), vt);
        // A straggler link stretches the modeled transit only; the payload
        // and its eventual position in the residual history are untouched.
        let arrival_vt = vt + (base_arrival - vt) * decision.delay_mult;
        let (payload, dropped) = match decision.deliver {
            DeliverAs::Data => (payload, false),
            DeliverAs::Tombstone => (Payload::Bytes(Vec::new()), true),
            DeliverAs::Corrupt { bit } => {
                let mut p = payload;
                p.corrupt_bit(bit);
                (p, false)
            }
        };
        let duplicate = decision.duplicate.then(|| Message {
            src: self.rank,
            tag,
            payload: payload.clone(),
            // The copy trails the original by one latency unit.
            arrival_vt: arrival_vt + self.ledger.model().alpha,
            dropped,
        });
        let msg = Message {
            src: self.rank,
            tag,
            payload,
            arrival_vt,
            dropped,
        };
        match decision.reorder_pos {
            Some(pos) => self.world.deliver_shuffled(dst, msg, pos),
            None => self.world.deliver(dst, msg),
        }
        if let Some(dup) = duplicate {
            self.world.deliver(dst, dup);
        }
        SendHandle { dst, tag }
    }

    /// Unchecked-tag send on the reliable fabric (internal: also carries
    /// the control-band traffic of the reliable layer).
    pub(crate) fn isend_internal(&mut self, dst: usize, tag: u32, payload: Payload) -> SendHandle {
        let bytes = payload.len_bytes();
        let arrival_vt = self.stamp_arrival(tag, bytes);
        hymv_trace::flight::record_send(dst, tag, bytes, self.ledger.vt());
        self.world.deliver(
            dst,
            Message {
                src: self.rank,
                tag,
                payload,
                arrival_vt,
                dropped: false,
            },
        );
        SendHandle { dst, tag }
    }

    /// Charge a send to the ledger and compute its modeled arrival stamp
    /// (with the perturbation jitter applied when enabled).
    pub(crate) fn stamp_arrival(&mut self, tag: u32, bytes: usize) -> f64 {
        hymv_trace::histogram_record("hymv_msg_bytes", &[], bytes as u64);
        let mut arrival_vt = self.ledger.on_send(tag, bytes);
        if let Some(state) = &mut self.jitter {
            // Stretch the modeled transit by a random factor in [1, 2).
            // Only the virtual-time stamp moves — payloads are untouched —
            // so a schedule-deterministic program produces bitwise-equal
            // results while wait/overlap orderings get shaken.
            let unit = (next_rand(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let vt = self.ledger.vt();
            arrival_vt = vt + (arrival_vt - vt) * (1.0 + unit);
        }
        arrival_vt
    }

    /// Record a send's completion in the ledger and audit log (the body of
    /// [`SendHandle::wait`]).
    pub(crate) fn confirm_send(&mut self, h: SendHandle) {
        self.ledger.on_send_confirmed();
        if let Some(log) = &self.world.audit {
            log.record(
                self.rank,
                AuditEventKind::SendCompleted {
                    dst: h.dst,
                    tag: h.tag,
                },
            );
        }
    }

    /// Post a non-blocking receive from `src` with `tag`.
    pub fn irecv(&mut self, src: usize, tag: u32) -> RecvHandle {
        assert!(src < self.size(), "source rank {src} out of range");
        crate::assert_tag_valid(tag);
        RecvHandle { src, tag }
    }

    /// Blocking send (buffered, so identical to `isend`).
    pub fn send(&mut self, dst: usize, tag: u32, payload: Payload) {
        let _ = self.isend(dst, tag, payload);
    }

    /// Blocking receive.
    pub fn recv(&mut self, src: usize, tag: u32) -> Payload {
        assert!(src < self.size(), "source rank {src} out of range");
        crate::assert_tag_valid(tag);
        self.complete_recv(src, tag)
    }

    /// Blocking wildcard receive: the first available message with `tag`
    /// from any source; returns `(src, payload)`. **Order-sensitive**: with
    /// several senders the matching order is a property of the schedule,
    /// not the program — any reduction folded in `recv_any` arrival order
    /// must be order-insensitive (or bitwise-checked under
    /// `hymv_check::run_perturbed`).
    pub fn recv_any(&mut self, tag: u32) -> (usize, Payload) {
        crate::assert_tag_valid(tag);
        let msg = if self.world.fault.is_some() {
            self.serviced_receive_any(tag)
        } else {
            self.world.receive_any(self.rank, tag)
        };
        self.expect_live(&msg);
        self.ledger
            .on_recv_complete(msg.arrival_vt, tag, msg.payload.len_bytes());
        hymv_trace::flight::record_recv(msg.src, tag, msg.payload.len_bytes(), msg.arrival_vt);
        (msg.src, msg.payload)
    }

    fn complete_recv(&mut self, src: usize, tag: u32) -> Payload {
        let msg = self.blocking_receive(src, tag);
        self.expect_live(&msg);
        self.ledger
            .on_recv_complete(msg.arrival_vt, tag, msg.payload.len_bytes());
        hymv_trace::flight::record_recv(msg.src, tag, msg.payload.len_bytes(), msg.arrival_vt);
        msg.payload
    }

    fn try_complete_recv(&mut self, src: usize, tag: u32) -> Option<Payload> {
        self.world.try_receive(self.rank, src, tag).map(|msg| {
            self.expect_live(&msg);
            self.ledger
                .on_recv_complete(msg.arrival_vt, tag, msg.payload.len_bytes());
            hymv_trace::flight::record_recv(msg.src, tag, msg.payload.len_bytes(), msg.arrival_vt);
            msg.payload
        })
    }

    /// Blocking matched receive that may return a tombstone. With no
    /// injector this is the plain condvar wait; under fault injection it
    /// polls, so the rank keeps servicing reliable-layer retransmission
    /// requests (and notices a poisoned world) while "blocked" — a rank
    /// stuck in a plain wait could otherwise deadlock a neighbour whose
    /// recovery needs this rank to resend.
    pub(crate) fn blocking_receive(&mut self, src: usize, tag: u32) -> Message {
        if self.world.fault.is_none() {
            return self.world.receive(self.rank, src, tag);
        }
        loop {
            // Satisfiability first, revoke second: an already-delivered
            // message is consumed even mid-revocation (see `crate::lflr`).
            if let Some(msg) = self.world.try_receive(self.rank, src, tag) {
                return msg;
            }
            self.world.check_poison(self.rank);
            self.check_revoked();
            self.service_resend_requests();
            std::thread::yield_now();
        }
    }

    /// Wildcard counterpart of [`Comm::blocking_receive`].
    fn serviced_receive_any(&mut self, tag: u32) -> Message {
        loop {
            if let Some(msg) = self.world.try_receive_any(self.rank, tag) {
                return msg;
            }
            self.world.check_poison(self.rank);
            self.check_revoked();
            self.service_resend_requests();
            std::thread::yield_now();
        }
    }

    /// Raw receives have no recovery protocol, so a tombstone reaching one
    /// is a programming error (traffic sent through the injector without
    /// the envelope API).
    fn expect_live(&self, msg: &Message) {
        assert!(
            !msg.dropped,
            "rank {}: dropped message (src {}, tag {:#x}) reached a raw receive; \
             fault-injected traffic must go through the envelope API \
             (send_enveloped/recv_enveloped)",
            self.rank, msg.src, msg.tag
        );
    }

    /// True once the reliable layer has seen enough timeouts to give up on
    /// overlap (see `RetryPolicy::degrade_after`); operators consult this
    /// to fall back from the overlapped to the blocking exchange schedule.
    pub fn degraded(&self) -> bool {
        self.reliable.degraded
    }

    /// The retry/backoff policy this rank runs under.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.reliable.policy
    }

    /// Fault-scoped sends the injector's crash rank has posted so far
    /// (`None` without an injector or a crash spec). Calibration hook for
    /// crash-window tests: a run with an unreachable `after_sends` reads
    /// this at phase boundaries to place real triggers inside a phase.
    pub fn crash_sends_posted(&self) -> Option<u64> {
        self.world
            .fault
            .as_ref()
            .and_then(|f| f.crash_sends_posted())
    }

    /// Record the typed report, poison the world so every other rank
    /// unwinds from its blocking waits, and abort this rank.
    pub(crate) fn fault_abort(&self, report: FaultReport) -> ! {
        self.world.poison(report.clone());
        std::panic::panic_any(FaultAbort(report));
    }

    // ------------------------------------------------------------ compute

    /// Run a compute section, charging its thread-CPU duration to the
    /// virtual clock. Returns the closure's value.
    ///
    /// Every call of the `work` family (`work`, `work_smp`, `work_with`,
    /// `timed_work`) reads the thread CPU clock twice — two syscalls,
    /// about 0.5 µs a pair on the reference host, as much as a small
    /// element kernel. Wrap a chunk of elements or a whole loop, never
    /// the body of a per-element loop.
    ///
    /// The `work`/`traced` wrappers are the *sanctioned* timing APIs: their
    /// ledger/clock reads are the cost model itself, not stray
    /// nondeterminism, so effect inference pins them pure. Closure bodies
    /// are not hidden by the pin — their call sites are textually in the
    /// caller and are attributed there.
    // verify: pure
    pub fn work<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = thread_cpu_time();
        let out = f();
        self.ledger.add_compute(thread_cpu_time() - t0);
        out
    }

    /// Run a shared-memory-parallel ("OpenMP") compute section. The section
    /// executes on the calling thread; its measured CPU time is divided by
    /// the cost model's Amdahl speedup for `threads` threads. On a
    /// many-core host this models what `#pragma omp parallel for` over the
    /// elemental loop achieves; the host here has one core (see crate docs).
    // verify: pure
    pub fn work_smp<R>(&mut self, threads: usize, f: impl FnOnce() -> R) -> R {
        let t0 = thread_cpu_time();
        let out = f();
        let dt = thread_cpu_time() - t0;
        let speedup = self.ledger.model().smp_speedup(threads);
        self.ledger.add_compute(dt / speedup);
        out
    }

    /// Advance the virtual clock by an externally-modeled duration (e.g. a
    /// simulated GPU phase whose timeline is produced by `hymv-gpu`).
    pub fn add_modeled_time(&mut self, seconds: f64) {
        self.ledger.add_compute(seconds);
    }

    /// Like [`Comm::work`], but the closure also gets the communicator, so
    /// compute that is interleaved with sends (packing a buffer, then
    /// posting it) still charges its CPU time without the caller reading
    /// the thread clock directly. Time spent *inside* nested comm calls is
    /// measured CPU time too — which is what the sender actually burns on
    /// this substrate, where "the network" is memcpy into a mailbox.
    // verify: pure
    pub fn work_with<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = thread_cpu_time();
        let out = f(self);
        self.ledger.add_compute(thread_cpu_time() - t0);
        out
    }

    /// [`Comm::work_with`] that also returns the charged duration in
    /// seconds — for callers that keep their own phase breakdowns (e.g.
    /// operator setup timings).
    // verify: pure
    pub fn timed_work<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let t0 = thread_cpu_time();
        let out = f(self);
        let dt = (thread_cpu_time() - t0).max(0.0);
        self.ledger.add_compute(dt);
        (out, dt)
    }

    // ------------------------------------------------------------- tracing

    /// Run `f` inside a trace span of `phase`, stamped with this rank's
    /// virtual time on entry and exit. A no-op wrapper (two relaxed atomic
    /// loads) when tracing is disabled. Spans nest. Pinned pure like the
    /// `work` family: span bookkeeping (including the tracer's node
    /// allocation on close) is observability plumbing, not algorithm
    /// effects.
    // verify: pure
    pub fn traced<R>(&mut self, phase: hymv_trace::Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let guard = hymv_trace::SpanGuard::open(phase, self.vt());
        let out = f(self);
        guard.close(self.vt());
        out
    }

    /// Publish this rank's ledger counters into the open trace session's
    /// metrics registry (called by the universe once the SPMD closure
    /// returns on a traced run). Per-tag traffic becomes labeled counters;
    /// clocks become gauges.
    pub(crate) fn publish_trace_metrics(&self) {
        let s = self.ledger.stats();
        hymv_trace::gauge_set("hymv_vt_seconds", &[], s.vt);
        hymv_trace::gauge_set("hymv_compute_seconds", &[], s.compute_s);
        hymv_trace::gauge_set("hymv_comm_wait_seconds", &[], s.comm_wait_s);
        hymv_trace::counter_add("hymv_sends_confirmed_total", &[], s.sends_confirmed);
        hymv_trace::counter_add("hymv_retries_total", &[], s.retries);
        hymv_trace::counter_add("hymv_timeouts_total", &[], s.timeouts);
        hymv_trace::counter_add("hymv_dups_suppressed_total", &[], s.dups_suppressed);
        hymv_trace::counter_add("hymv_corrupt_detected_total", &[], s.corrupt_detected);
        for (&tag, t) in self.ledger.tag_stats() {
            let label = hymv_trace::tag_label(tag);
            let labels: &[(&str, &str)] = &[("tag", label.as_str())];
            hymv_trace::counter_add("hymv_bytes_sent_total", labels, t.bytes_sent);
            hymv_trace::counter_add("hymv_msgs_sent_total", labels, t.msgs_sent);
            hymv_trace::counter_add("hymv_bytes_recv_total", labels, t.bytes_recv);
            hymv_trace::counter_add("hymv_msgs_recv_total", labels, t.msgs_recv);
        }
    }

    /// Refresh this rank's live telemetry: set the clock/utilization
    /// gauges and publish a *replacement* copy of the rank's current
    /// metrics registry to the configured live transports (HTTP
    /// endpoint / snapshot file). Unlike [`Comm::publish_trace_metrics`]
    /// this re-folds no counters, so calling it at every batch boundary
    /// is safe. One relaxed atomic load when no transport is configured.
    pub fn publish_live(&self) {
        if !hymv_trace::live::live_enabled() {
            return;
        }
        let s = self.ledger.stats();
        hymv_trace::gauge_set("hymv_vt_seconds", &[], s.vt);
        hymv_trace::gauge_set("hymv_compute_seconds", &[], s.compute_s);
        hymv_trace::gauge_set("hymv_comm_wait_seconds", &[], s.comm_wait_s);
        let util = if s.vt > 0.0 { s.compute_s / s.vt } else { 0.0 };
        hymv_trace::gauge_set("hymv_rank_utilization", &[], util);
        hymv_trace::rank_live_publish();
    }

    /// Collective flight-recorder postmortem for a run that *survives*
    /// its incident (a failed batch, as opposed to a typed abort): every
    /// rank snapshots its ring while still alive, and after the barrier
    /// rank 0 renders and stores the artifact. Returns the JSON on rank
    /// 0, `None` elsewhere. The trailing barrier keeps a later
    /// incident's snapshots from racing this dump.
    // verify: collective-entry
    pub fn flight_postmortem(&mut self, reason: &str) -> Option<String> {
        hymv_trace::flight::rank_snapshot();
        self.barrier();
        let out = (self.rank == 0).then(|| hymv_trace::flight::dump(self.world.flight_run, reason));
        self.barrier();
        out
    }

    // -------------------------------------------------------- collectives

    fn next_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Post + await a rendezvous. The await is serviced: under fault
    /// injection a rank parked in a collective still answers its
    /// neighbours' retransmission requests and notices a poisoned world —
    /// without this, a sender sitting in an allreduce while its neighbour
    /// retries a lost ghost message would deadlock the pair.
    fn rendezvous_serviced(
        &mut self,
        seq: u64,
        contribution: Option<Payload>,
        combine: impl FnOnce(&mut Vec<Option<Payload>>) -> Vec<Payload>,
    ) -> (f64, Payload) {
        self.world
            .rendezvous_post(self.rank, seq, self.vt(), contribution, combine);
        self.coll_await(seq)
    }

    /// Blocking half of a collective, fault-aware (see
    /// [`Comm::rendezvous_serviced`]).
    fn coll_await(&mut self, seq: u64) -> (f64, Payload) {
        if self.world.fault.is_none() {
            return self.world.rendezvous_await(self.rank, seq);
        }
        loop {
            // Completed collectives are consumed before the revoke check
            // so every rank that can consume a result does — the
            // drain-before-revoke ordering the checkpoint-consistency
            // lemma in `crate::lflr` relies on.
            if let Some(out) = self.world.try_rendezvous_result(self.rank, seq) {
                return out;
            }
            self.world.check_poison(self.rank);
            self.check_revoked();
            self.service_resend_requests();
            std::thread::yield_now();
        }
    }

    /// Synchronize all ranks (virtual clocks advance to the global max).
    pub fn barrier(&mut self) {
        let seq = self.next_seq();
        let size = self.size();
        let (max_vt, _) =
            self.rendezvous_serviced(seq, None, |_| vec![Payload::Bytes(Vec::new()); size]);
        self.ledger.on_collective(max_vt, size);
    }

    /// Global sum of one f64.
    pub fn allreduce_sum_f64(&mut self, x: f64) -> f64 {
        self.allreduce_f64(x, |a, b| a + b)
    }

    /// Global max of one f64.
    pub fn allreduce_max_f64(&mut self, x: f64) -> f64 {
        self.allreduce_f64(x, f64::max)
    }

    /// Global min of one f64.
    pub fn allreduce_min_f64(&mut self, x: f64) -> f64 {
        self.allreduce_f64(x, f64::min)
    }

    fn allreduce_f64(&mut self, x: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let seq = self.next_seq();
        let size = self.size();
        let (max_vt, result) =
            self.rendezvous_serviced(seq, Some(Payload::from_f64(vec![x])), move |contrib| {
                let acc = contrib
                    .iter()
                    .map(|c| match c {
                        Some(Payload::F64(v)) => v[0],
                        _ => unreachable!("allreduce contributions are F64"),
                    })
                    .reduce(&op)
                    .expect("size >= 1");
                vec![Payload::from_f64(vec![acc]); size]
            });
        self.ledger.on_collective(max_vt, size);
        result.into_f64()[0]
    }

    /// Global sum of one u64.
    pub fn allreduce_sum_u64(&mut self, x: u64) -> u64 {
        self.allreduce_u64(x, |a, b| a + b)
    }

    /// Global max of one u64.
    pub fn allreduce_max_u64(&mut self, x: u64) -> u64 {
        self.allreduce_u64(x, u64::max)
    }

    fn allreduce_u64(&mut self, x: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        let seq = self.next_seq();
        let size = self.size();
        let (max_vt, result) =
            self.rendezvous_serviced(seq, Some(Payload::from_u64(vec![x])), move |contrib| {
                let acc = contrib
                    .iter()
                    .map(|c| match c {
                        Some(Payload::U64(v)) => v[0],
                        _ => unreachable!("allreduce contributions are U64"),
                    })
                    .reduce(&op)
                    .expect("size >= 1");
                vec![Payload::from_u64(vec![acc]); size]
            });
        self.ledger.on_collective(max_vt, size);
        result.into_u64()[0]
    }

    /// Post a non-blocking element-wise vector sum-allreduce (MPI's
    /// `MPI_Iallreduce`). Complete it with [`IallreduceHandle::wait`];
    /// computation in between absorbs the collective's latency — the
    /// mechanism pipelined Krylov methods exploit.
    pub fn iallreduce_sum_vec(&mut self, vals: Vec<f64>) -> IallreduceHandle {
        let seq = self.next_seq();
        let size = self.size();
        let len = vals.len();
        self.world.rendezvous_post(
            self.rank,
            seq,
            self.vt(),
            Some(Payload::from_f64(vals)),
            move |contrib| {
                let mut acc = vec![0.0f64; len];
                for c in contrib.iter() {
                    match c {
                        Some(Payload::F64(v)) => {
                            debug_assert_eq!(v.len(), len, "mismatched iallreduce lengths");
                            for (a, b) in acc.iter_mut().zip(v) {
                                *a += b;
                            }
                        }
                        _ => unreachable!("iallreduce contributions are F64"),
                    }
                }
                vec![Payload::from_f64(acc); size]
            },
        );
        IallreduceHandle { seq }
    }

    /// Complete a posted non-blocking allreduce.
    pub(crate) fn iallreduce_wait(&mut self, h: IallreduceHandle) -> Vec<f64> {
        let size = self.size();
        let (max_vt, result) = self.coll_await(h.seq);
        self.ledger.on_collective(max_vt, size);
        result.into_f64()
    }

    /// Every rank contributes a `u64` list; all ranks receive all lists,
    /// ordered by rank.
    pub fn allgather_u64(&mut self, mine: Vec<u64>) -> Vec<Vec<u64>> {
        let seq = self.next_seq();
        let size = self.size();
        let (max_vt, result) =
            self.rendezvous_serviced(seq, Some(Payload::from_u64(mine)), move |contrib| {
                // Flatten with length prefixes so one payload carries all.
                let mut flat = Vec::new();
                for c in contrib.iter() {
                    match c {
                        Some(Payload::U64(v)) => {
                            flat.push(v.len() as u64);
                            flat.extend_from_slice(v);
                        }
                        _ => unreachable!("allgather contributions are U64"),
                    }
                }
                vec![Payload::from_u64(flat); size]
            });
        self.ledger.on_collective(max_vt, size);
        let flat = result.into_u64();
        let mut out = Vec::with_capacity(size);
        let mut i = 0;
        for _ in 0..size {
            let n = flat[i] as usize;
            out.push(flat[i + 1..i + 1 + n].to_vec());
            i += 1 + n;
        }
        out
    }

    /// Broadcast a payload from `root` to all ranks.
    pub fn bcast(&mut self, root: usize, payload: Option<Payload>) -> Payload {
        assert!(root < self.size(), "broadcast root {root} out of range");
        debug_assert_eq!(
            self.rank == root,
            payload.is_some(),
            "exactly the root supplies the broadcast payload"
        );
        let seq = self.next_seq();
        let size = self.size();
        let (max_vt, result) = self.rendezvous_serviced(seq, payload, move |contrib| {
            let p = contrib[root].take().expect("root contributed");
            vec![p; size]
        });
        self.ledger.on_collective(max_vt, size);
        result
    }

    /// Sparse all-to-all: each rank sends `(dest, payload)` pairs; returns
    /// the `(src, payload)` pairs addressed to this rank, sorted by source.
    ///
    /// Receivers do not know their senders a priori (the situation during
    /// LNSM/GNGM construction), so a lightweight rendezvous first exchanges
    /// the sender→receiver incidence, then payloads move point-to-point.
    pub fn exchange_sparse(
        &mut self,
        msgs: Vec<(usize, Payload)>,
        tag: u32,
    ) -> Vec<(usize, Payload)> {
        crate::assert_tag_valid(tag);
        for (dst, _) in &msgs {
            assert!(*dst < self.size(), "destination rank {dst} out of range");
        }
        let dests: Vec<u64> = msgs.iter().map(|(d, _)| *d as u64).collect();
        let incidence = self.allgather_u64(dests);

        // Who will send to me, in rank order (duplicates allowed).
        let mut senders: Vec<usize> = Vec::new();
        for (src, dests) in incidence.iter().enumerate() {
            for d in dests {
                if *d as usize == self.rank {
                    senders.push(src);
                }
            }
        }
        senders.sort_unstable();

        for (dst, payload) in msgs {
            let _ = self.isend(dst, tag, payload);
        }

        let mut out = Vec::with_capacity(senders.len());
        for src in senders {
            let payload = self.complete_recv(src, tag);
            out.push((src, payload));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Universe;

    #[test]
    fn allreduce_sum_and_max() {
        let out = Universe::run(5, |c| {
            let s = c.allreduce_sum_f64(c.rank() as f64);
            let m = c.allreduce_max_f64(c.rank() as f64);
            let su = c.allreduce_sum_u64(1);
            let mu = c.allreduce_max_u64(c.rank() as u64 * 10);
            (s, m, su, mu)
        });
        for (s, m, su, mu) in out {
            assert_eq!(s, 10.0);
            assert_eq!(m, 4.0);
            assert_eq!(su, 5);
            assert_eq!(mu, 40);
        }
    }

    #[test]
    fn allreduce_min() {
        let out = Universe::run(4, |c| c.allreduce_min_f64(10.0 - c.rank() as f64));
        assert!(out.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn allgather_roundtrip() {
        let out = Universe::run(4, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            c.allgather_u64(mine)
        });
        for gathered in out {
            assert_eq!(gathered.len(), 4);
            for (r, v) in gathered.iter().enumerate() {
                assert_eq!(v, &(0..r as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = Universe::run(3, |c| {
            let p = if c.rank() == 2 {
                Some(Payload::from_f64(vec![3.25]))
            } else {
                None
            };
            c.bcast(2, p).into_f64()
        });
        assert!(out.iter().all(|v| v == &vec![3.25]));
    }

    #[test]
    fn nonblocking_overlap_absorbs_latency() {
        // Rank 1 computes while the message is in flight; its comm wait must
        // be (nearly) zero while an eager waiter would pay latency.
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.isend(1, 1, Payload::from_f64(vec![1.0; 1024]));
                0.0
            } else {
                let h = c.irecv(0, 1);
                c.work(|| {
                    let mut acc = 0.0f64;
                    for i in 0..200_000 {
                        acc += (i as f64).sin();
                    }
                    acc
                });
                let _ = h.wait(c);
                c.stats().comm_wait_s
            }
        });
        // The compute section should exceed the modeled microseconds of
        // transit, so wait time is zero.
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn exchange_sparse_delivers_all() {
        // Every rank sends its rank id to every even rank.
        let out = Universe::run(4, |c| {
            let msgs: Vec<(usize, Payload)> = (0..c.size())
                .filter(|d| d % 2 == 0)
                .map(|d| (d, Payload::from_u64(vec![c.rank() as u64])))
                .collect();
            c.exchange_sparse(msgs, 3)
        });
        // Even ranks received from everyone, odd ranks from no one.
        assert_eq!(out[0].len(), 4);
        assert_eq!(out[1].len(), 0);
        assert_eq!(out[2].len(), 4);
        assert_eq!(out[3].len(), 0);
        let srcs: Vec<usize> = out[0].iter().map(|(s, _)| *s).collect();
        assert_eq!(srcs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_send_works() {
        let out = Universe::run(2, |c| {
            let me = c.rank();
            c.isend(me, 4, Payload::from_u64(vec![me as u64]));
            c.recv(me, 4).into_u64()[0]
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn reset_ledger_is_collective_and_clears() {
        let out = Universe::run(3, |c| {
            c.allreduce_sum_f64(1.0);
            c.reset_ledger();
            c.stats().msgs_sent
        });
        assert!(out.iter().all(|&m| m == 0));
    }

    #[test]
    fn barrier_syncs_virtual_clocks() {
        let out = Universe::run(3, |c| {
            if c.rank() == 0 {
                c.add_modeled_time(1.0);
            }
            c.barrier();
            c.vt()
        });
        for vt in out {
            assert!(vt >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected() {
        let _ = Universe::run(1, |c| {
            c.isend(0, crate::RESERVED_TAG_BASE + 1, Payload::from_f64(vec![]));
        });
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected_irecv() {
        let _ = Universe::run(1, |c| {
            let _ = c.irecv(0, crate::RESERVED_TAG_BASE);
        });
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected_recv() {
        let _ = Universe::run(1, |c| {
            let _ = c.recv(0, u32::MAX);
        });
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected_recv_any() {
        let _ = Universe::run(1, |c| {
            let _ = c.recv_any(crate::RESERVED_TAG_BASE + 42);
        });
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected_send() {
        let _ = Universe::run(1, |c| {
            c.send(0, crate::RESERVED_TAG_BASE + 3, Payload::from_u64(vec![1]));
        });
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected_exchange_sparse() {
        let _ = Universe::run(1, |c| {
            let _ = c.exchange_sparse(Vec::new(), crate::RESERVED_TAG_BASE + 9);
        });
    }

    #[test]
    fn recv_any_collects_all_sources() {
        let out = Universe::run(4, |c| {
            if c.rank() == 0 {
                let mut got: Vec<u64> = (0..3).map(|_| c.recv_any(6).1.into_u64()[0]).collect();
                got.sort_unstable();
                got
            } else {
                c.isend(0, 6, Payload::from_u64(vec![c.rank() as u64 * 100]));
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![100, 200, 300]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_rejected() {
        let _ = Universe::run(2, |c| {
            c.isend(5, 0, Payload::from_f64(vec![]));
        });
    }

    #[test]
    fn iallreduce_overlaps_and_sums() {
        let out = Universe::run(3, |c| {
            let h = c.iallreduce_sum_vec(vec![c.rank() as f64, 1.0]);
            // Compute while the reduction is in flight.
            let local = c.work(|| (0..10_000).map(|i| (i as f64).sqrt()).sum::<f64>());
            assert!(local > 0.0);
            h.wait(c)
        });
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn iallreduce_multiple_in_flight() {
        let out = Universe::run(2, |c| {
            let h1 = c.iallreduce_sum_vec(vec![1.0]);
            let h2 = c.iallreduce_sum_vec(vec![10.0]);
            let a = h1.wait(c);
            let b = h2.wait(c);
            (a[0], b[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 2.0 && b == 20.0));
    }

    #[test]
    fn irecv_test_polls() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.barrier(); // ensure rank 1 polled once before the send
                c.isend(1, 8, Payload::from_u64(vec![42]));
                c.barrier();
                0
            } else {
                let h = c.irecv(0, 8);
                assert!(h.test(c).is_none());
                c.barrier();
                c.barrier();
                h.test(c).map_or(0, |p| p.into_u64()[0])
            }
        });
        assert_eq!(out[1], 42);
    }
}
