//! Per-rank virtual-time accounting.
//!
//! Each rank tracks a virtual clock `vt` combining *measured* compute time
//! (per-thread CPU clock, immune to the host's time-sharing) with *modeled*
//! communication time (α-β model). See the crate docs for the rationale.

/// Parameters of the communication / shared-memory cost model.
///
/// Defaults approximate the paper's testbed fabric (Mellanox HDR100 to the
/// node): ~2 µs short-message latency and ~12 GB/s effective point-to-point
/// bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-message latency in seconds (α).
    pub alpha: f64,
    /// Bandwidth in bytes/second (β).
    pub beta: f64,
    /// Sender-side injection overhead per message, in seconds.
    pub send_overhead: f64,
    /// Serial fraction used by the Amdahl model for `work_smp` — shared
    /// memory ("OpenMP") sections are modeled because the host has a single
    /// core. The paper's elemental loops are embarrassingly parallel, so the
    /// serial fraction is small.
    pub smp_serial_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: 2.0e-6,
            beta: 12.0e9,
            send_overhead: 0.4e-6,
            smp_serial_fraction: 0.05,
        }
    }
}

impl CostModel {
    /// Modeled transit time of one message carrying `bytes`.
    pub fn transit(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 / self.beta
    }

    /// Modeled speedup of a perfectly-balanced elemental loop on `t` threads
    /// — exactly 1.0 at one thread, whatever the serial fraction.
    ///
    /// # Panics
    /// On 0 threads (see [`assert_thread_count`]).
    pub fn smp_speedup(&self, threads: usize) -> f64 {
        assert_thread_count(threads);
        let t = threads as f64;
        1.0 / (self.smp_serial_fraction + (1.0 - self.smp_serial_fraction) / t)
    }
}

/// Reject a modeled thread count of 0 — never a silent clamp to 1.
///
/// # Panics
/// If `threads` is 0, with a message naming the value.
pub fn assert_thread_count(threads: usize) {
    assert!(
        threads >= 1,
        "thread count {threads} is invalid: a rank runs its element loop on at least 1 thread"
    );
}

/// Read the calling thread's CPU time in seconds.
///
/// Uses `CLOCK_THREAD_CPUTIME_ID` so that concurrent thread-ranks
/// time-sharing one physical core each still observe only their own work.
#[allow(unsafe_code)] // sole FFI call in the crate; SAFETY argument below
pub fn thread_cpu_time() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a Linux
    // constant. clock_gettime never retains the pointer.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Per-tag traffic breakdown kept alongside the scalar counters. The
/// aggregate [`CommStats`] stays a flat `Copy` snapshot; tag-resolved
/// numbers live in this side table (see [`Ledger::tag_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Bytes sent under this tag.
    pub bytes_sent: u64,
    /// Messages sent under this tag.
    pub msgs_sent: u64,
    /// Bytes received under this tag.
    pub bytes_recv: u64,
    /// Messages received under this tag.
    pub msgs_recv: u64,
}

/// Virtual-time ledger of a single rank.
#[derive(Debug, Clone)]
pub struct Ledger {
    model: CostModel,
    /// Virtual clock, seconds since `Universe::run` entry.
    vt: f64,
    compute_s: f64,
    comm_wait_s: f64,
    bytes_sent: u64,
    bytes_recv: u64,
    msgs_sent: u64,
    msgs_recv: u64,
    sends_confirmed: u64,
    retries: u64,
    timeouts: u64,
    dups_suppressed: u64,
    corrupt_detected: u64,
    tags: std::collections::BTreeMap<u32, TagStats>,
}

impl Ledger {
    pub(crate) fn new(model: CostModel) -> Self {
        Ledger {
            model,
            vt: 0.0,
            compute_s: 0.0,
            comm_wait_s: 0.0,
            bytes_sent: 0,
            bytes_recv: 0,
            msgs_sent: 0,
            msgs_recv: 0,
            sends_confirmed: 0,
            retries: 0,
            timeouts: 0,
            dups_suppressed: 0,
            corrupt_detected: 0,
            tags: std::collections::BTreeMap::new(),
        }
    }

    /// Current virtual time in seconds.
    pub fn vt(&self) -> f64 {
        self.vt
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Advance the clock by a measured compute duration.
    pub fn add_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= -1e-9, "negative compute duration {seconds}");
        let s = seconds.max(0.0);
        self.vt += s;
        self.compute_s += s;
    }

    /// Record a send of `bytes` under `tag`: pays sender overhead, returns
    /// the modeled arrival timestamp to stamp on the message.
    pub(crate) fn on_send(&mut self, tag: u32, bytes: usize) -> f64 {
        self.vt += self.model.send_overhead;
        self.bytes_sent += bytes as u64;
        self.msgs_sent += 1;
        let t = self.tags.entry(tag).or_default();
        t.bytes_sent += bytes as u64;
        t.msgs_sent += 1;
        self.vt + self.model.transit(bytes)
    }

    /// Record the completion of a receive under `tag` whose message arrives
    /// (in virtual time) at `arrival_vt`.
    pub(crate) fn on_recv_complete(&mut self, arrival_vt: f64, tag: u32, bytes: usize) {
        if arrival_vt > self.vt {
            self.comm_wait_s += arrival_vt - self.vt;
            self.vt = arrival_vt;
        }
        self.bytes_recv += bytes as u64;
        self.msgs_recv += 1;
        let t = self.tags.entry(tag).or_default();
        t.bytes_recv += bytes as u64;
        t.msgs_recv += 1;
    }

    /// Synchronize with a collective whose participants' maximum virtual
    /// time is `max_vt`, over `size` ranks (costed as a binomial tree).
    pub(crate) fn on_collective(&mut self, max_vt: f64, size: usize) {
        let depth = (usize::BITS - (size.max(1) - 1).leading_zeros()) as f64;
        let t = max_vt + depth * self.model.alpha;
        if t > self.vt {
            self.comm_wait_s += t - self.vt;
            self.vt = t;
        }
    }

    /// Record the confirmed completion of a buffered send
    /// (`SendHandle::wait`).
    pub(crate) fn on_send_confirmed(&mut self) {
        self.sends_confirmed += 1;
    }

    /// Record one retransmission request plus its virtual-time backoff
    /// (charged as communication wait — the rank is stalled on recovery).
    pub(crate) fn on_retry(&mut self, backoff_s: f64) {
        debug_assert!(backoff_s >= 0.0, "negative backoff {backoff_s}");
        self.retries += 1;
        self.vt += backoff_s;
        self.comm_wait_s += backoff_s;
    }

    /// Record an observed message-loss timeout (a tombstone arrival).
    pub(crate) fn on_timeout(&mut self) {
        self.timeouts += 1;
    }

    /// Record a suppressed duplicate envelope.
    pub(crate) fn on_dup_suppressed(&mut self) {
        self.dups_suppressed += 1;
    }

    /// Record a detected in-flight payload corruption.
    pub(crate) fn on_corrupt_detected(&mut self) {
        self.corrupt_detected += 1;
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CommStats {
        CommStats {
            vt: self.vt,
            compute_s: self.compute_s,
            comm_wait_s: self.comm_wait_s,
            bytes_sent: self.bytes_sent,
            bytes_recv: self.bytes_recv,
            msgs_sent: self.msgs_sent,
            msgs_recv: self.msgs_recv,
            sends_confirmed: self.sends_confirmed,
            retries: self.retries,
            timeouts: self.timeouts,
            dups_suppressed: self.dups_suppressed,
            corrupt_detected: self.corrupt_detected,
        }
    }

    /// Per-tag traffic breakdown, keyed by message tag.
    pub fn tag_stats(&self) -> &std::collections::BTreeMap<u32, TagStats> {
        &self.tags
    }

    /// Reset all counters and the clock to zero (used between timed phases).
    pub fn reset(&mut self) {
        *self = Ledger::new(self.model);
    }
}

/// A snapshot of one rank's communication/computation counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommStats {
    /// Virtual time (seconds).
    pub vt: f64,
    /// Measured compute seconds (thread CPU time).
    pub compute_s: f64,
    /// Modeled seconds spent waiting for messages/collectives.
    pub comm_wait_s: f64,
    /// Bytes sent by this rank.
    pub bytes_sent: u64,
    /// Bytes received by this rank.
    pub bytes_recv: u64,
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Messages received by this rank.
    pub msgs_recv: u64,
    /// Sends whose completion was confirmed via `SendHandle::wait`.
    pub sends_confirmed: u64,
    /// Retransmission requests issued by the reliable envelope layer.
    pub retries: u64,
    /// Message-loss timeouts observed (tombstone arrivals).
    pub timeouts: u64,
    /// Duplicate envelopes suppressed by sequence numbers.
    pub dups_suppressed: u64,
    /// In-flight payload corruptions caught by the envelope checksum.
    pub corrupt_detected: u64,
}

impl CommStats {
    /// Fold another rank's stats into an aggregate: `vt`, compute and wait
    /// take the max (critical path); byte/message counters add.
    pub fn fold_max(&mut self, other: &CommStats) {
        self.vt = self.vt.max(other.vt);
        self.compute_s = self.compute_s.max(other.compute_s);
        self.comm_wait_s = self.comm_wait_s.max(other.comm_wait_s);
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.sends_confirmed += other.sends_confirmed;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.dups_suppressed += other.dups_suppressed;
        self.corrupt_detected += other.corrupt_detected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_is_monotone_and_advances_under_work() {
        let t0 = thread_cpu_time();
        // Burn a little CPU.
        let mut acc = 0.0f64;
        for i in 0..200_000 {
            acc += (i as f64).sqrt();
        }
        assert!(acc > 0.0);
        let t1 = thread_cpu_time();
        assert!(t1 >= t0);
        assert!(t1 - t0 < 5.0, "implausibly long: {}", t1 - t0);
    }

    #[test]
    fn cost_model_transit() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 1e9,
            send_overhead: 0.0,
            smp_serial_fraction: 0.05,
        };
        let t = m.transit(1_000_000);
        assert!((t - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn smp_speedup_amdahl() {
        let m = CostModel {
            smp_serial_fraction: 0.0,
            ..Default::default()
        };
        assert!((m.smp_speedup(8) - 8.0).abs() < 1e-12);
        let m = CostModel {
            smp_serial_fraction: 1.0,
            ..Default::default()
        };
        assert!((m.smp_speedup(8) - 1.0).abs() < 1e-12);
        let m = CostModel::default();
        let s = m.smp_speedup(14);
        assert!(s > 1.0 && s < 14.0);
        // One thread charges a loop exactly its measured time: `s + (1 − s)`
        // rounds to 1 for every serial fraction in [0, 1].
        for k in 0..=1000 {
            let m = CostModel {
                smp_serial_fraction: f64::from(k) / 1000.0,
                ..Default::default()
            };
            assert_eq!(m.smp_speedup(1), 1.0, "serial fraction {k}/1000");
        }
    }

    #[test]
    fn ledger_send_recv_overlap() {
        let model = CostModel {
            alpha: 1e-3,
            beta: 1e9,
            send_overhead: 0.0,
            smp_serial_fraction: 0.0,
        };
        let mut sender = Ledger::new(model);
        let arrival = sender.on_send(7, 8_000); // transit = 1e-3 + 8e-6
        assert!(arrival > 1e-3);

        // Receiver that waits immediately pays the latency...
        let mut idle = Ledger::new(model);
        idle.on_recv_complete(arrival, 7, 8_000);
        assert!(idle.stats().comm_wait_s > 0.0);
        assert!((idle.vt() - arrival).abs() < 1e-15);

        // ...while a receiver that computed past the arrival pays nothing.
        let mut busy = Ledger::new(model);
        busy.add_compute(1.0);
        busy.on_recv_complete(arrival, 7, 8_000);
        assert_eq!(busy.stats().comm_wait_s, 0.0);
        assert!((busy.vt() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn collective_sync_takes_max() {
        let model = CostModel::default();
        let mut a = Ledger::new(model);
        a.add_compute(0.5);
        a.on_collective(2.0, 4);
        assert!(a.vt() >= 2.0);
        let behind_by = a.stats().comm_wait_s;
        assert!(behind_by >= 1.5);
    }

    #[test]
    fn stats_fold() {
        let model = CostModel::default();
        let mut a = Ledger::new(model);
        a.add_compute(1.0);
        let _ = a.on_send(3, 100);
        let mut b = Ledger::new(model);
        b.add_compute(2.0);
        let mut agg = a.stats();
        agg.fold_max(&b.stats());
        assert!((agg.compute_s - 2.0).abs() < 1e-15);
        assert_eq!(agg.msgs_sent, 1);
    }

    #[test]
    fn reset_clears_counters() {
        let mut l = Ledger::new(CostModel::default());
        l.add_compute(1.0);
        let _ = l.on_send(64, 64);
        l.reset();
        assert_eq!(l.stats(), CommStats::default());
        assert!(l.tag_stats().is_empty());
    }

    #[test]
    fn per_tag_breakdown_tracks_both_directions() {
        let model = CostModel::default();
        let mut l = Ledger::new(model);
        let a1 = l.on_send(0x0C01, 100);
        let _ = l.on_send(0x0C01, 50);
        let a2 = l.on_send(0x0C02, 8);
        l.on_recv_complete(a1, 0x0C01, 100);
        l.on_recv_complete(a2, 0x0C02, 8);
        let tags = l.tag_stats();
        let scatter = tags[&0x0C01];
        assert_eq!(scatter.bytes_sent, 150);
        assert_eq!(scatter.msgs_sent, 2);
        assert_eq!(scatter.bytes_recv, 100);
        assert_eq!(scatter.msgs_recv, 1);
        let gather = tags[&0x0C02];
        assert_eq!(gather.msgs_sent, 1);
        assert_eq!(gather.msgs_recv, 1);
        // The flat aggregate still matches the tag totals.
        let s = l.stats();
        assert_eq!(s.bytes_sent, 158);
        assert_eq!(s.msgs_recv, 2);
    }
}
