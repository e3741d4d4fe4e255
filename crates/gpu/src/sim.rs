//! The discrete-event device: streams, engines, and the event timeline.
//!
//! CUDA semantics reproduced here: operations issued to one stream execute
//! in order; operations in different streams may overlap, but each
//! *engine* (H2D copy, compute, D2H copy) serializes the operations it
//! executes. This is exactly the mechanism that makes the paper's
//! multi-stream pipeline (Fig 3) overlap transfers with kernels.

use std::sync::Arc;

use crate::model::GpuModel;

/// Operation classes, one per hardware engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Host→device copy engine.
    H2D,
    /// Compute (kernel) engine.
    Kernel,
    /// Device→host copy engine.
    D2H,
}

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Stream index.
    pub stream: usize,
    /// Engine used.
    pub kind: EventKind,
    /// Start time, seconds from device epoch.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Human-readable label (shared, so a label built once is reused
    /// without allocating).
    pub label: Arc<str>,
}

/// The simulated device.
pub struct DeviceSim {
    model: GpuModel,
    /// Per-stream completion cursor.
    streams: Vec<f64>,
    /// Per-engine completion cursor: [H2D, Kernel, D2H].
    engines: [f64; 3],
    /// Every operation scheduled in the current window.
    events: Vec<TraceEvent>,
    /// Epoch: current window start.
    epoch: f64,
    /// Submission floor: operations may not start before this window time
    /// (models host-side submission that happens after other work).
    floor: f64,
}

impl DeviceSim {
    /// A device with `n_streams` streams.
    pub fn new(model: GpuModel, n_streams: usize) -> Self {
        assert!(n_streams > 0, "need at least one stream");
        DeviceSim {
            model,
            streams: vec![0.0; n_streams],
            engines: [0.0; 3],
            events: Vec::new(),
            epoch: 0.0,
            floor: 0.0,
        }
    }

    /// The cost model.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Stream count.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    fn engine_idx(kind: EventKind) -> usize {
        match kind {
            EventKind::H2D => 0,
            EventKind::Kernel => 1,
            EventKind::D2H => 2,
        }
    }

    /// Schedule an operation of `duration` on `stream`; returns its end
    /// time. The start is `max(stream cursor, engine cursor)` — stream
    /// order plus engine serialization.
    pub fn schedule(
        &mut self,
        stream: usize,
        kind: EventKind,
        duration: f64,
        label: impl Into<Arc<str>>,
    ) -> f64 {
        assert!(stream < self.streams.len(), "stream {stream} out of range");
        assert!(duration >= 0.0, "negative duration");
        let e = Self::engine_idx(kind);
        let start = self.streams[stream]
            .max(self.engines[e])
            .max(self.epoch)
            .max(self.floor);
        let end = start + duration;
        self.streams[stream] = end;
        self.engines[e] = end;
        self.events.push(TraceEvent {
            stream,
            kind,
            start,
            end,
            label: label.into(),
        });
        end
    }

    /// Host→device transfer of `bytes` on `stream`.
    pub fn h2d(&mut self, stream: usize, bytes: usize, label: impl Into<Arc<str>>) -> f64 {
        let d = self.model.h2d_time(bytes);
        self.schedule(stream, EventKind::H2D, d, label)
    }

    /// Kernel of `flops`/`bytes` on `stream`.
    pub fn kernel(
        &mut self,
        stream: usize,
        flops: u64,
        bytes: usize,
        label: impl Into<Arc<str>>,
    ) -> f64 {
        let d = self.model.kernel_time(flops, bytes);
        self.schedule(stream, EventKind::Kernel, d, label)
    }

    /// Device→host transfer of `bytes` on `stream`.
    pub fn d2h(&mut self, stream: usize, bytes: usize, label: impl Into<Arc<str>>) -> f64 {
        let d = self.model.d2h_time(bytes);
        self.schedule(stream, EventKind::D2H, d, label)
    }

    /// Device-wide completion time of everything scheduled so far.
    pub fn now(&self) -> f64 {
        self.streams.iter().copied().fold(self.epoch, f64::max)
    }

    /// Makespan of the current window (since the last `begin_window`).
    pub fn window_elapsed(&self) -> f64 {
        self.now() - self.epoch
    }

    /// Start a new timing window: subsequent operations start no earlier
    /// than the device-wide completion of prior work. The previous
    /// window's events are dropped, so a long solve keeps one apply's.
    pub fn begin_window(&mut self) {
        self.events.clear();
        let now = self.now();
        self.epoch = now;
        self.floor = now;
        for s in &mut self.streams {
            *s = now;
        }
        for e in &mut self.engines {
            *e = now;
        }
    }

    /// Raise the submission floor to window time `t` (absolute time
    /// `epoch + t`): subsequent operations cannot start earlier — they were
    /// not yet submitted by the host.
    pub fn set_submission_floor(&mut self, t: f64) {
        self.floor = self.floor.max(self.epoch + t);
    }

    /// The events of the current window.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Room for `n` events in a window without growing the timeline.
    pub(crate) fn reserve_events(&mut self, n: usize) {
        self.events.reserve(n.saturating_sub(self.events.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_model() -> GpuModel {
        GpuModel {
            h2d_bw: 1e9,
            d2h_bw: 1e9,
            dev_bw: 10e9,
            flop_rate: 1e12,
            launch_latency: 0.0,
            transfer_latency: 0.0,
            csr_efficiency: 0.35,
        }
    }

    #[test]
    fn single_stream_serializes() {
        let mut sim = DeviceSim::new(fixed_model(), 1);
        sim.h2d(0, 1_000_000_000, "a"); // 1 s
        sim.kernel(0, 0, 10_000_000_000, "k"); // 1 s
        sim.d2h(0, 1_000_000_000, "b"); // 1 s
        assert!((sim.now() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_streams_pipeline() {
        // Two chunks, each H2D (1s) → kernel (1s) → D2H (1s).
        // One stream: 6 s. Two streams: the copy engines and compute
        // overlap, makespan 4 s.
        let chunk = |sim: &mut DeviceSim, s: usize| {
            sim.h2d(s, 1_000_000_000, "h");
            sim.kernel(s, 0, 10_000_000_000, "k");
            sim.d2h(s, 1_000_000_000, "d");
        };
        let mut one = DeviceSim::new(fixed_model(), 1);
        chunk(&mut one, 0);
        chunk(&mut one, 0);
        assert!((one.now() - 6.0).abs() < 1e-12);

        let mut two = DeviceSim::new(fixed_model(), 2);
        chunk(&mut two, 0);
        chunk(&mut two, 1);
        assert!((two.now() - 4.0).abs() < 1e-12, "got {}", two.now());
    }

    #[test]
    fn engines_serialize_across_streams() {
        // Two H2D ops on different streams still share the copy engine.
        let mut sim = DeviceSim::new(fixed_model(), 2);
        sim.h2d(0, 1_000_000_000, "a");
        sim.h2d(1, 1_000_000_000, "b");
        assert!((sim.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn windows_isolate_timing() {
        let mut sim = DeviceSim::new(fixed_model(), 2);
        sim.h2d(0, 1_000_000_000, "setup");
        sim.begin_window();
        assert_eq!(sim.window_elapsed(), 0.0);
        sim.h2d(1, 2_000_000_000, "spmv");
        assert!((sim.window_elapsed() - 2.0).abs() < 1e-12);
        assert!((sim.now() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn events_recorded_with_times() {
        let mut sim = DeviceSim::new(fixed_model(), 1);
        sim.h2d(0, 500_000_000, "x");
        sim.kernel(0, 0, 5_000_000_000, "y");
        let ev = sim.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, EventKind::H2D);
        assert!((ev[0].end - 0.5).abs() < 1e-12);
        assert!((ev[1].start - 0.5).abs() < 1e-12);
        assert_eq!(&*ev[1].label, "y");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_stream_rejected() {
        let mut sim = DeviceSim::new(fixed_model(), 1);
        sim.h2d(3, 10, "oops");
    }
}
