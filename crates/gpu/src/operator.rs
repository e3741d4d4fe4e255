//! [`HymvGpuOperator`] — Algorithm 3 and its overlap schemes (§IV-F, §V-D).
//!
//! Algorithm 3 is Algorithm 2 with the element products moved to the
//! device, so the operator runs `hymv-core`'s one schedule ([`apply`])
//! with the device as its element source: element matrices live "on the
//! device" (uploaded once at setup, like the paper's MAGMA arrays); each
//! element set's batch input `bue` is packed on the host (OpenMP-parallel
//! in the paper) and pipelined H2D → batched-EMV → D2H in chunks across
//! `Ns` streams, and `bve` is accumulated on the host after the device
//! sync. The schedule supplies the ghost exchange, the degraded-channel
//! fallback and the flop counter, as it does for the CPU operators.
//!
//! Numerics execute on the host, bit-exact with the CPU operator: the
//! independent panels are accumulated before the dependent ones, the CPU
//! loop's order. The virtual clock is charged with the *modeled* device
//! makespan plus the measured host pack/accumulate time.

use std::ops::Range;

use hymv_comm::{assert_thread_count, Comm};
use hymv_core::block::{BlockPlan, SlabMatrices};
use hymv_core::da::DistArray;
use hymv_core::exchange::GhostExchange;
use hymv_core::operator::{HymvOperator, SetupTimings};
use hymv_core::schedule::{apply, ElementSource, Overlap};
use hymv_fem::kernel::ElementKernel;
use hymv_la::dense::{emv_batch_flops, select_batch_kernel, EmvBatchKernel};
use hymv_la::LinOp;
use hymv_mesh::MeshPartition;

use crate::model::GpuModel;
use crate::sim::{DeviceSim, EventKind};
use hymv_trace::Phase;

/// The three distributed execution schemes compared in Fig 8b. Each is
/// an [`Overlap`] policy of the one schedule plus where the dependent
/// elements run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuScheme {
    /// Scheme 1 — blocking MPI exchange, then all elements on the device.
    Blocking,
    /// Scheme 2 — GPU/CPU(O): non-blocking exchange overlapped by the
    /// device computing independent elements while the *host* computes
    /// dependent elements.
    OverlapCpu,
    /// Scheme 3 — GPU/GPU(O): non-blocking exchange overlapped by the
    /// device computing independent elements, dependent elements follow on
    /// the device.
    OverlapGpu,
}

/// Invoke the selected batched EMV kernel on one block's slabs.
///
/// The only values ever stored in `batch_kernel` are the `emv_batch_*`
/// kernels from `hymv-la` — pure computation over bounds-checked lane
/// chunks — so effect inference may
/// pin this dispatch point pure instead of widening the fn-pointer call
/// to ⊤ (which would spuriously flag the overlap window above it).
// verify: pure
fn dispatch_batch_kernel(
    kernel: EmvBatchKernel,
    keb: &[f64],
    ue: &[f64],
    ve: &mut [f64],
    nd: usize,
    bw: usize,
) {
    kernel(keb, ue, ve, nd, bw);
}

/// HYMV's GPU SPMV operator.
pub struct HymvGpuOperator {
    exchange: GhostExchange,
    u: DistArray,
    v: DistArray,
    device: DevicePanels,
    /// One-time device upload cost paid at setup (part of "GPU setup").
    upload_s: f64,
}

/// Algorithm 3's element source: the plan's slabs resident on the device,
/// fed with host-packed panels through the device's `Ns` streams (the
/// streams belong to the source, not to the schedule).
struct DevicePanels {
    sim: DeviceSim,
    scheme: GpuScheme,
    /// Modeled host ("OpenMP") threads for pack/accumulate and Scheme 2's
    /// host EMVs.
    host_threads: usize,
    /// The CPU operator's block plan: its batch-interleaved slabs are the
    /// device-resident matrices (the only copy kept), its panels the
    /// staging layout.
    plan: BlockPlan,
    batch_kernel: EmvBatchKernel,
    /// Batched input/output panels, `n_blocks_total × nd × bw` (pinned
    /// memory in the paper); dependent blocks follow independent ones.
    bue: Vec<f64>,
    bve: Vec<f64>,
    /// This apply's open device window: the virtual time and the device
    /// time it opened at.
    window: Option<(f64, f64)>,
}

impl HymvGpuOperator {
    /// GPU setup: the CPU HYMV setup plus a one-time H2D upload of the
    /// block plan's matrix slabs and gather tables (the overhead that makes
    /// GPU setup slightly slower than CPU setup in Fig 8). Collective.
    ///
    /// # Panics
    /// On `host_threads == 0`, before any work — never a silent clamp.
    pub fn setup(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
        model: GpuModel,
        n_streams: usize,
        scheme: GpuScheme,
        host_threads: usize,
    ) -> (Self, SetupTimings) {
        assert_thread_count(host_threads);
        let (cpu_op, mut timings) = HymvOperator::setup(comm, part, kernel);
        // The device works on the interleaved block slabs the CPU setup
        // built.
        let (maps, exchange, plan, ndof) = cpu_op.into_parts();

        // Upload what the device kernels consume: the interleaved matrix
        // slabs as the plan holds them (lower triangles only when every
        // `Ke` is bitwise symmetric) plus the gather tables. The per-apply
        // kernel model below keeps the paper's batched-GEMV traffic (each
        // matrix read in full).
        let (upload_s, vt) = (model.h2d_time(plan.device_bytes()), comm.vt());
        comm.add_modeled_time(upload_s);
        let label = "upload element matrices";
        hymv_trace::gpu_span(0, Phase::GpuUpload, label, vt, vt + upload_s);
        // Report the upload inside the setup breakdown's copy component.
        timings.local_copy_s += upload_s;

        let n_batch = plan.n_blocks_total() * plan.set(false).panel_len();
        let op = HymvGpuOperator {
            u: DistArray::new(&maps, ndof),
            v: DistArray::new(&maps, ndof),
            exchange,
            device: DevicePanels {
                sim: DeviceSim::new(model, n_streams),
                scheme,
                host_threads,
                batch_kernel: select_batch_kernel(plan.batch_width()),
                plan,
                bue: vec![0.0; n_batch],
                bve: vec![0.0; n_batch],
                window: None,
            },
            upload_s,
        };
        (op, timings)
    }

    /// The block plan (device layout).
    pub fn plan(&self) -> &BlockPlan {
        &self.device.plan
    }

    /// The device timeline (Fig 3 traces).
    pub fn sim(&self) -> &DeviceSim {
        &self.device.sim
    }

    /// The one-time upload cost paid at setup.
    pub fn upload_seconds(&self) -> f64 {
        self.upload_s
    }

    /// The element matrices (device-resident in the paper), read back
    /// from the plan's slabs.
    pub fn store(&self) -> SlabMatrices<'_> {
        self.device.plan.slab_matrices()
    }

    /// Algorithm 3 with the selected overlap scheme: the one schedule over
    /// the device panels. Scheme 1 runs it blocking; Schemes 2 and 3 run
    /// it overlapped, and blocking once the reliable channel has degraded.
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        let overlap = match self.device.scheme {
            GpuScheme::Blocking => Overlap::Blocking,
            GpuScheme::OverlapCpu | GpuScheme::OverlapGpu => Overlap::Overlapped,
        };
        let flops = self.flops_per_apply();
        self.u.set_owned(x);
        let (u, v) = (&mut self.u, &mut self.v);
        apply(comm, &self.exchange, overlap, &mut self.device, u, v, flops);
        y.copy_from_slice(self.v.owned());
    }
}

impl ElementSource for DevicePanels {
    /// The independent set is packed and submitted, so the device runs
    /// while the exchange is in flight — Scheme 1 only packs it and
    /// submits both sets with the dependent one. The dependent set is
    /// packed and submitted behind it (Schemes 1 and 3) or computed on the
    /// host (Scheme 2); then the host syncs with the device and
    /// accumulates the independent panels, then the dependent ones.
    fn run_element_set(
        &mut self,
        comm: &mut Comm,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
    ) {
        self.pack(comm, dependent, u);
        match (dependent, self.scheme) {
            (false, GpuScheme::Blocking) => return,
            (false, _) => {
                self.open_window(comm);
                self.submit_batch(false, "indep");
                return;
            }
            (true, GpuScheme::Blocking) => {
                self.open_window(comm);
                self.submit_batch(false, "all");
                self.submit_batch(true, "all");
            }
            (true, GpuScheme::OverlapCpu) => {
                // The host computes the dependent elements while the
                // device finishes the independent batch.
                let blocks = 0..self.plan.set(true).n_blocks();
                comm.work_smp(self.host_threads, || self.emv_panels(true, blocks));
            }
            (true, GpuScheme::OverlapGpu) => {
                // Dependent blocks follow on the device; they cannot start
                // before the host submitted them (post-exchange).
                let (anchor_vt, ..) = self.window.expect("the independent set opened it");
                self.sim.set_submission_floor(comm.vt() - anchor_vt);
                self.submit_batch(true, "dep");
            }
        }
        // Sync with the device.
        let (anchor_vt, _) = self.window.take().expect("the device window is open");
        let device_done = anchor_vt + self.sim.window_elapsed();
        if device_done > comm.vt() {
            comm.add_modeled_time(device_done - comm.vt());
        }
        self.accumulate(comm, false, v);
        self.accumulate(comm, true, v);
    }
}

impl DevicePanels {
    /// The span of one block subset's panels inside `bue`/`bve`.
    fn panels(&self, dependent: bool) -> Range<usize> {
        let indep = self.plan.set(false).n_blocks() * self.plan.set(false).panel_len();
        if dependent {
            indep..self.bue.len()
        } else {
            0..indep
        }
    }

    /// Pack `bue` panels for one block subset (host side, charged as SMP
    /// work) through the plan's flattened gather tables.
    fn pack(&mut self, comm: &mut Comm, dependent: bool, u: &DistArray) {
        let span = self.panels(dependent);
        let (set, bue) = (self.plan.set(dependent), &mut self.bue[span]);
        comm.work_smp(self.host_threads, || {
            for (k, ue) in bue.chunks_exact_mut(set.panel_len()).enumerate() {
                set.gather(k, &u.data, ue);
            }
        });
    }

    /// Accumulate `bve` panels of one block subset into `v` (host side).
    fn accumulate(&mut self, comm: &mut Comm, dependent: bool, v: &mut DistArray) {
        let set = self.plan.set(dependent);
        let bve = &self.bve[self.panels(dependent)];
        comm.work_smp(self.host_threads, || {
            for (k, ve) in bve.chunks_exact(set.panel_len()).enumerate() {
                set.scatter_with(k, ve, |i, val| v.data[i] += val);
            }
        });
    }

    /// `bve = Ke · bue` on blocks `ks` of one subset: the device kernel's
    /// numerics, or Scheme 2's host EMVs.
    fn emv_panels(&mut self, dependent: bool, ks: Range<usize>) {
        let (nd, bw) = (self.plan.nd(), self.plan.batch_width());
        let set = self.plan.set(dependent);
        let (pl, base) = (set.panel_len(), self.panels(dependent).start);
        for k in ks {
            let off = base + k * pl;
            let (ue, ve) = (&self.bue[off..off + pl], &mut self.bve[off..off + pl]);
            dispatch_batch_kernel(self.batch_kernel, set.keb(k), ue, ve, nd, bw);
        }
    }

    /// Open the device window at the current virtual time.
    fn open_window(&mut self, comm: &Comm) {
        self.sim.begin_window();
        self.window = Some((comm.vt(), self.sim.now()));
    }

    /// Submit one block subset to the device as `Ns` pipelined chunks of
    /// whole blocks and execute the numerics on the host. Device time
    /// accrues on the simulator timeline; its events are final once
    /// scheduled, so they are mirrored onto the merged trace right away.
    ///
    /// Allocation waiver: the `format!`ed stream labels feed the device
    /// simulator's event timeline and the trace — O(Ns) small strings per
    /// matvec, observability only, never on the numeric path.
    // verify: allow(allocates)
    fn submit_batch(&mut self, dependent: bool, label: &str) {
        let nb = self.plan.set(dependent).n_blocks();
        if nb == 0 {
            return;
        }
        let mark = self.sim.events().len();
        let (nd, bw) = (self.plan.nd(), self.plan.batch_width());
        let pl = self.plan.set(dependent).panel_len();
        let chunk = nb.div_ceil(self.sim.n_streams());
        for (s, start) in (0..nb).step_by(chunk).enumerate() {
            let ks = start..(start + chunk).min(nb);
            let vec_bytes = ks.len() * pl * 8;
            // The modeled kernel executes every lane, padding included.
            let lanes = ks.len() * bw;
            let model = *self.sim.model();
            self.sim.h2d(s, vec_bytes, format!("{label} bue s{s}"));
            self.sim.kernel(
                s,
                model.batched_emv_flops(lanes, nd),
                model.batched_emv_bytes(lanes, nd),
                format!("{label} batched EMV s{s}"),
            );
            self.sim.d2h(s, vec_bytes, format!("{label} bve s{s}"));
            // Bit-exact numerics on the host (emulation, not charged).
            self.emv_panels(dependent, ks);
        }
        if !hymv_trace::enabled() {
            return;
        }
        // The window opened at device time `dev0`, virtual time `vt0`.
        let (vt0, dev0) = self.window.expect("submissions happen in an open window");
        for e in &self.sim.events()[mark..] {
            let phase = match e.kind {
                EventKind::H2D => Phase::GpuH2D,
                EventKind::Kernel => Phase::GpuKernel,
                EventKind::D2H => Phase::GpuD2H,
            };
            let (t0, t1) = (vt0 + (e.start - dev0), vt0 + (e.end - dev0));
            hymv_trace::gpu_span(e.stream, phase, &e.label, t0, t1);
        }
    }
}

impl LinOp for HymvGpuOperator {
    fn n_owned(&self) -> usize {
        self.u.owned().len()
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        // Every lane executes, padding included.
        let plan = &self.device.plan;
        plan.n_blocks_total() as u64 * emv_batch_flops(plan.nd(), plan.batch_width())
    }

    fn storage_bytes(&self) -> usize {
        let d = &self.device;
        d.plan.bytes() + (d.bue.len() + d.bve.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::{ElasticityKernel, PoissonKernel};
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    const SCHEMES: [GpuScheme; 3] = [
        GpuScheme::Blocking,
        GpuScheme::OverlapCpu,
        GpuScheme::OverlapGpu,
    ];

    /// Every scheme accumulates in the CPU loop's order, so every scheme
    /// produces the CPU operator's bits.
    #[test]
    fn gpu_matches_cpu_all_schemes() {
        let hex8 = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let hex20 = StructuredHexMesh::unit(3, ElementType::Hex20).build();
        for p in [1, 2] {
            for (mesh, elasticity) in [(&hex8, false), (&hex20, true)] {
                let pm = partition_mesh(mesh, p, PartitionMethod::Slabs);
                let out = Universe::run(p, |comm| {
                    let part = &pm.parts[comm.rank()];
                    let kernel: Box<dyn ElementKernel> = if elasticity {
                        let f = [0.0, 0.0, -1.0];
                        Box::new(ElasticityKernel::new(ElementType::Hex20, 100.0, 0.3, f))
                    } else {
                        Box::new(PoissonKernel::new(ElementType::Hex8))
                    };
                    let (mut cpu, _) = HymvOperator::setup(comm, part, &*kernel);
                    let x: Vec<f64> = (0..cpu.n_owned())
                        .map(|i| ((i * 3 % 13) as f64) * 0.3 - 1.0)
                        .collect();
                    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let mut y = vec![0.0; cpu.n_owned()];
                    cpu.matvec(comm, &x, &mut y);
                    let want = bits(&y);
                    SCHEMES.map(|scheme| {
                        let model = GpuModel::default();
                        let (mut gpu, _) =
                            HymvGpuOperator::setup(comm, part, &*kernel, model, 4, scheme, 4);
                        gpu.matvec(comm, &x, &mut y);
                        bits(&y) == want
                    })
                });
                for (rank, same) in out.iter().enumerate() {
                    assert_eq!(
                        same, &[true; 3],
                        "p {p}, rank {rank}, elasticity {elasticity}"
                    );
                }
            }
        }
    }

    /// Each apply publishes its flops; under dropped envelopes every
    /// scheme degrades to the blocking schedule, re-arms after a
    /// timeout-free apply, and keeps the clean run's bits throughout.
    #[test]
    fn gpu_apply_counts_flops_degrades_and_rearms() {
        use hymv_comm::{FaultPlan, RetryPolicy, RunConfig};
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let cfg = |fault: Option<FaultPlan>| RunConfig {
            fault,
            retry: RetryPolicy {
                degrade_after: 1,
                rearm_after: 1,
                ..RetryPolicy::default()
            },
            trace: fault.is_none(),
            ..RunConfig::default()
        };
        for scheme in SCHEMES {
            // Per apply: (result bits, timeouts seen, degraded afterwards).
            let program = |comm: &mut Comm| {
                let (kernel, part) = (
                    PoissonKernel::new(ElementType::Hex8),
                    &pm.parts[comm.rank()],
                );
                let model = GpuModel::default();
                let (mut gpu, _) = HymvGpuOperator::setup(comm, part, &kernel, model, 2, scheme, 1);
                let x: Vec<f64> = (0..gpu.n_owned()).map(|i| (i as f64 * 0.4).cos()).collect();
                let mut y = vec![0.0; gpu.n_owned()];
                let applies = (0..16)
                    .map(|_| {
                        let t0 = comm.stats().timeouts;
                        gpu.matvec(comm, &x, &mut y);
                        let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                        let out = (bits, comm.stats().timeouts - t0, comm.degraded());
                        // A rank that is done may not leave while its peer
                        // can still need one of its envelopes resent.
                        comm.barrier();
                        out
                    })
                    .collect::<Vec<_>>();
                (applies, 16 * gpu.flops_per_apply())
            };
            let session = hymv_trace::TraceSession::begin();
            let (clean, _) = Universe::run_configured(cfg(None), 2, program);
            let counted = session
                .finish()
                .metrics
                .counter_total("hymv_emv_flops_total");
            assert_eq!(counted, clean[0].1 + clean[1].1, "{scheme:?}");
            let plan = FaultPlan::new(3).with_drop(0.2);
            let (faulted, _) = Universe::run_chaos(cfg(Some(plan)), 2, program);
            let mut rearms = 0;
            for (rank, res) in faulted.into_iter().enumerate() {
                let (applies, _) = res.expect("drops heal within the retry budget");
                for (k, (bits, timeouts, degraded)) in applies.iter().enumerate() {
                    assert!(
                        bits == &clean[rank].0[k].0,
                        "{scheme:?} rank {rank} apply {k}"
                    );
                    if *timeouts == 0 {
                        assert!(!degraded, "{scheme:?} rank {rank} apply {k}: degraded");
                        rearms += usize::from(k > 0 && applies[k - 1].2);
                    }
                }
            }
            assert!(rearms > 0, "{scheme:?}: no rank degraded and then re-armed");
        }
    }

    /// Same batch, 1 vs 8 streams: pipelining must shrink device time,
    /// and the chunks spread across streams and all three engines.
    /// Latencies are zeroed so the payload (not per-op overhead) dominates
    /// even on this test-sized mesh; at paper-scale batches the default
    /// model shows the same effect (fig8 -- streams).
    #[test]
    fn more_streams_reduce_makespan() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex20).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let model = GpuModel {
            launch_latency: 0.0,
            transfer_latency: 0.0,
            ..GpuModel::default()
        };
        let out = Universe::run(1, |comm| {
            let kernel = ElasticityKernel::new(ElementType::Hex20, 100.0, 0.3, [0.0, 0.0, -1.0]);
            [1usize, 8].map(|ns| {
                let (mut gpu, _) = HymvGpuOperator::setup(
                    comm,
                    &pm.parts[0],
                    &kernel,
                    model,
                    ns,
                    GpuScheme::Blocking,
                    1,
                );
                let (x, mut y) = (vec![1.0; gpu.n_owned()], vec![0.0; gpu.n_owned()]);
                gpu.matvec(comm, &x, &mut y);
                gpu.sim().events().to_vec()
            })
        });
        let makespan = |ev: &[crate::sim::TraceEvent]| {
            let t0 = ev.iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
            ev.iter().map(|e| e.end).fold(0.0, f64::max) - t0
        };
        let [one, eight] = &out[0];
        let (m1, m8) = (makespan(one), makespan(eight));
        assert!(m8 < m1 * 0.85, "8 streams {m8} must beat 1 stream {m1}");
        for kind in [EventKind::H2D, EventKind::Kernel, EventKind::D2H] {
            assert!(eight.iter().any(|e| e.kind == kind), "no {kind:?} event");
        }
        assert!(eight.iter().any(|e| e.stream > 0));
    }

    #[test]
    fn setup_includes_upload() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let (kernel, model) = (PoissonKernel::new(ElementType::Hex8), GpuModel::default());
            let scheme = GpuScheme::Blocking;
            let (gpu, t) = HymvGpuOperator::setup(comm, &pm.parts[0], &kernel, model, 2, scheme, 1);
            // What goes up is the device layout: slabs + gather tables.
            (
                t.local_copy_s,
                gpu.upload_seconds(),
                gpu.plan().device_bytes(),
            )
        });
        let (copy, upload, bytes) = out[0];
        // The setup's copy component carries the modeled upload on top of
        // the host-side local copy.
        assert_eq!(upload, GpuModel::default().h2d_time(bytes));
        assert!(
            copy >= upload,
            "copy component {copy} includes the upload {upload}"
        );
    }
}
