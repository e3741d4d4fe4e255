//! [`HymvGpuOperator`] — Algorithm 3 and its overlap schemes (§IV-F, §V-D).
//!
//! Element matrices live "on the device" (uploaded once at setup, like the
//! paper's MAGMA arrays); every SPMV packs the batch input vector `bue` on
//! the host (OpenMP-parallel in the paper), pipelines
//! H2D → batched-EMV → D2H chunks across `Ns` streams, accumulates `bve`
//! on the host, and runs the usual LNSM/GNGM ghost exchange.
//!
//! Numerics execute on the host, bit-exact with the CPU operator; the
//! virtual clock is charged with the *modeled* device makespan plus the
//! measured host pack/accumulate time.

use hymv_comm::Comm;
use hymv_core::block::{batch_width_from_env, BlockPlan};
use hymv_core::da::DistArray;
use hymv_core::exchange::GhostExchange;
use hymv_core::maps::HymvMaps;
use hymv_core::operator::{HymvOperator, SetupTimings};
use hymv_fem::kernel::ElementKernel;
use hymv_la::dense::{emv_batch_flops, select_batch_kernel, EmvBatchKernel};
use hymv_la::{ElementMatrixStore, LinOp};
use hymv_mesh::MeshPartition;

use crate::model::GpuModel;
use crate::sim::{DeviceSim, EventKind};
use hymv_trace::Phase;

/// The three distributed execution schemes compared in Fig 8b.
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
/// kernels from `hymv-la` — pure computation whose lane accesses the
/// `hymv-verify` bounds interpreter certifies — so effect inference may
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
    maps: HymvMaps,
    exchange: GhostExchange,
    store: ElementMatrixStore,
    ndof: usize,
    u: DistArray,
    v: DistArray,
    sim: DeviceSim,
    scheme: GpuScheme,
    /// Modeled host ("OpenMP") threads for pack/accumulate.
    host_threads: usize,
    /// Block plan shared with the CPU engine: its batch-interleaved slabs
    /// are the device-resident matrices, its panels the staging layout
    /// (always present on the GPU path; `bw = 1` degenerates to
    /// per-element panels).
    plan: BlockPlan,
    batch_kernel: EmvBatchKernel,
    /// Batched input/output panels, `n_blocks_total × nd × bw` (pinned
    /// memory in the paper); dependent blocks follow independent ones.
    bue: Vec<f64>,
    bve: Vec<f64>,
    /// One-time device upload cost paid at setup (part of "GPU setup").
    upload_s: f64,
}

impl HymvGpuOperator {
    /// GPU setup: the CPU HYMV setup plus a one-time H2D upload of the
    /// element-matrix store (the overhead that makes GPU setup slightly
    /// slower than CPU setup in Fig 8). Collective.
    pub fn setup(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
        model: GpuModel,
        n_streams: usize,
        scheme: GpuScheme,
        host_threads: usize,
    ) -> (Self, SetupTimings) {
        let (cpu_op, mut timings) = HymvOperator::setup(comm, part, kernel);
        let (maps, exchange, store, ndof) = cpu_op.into_parts();

        // The device works on the interleaved block slabs; bw=1 keeps the
        // panel layout but makes it elementwise.
        let bw = batch_width_from_env();
        let plan = comm.work(|| {
            let mut p = BlockPlan::build(&maps, ndof, bw);
            p.attach_store(&store);
            p
        });

        let mut sim = DeviceSim::new(model, n_streams);
        let anchor_vt = comm.vt();
        sim.begin_window();
        // Upload what the device kernels consume: the interleaved matrix
        // slabs as the plan holds them (lower triangles only when every
        // `Ke` is bitwise symmetric) plus the gather tables. The per-apply
        // kernel model below keeps the paper's batched-GEMV traffic (each
        // matrix read in full).
        sim.h2d(0, plan.device_bytes(), "upload element matrices");
        let upload_s = sim.window_elapsed();
        comm.add_modeled_time(upload_s);
        hymv_trace::gpu_span(
            0,
            Phase::GpuUpload,
            "upload element matrices",
            anchor_vt,
            anchor_vt + upload_s,
        );
        // Report the upload inside the setup breakdown's copy component.
        timings.local_copy_s += upload_s;

        let n_batch = plan.n_blocks_total() * plan.set(false).panel_len();
        let u = DistArray::new(&maps, ndof);
        let v = DistArray::new(&maps, ndof);
        let op = HymvGpuOperator {
            maps,
            exchange,
            store,
            ndof,
            u,
            v,
            sim,
            scheme,
            host_threads,
            plan,
            batch_kernel: select_batch_kernel(bw),
            bue: vec![0.0; n_batch],
            bve: vec![0.0; n_batch],
            upload_s,
        };
        (op, timings)
    }

    /// The block plan (device layout).
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Panel offset of block `k` of a subset inside `bue`/`bve`
    /// (dependent blocks are stored after all independent ones).
    fn panel_offset(&self, dependent: bool, k: usize) -> usize {
        let base = if dependent {
            self.plan.set(false).n_blocks()
        } else {
            0
        };
        (base + k) * self.plan.set(false).panel_len()
    }

    /// The device timeline (Fig 3 traces).
    pub fn sim(&self) -> &DeviceSim {
        &self.sim
    }

    /// Mutable device access (clearing traces between phases).
    pub fn sim_mut(&mut self) -> &mut DeviceSim {
        &mut self.sim
    }

    /// The one-time upload cost paid at setup.
    pub fn upload_seconds(&self) -> f64 {
        self.upload_s
    }

    /// The element-matrix store (device-resident in the paper).
    pub fn store(&self) -> &ElementMatrixStore {
        &self.store
    }

    /// The maps.
    pub fn maps(&self) -> &HymvMaps {
        &self.maps
    }

    /// Change the execution scheme.
    pub fn set_scheme(&mut self, scheme: GpuScheme) {
        self.scheme = scheme;
    }

    /// Pack `bue` panels for one block subset (host side, charged as SMP
    /// work) through the plan's flattened gather tables.
    fn pack(&mut self, comm: &mut Comm, dependent: bool) {
        let set = self.plan.set(dependent);
        let pl = set.panel_len();
        let base = self.panel_offset(dependent, 0);
        let (u, bue) = (&self.u, &mut self.bue);
        comm.work_smp(self.host_threads, || {
            for k in 0..set.n_blocks() {
                let off = base + k * pl;
                set.gather(k, &u.data, &mut bue[off..off + pl]);
            }
        });
    }

    /// Accumulate `bve` panels of one block subset into `v` (host side).
    fn accumulate(&mut self, comm: &mut Comm, dependent: bool) {
        let set = self.plan.set(dependent);
        let pl = set.panel_len();
        let base = self.panel_offset(dependent, 0);
        let (v, bve) = (&mut self.v, &self.bve);
        comm.work_smp(self.host_threads, || {
            for k in 0..set.n_blocks() {
                let off = base + k * pl;
                set.scatter_with(k, &bve[off..off + pl], |i, val| v.data[i] += val);
            }
        });
    }

    /// Submit one block subset to the device as `Ns` pipelined chunks of
    /// whole blocks and execute the numerics on the host. Returns nothing;
    /// device time accrues on the simulator timeline.
    ///
    /// Allocation waiver: the `format!`ed stream labels feed the device
    /// simulator's event timeline — O(Ns) small strings per matvec,
    /// observability only, never on the numeric path.
    // verify: allow(allocates)
    fn submit_batch(&mut self, dependent: bool, label: &str) {
        let set = self.plan.set(dependent);
        if set.is_empty() {
            return;
        }
        let (nd, bw) = (self.plan.nd(), self.plan.batch_width());
        let pl = set.panel_len();
        let base = self.panel_offset(dependent, 0);
        let nb = set.n_blocks();
        let ns = self.sim.n_streams();
        let chunk = nb.div_ceil(ns);
        for (s, start) in (0..nb).step_by(chunk).enumerate() {
            let ks = start..(start + chunk).min(nb);
            let vec_bytes = ks.len() * pl * 8;
            // The modeled kernel executes every lane, padding included.
            let lanes = ks.len() * bw;
            self.sim.h2d(s, vec_bytes, format!("{label} bue s{s}"));
            self.sim.kernel(
                s,
                self.sim.model().batched_emv_flops(lanes, nd),
                self.sim.model().batched_emv_bytes(lanes, nd),
                format!("{label} batched EMV s{s}"),
            );
            self.sim.d2h(s, vec_bytes, format!("{label} bve s{s}"));
            // Bit-exact numerics on the host (emulation, not charged).
            for k in ks {
                let off = base + k * pl;
                dispatch_batch_kernel(
                    self.batch_kernel,
                    set.keb(k),
                    &self.bue[off..off + pl],
                    &mut self.bve[off..off + pl],
                    nd,
                    bw,
                );
            }
        }
    }

    /// Mirror the device events scheduled since index `mark` onto the
    /// merged trace: the current window began at device time `dev0`,
    /// which corresponds to virtual time `anchor_vt` on this rank.
    fn emit_device_spans(&self, mark: usize, dev0: f64, anchor_vt: f64) {
        if !hymv_trace::enabled() {
            return;
        }
        for e in &self.sim.events()[mark..] {
            let phase = match e.kind {
                EventKind::H2D => Phase::GpuH2D,
                EventKind::Kernel => Phase::GpuKernel,
                EventKind::D2H => Phase::GpuD2H,
            };
            hymv_trace::gpu_span(
                e.stream,
                phase,
                &e.label,
                anchor_vt + (e.start - dev0),
                anchor_vt + (e.end - dev0),
            );
        }
    }

    /// Host-side EMV for one block subset (scheme 2's dependent elements),
    /// charged as host SMP work, accumulating directly into `v`.
    fn host_emv(&mut self, comm: &mut Comm, dependent: bool) {
        let (plan, kernel) = (&self.plan, self.batch_kernel);
        let pl = plan.set(dependent).panel_len();
        let (u, v) = (&self.u, &mut self.v);
        comm.work_smp(self.host_threads, || {
            let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
            plan.run_serial(dependent, u, v, kernel, &mut ue, &mut ve);
        });
    }

    /// Algorithm 3 (with the selected overlap scheme).
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.v.fill_zero();
        self.u.set_owned(x);

        match self.scheme {
            GpuScheme::Blocking => {
                // Blocking exchange, then everything on the device.
                self.exchange.scatter_begin(comm, &self.u);
                self.exchange.scatter_end(comm, &mut self.u);
                self.pack(comm, false);
                self.pack(comm, true);
                let anchor_vt = comm.vt();
                let mark = self.sim.events().len();
                self.sim.begin_window();
                let dev0 = self.sim.now();
                self.submit_batch(false, "all");
                self.submit_batch(true, "all");
                let dt = self.sim.window_elapsed();
                comm.add_modeled_time(dt);
                self.emit_device_spans(mark, dev0, anchor_vt);
                self.accumulate(comm, false);
                self.accumulate(comm, true);
            }
            GpuScheme::OverlapCpu | GpuScheme::OverlapGpu => {
                self.exchange.scatter_begin(comm, &self.u);

                // Pack + submit independent blocks; device runs while the
                // exchange is in flight.
                self.pack(comm, false);
                let anchor_vt = comm.vt();
                let mark = self.sim.events().len();
                self.sim.begin_window();
                let dev0 = self.sim.now();
                self.submit_batch(false, "indep");

                // Complete the exchange (host may wait; device keeps going).
                self.exchange.scatter_end(comm, &mut self.u);

                if self.scheme == GpuScheme::OverlapCpu {
                    // Host computes dependent elements while the device
                    // finishes the independent batch.
                    self.host_emv(comm, true);
                    // Sync with the device.
                    let device_done = anchor_vt + self.sim.window_elapsed();
                    if device_done > comm.vt() {
                        comm.add_modeled_time(device_done - comm.vt());
                    }
                    self.emit_device_spans(mark, dev0, anchor_vt);
                    self.accumulate(comm, false);
                } else {
                    // Dependent blocks follow on the device; they cannot
                    // start before the host submitted them (post-exchange).
                    self.pack(comm, true);
                    self.sim.set_submission_floor(comm.vt() - anchor_vt);
                    self.submit_batch(true, "dep");
                    let device_done = anchor_vt + self.sim.window_elapsed();
                    if device_done > comm.vt() {
                        comm.add_modeled_time(device_done - comm.vt());
                    }
                    self.emit_device_spans(mark, dev0, anchor_vt);
                    self.accumulate(comm, false);
                    self.accumulate(comm, true);
                }
            }
        }

        self.exchange.gather_begin(comm, &self.v);
        self.exchange.gather_end(comm, &mut self.v);
        y.copy_from_slice(self.v.owned());
    }
}

impl LinOp for HymvGpuOperator {
    fn n_owned(&self) -> usize {
        self.maps.n_owned() * self.ndof
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        // Every lane executes, padding included.
        self.plan.n_blocks_total() as u64 * emv_batch_flops(self.plan.nd(), self.plan.batch_width())
    }

    fn storage_bytes(&self) -> usize {
        self.store.bytes() + self.plan.bytes() + (self.bue.len() + self.bve.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::{ElasticityKernel, PoissonKernel};
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    #[test]
    fn gpu_matches_cpu_all_schemes() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        for scheme in [
            GpuScheme::Blocking,
            GpuScheme::OverlapCpu,
            GpuScheme::OverlapGpu,
        ] {
            let ok = Universe::run(2, |comm| {
                let part = &pm.parts[comm.rank()];
                let kernel = PoissonKernel::new(ElementType::Hex8);
                let (mut cpu, _) = HymvOperator::setup(comm, part, &kernel);
                let (mut gpu, _) =
                    HymvGpuOperator::setup(comm, part, &kernel, GpuModel::default(), 4, scheme, 4);
                let x: Vec<f64> = (0..cpu.n_owned())
                    .map(|i| ((i * 3 % 13) as f64) * 0.3 - 1.0)
                    .collect();
                let mut y_c = vec![0.0; cpu.n_owned()];
                let mut y_g = vec![0.0; gpu.n_owned()];
                cpu.matvec(comm, &x, &mut y_c);
                gpu.matvec(comm, &x, &mut y_g);
                y_c.iter().zip(&y_g).all(|(a, b)| (a - b).abs() < 1e-12)
            });
            assert!(ok.iter().all(|&b| b), "{scheme:?}");
        }
    }

    #[test]
    fn more_streams_reduce_makespan() {
        // Same batch, 1 vs 8 streams: pipelining must shrink device time.
        // Latencies are zeroed so the payload (not per-op overhead)
        // dominates even on this test-sized mesh; at paper-scale batches
        // the default model shows the same effect (fig8 -- streams).
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex20).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let model = GpuModel {
            launch_latency: 0.0,
            transfer_latency: 0.0,
            ..GpuModel::default()
        };
        let out = Universe::run(1, |comm| {
            let kernel = ElasticityKernel::new(ElementType::Hex20, 100.0, 0.3, [0.0, 0.0, -1.0]);
            let mut makespans = Vec::new();
            for ns in [1usize, 8] {
                let (mut gpu, _) = HymvGpuOperator::setup(
                    comm,
                    &pm.parts[0],
                    &kernel,
                    model,
                    ns,
                    GpuScheme::Blocking,
                    1,
                );
                let x = vec![1.0; gpu.n_owned()];
                let mut y = vec![0.0; gpu.n_owned()];
                gpu.sim_mut().begin_window();
                gpu.sim_mut().clear_events();
                gpu.matvec(comm, &x, &mut y);
                // The window spans the whole matvec (begin_window inside
                // matvec resets it): use the recorded events instead.
                let ev = gpu.sim().events();
                let t0 = ev.iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
                let t1 = ev.iter().map(|e| e.end).fold(0.0, f64::max);
                makespans.push(t1 - t0);
            }
            makespans
        });
        let m = &out[0];
        assert!(
            m[1] < m[0] * 0.85,
            "8 streams {} must beat 1 stream {}",
            m[1],
            m[0]
        );
    }

    #[test]
    fn setup_includes_upload() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (_cpu, t_cpu) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            let (gpu, t_gpu) = HymvGpuOperator::setup(
                comm,
                &pm.parts[0],
                &kernel,
                GpuModel::default(),
                2,
                GpuScheme::Blocking,
                1,
            );
            // What goes up is the device layout: interleaved slabs +
            // gather tables.
            (
                t_cpu.local_copy_s,
                t_gpu.local_copy_s,
                gpu.upload_seconds(),
                gpu.plan().device_bytes(),
            )
        });
        let (_cpu_copy, gpu_copy, upload, bytes) = out[0];
        // The GPU setup's copy component carries the modeled upload on top
        // of the host-side local copy (measured CPU time is noisy across
        // the two separate runs, so only the structural relation is
        // asserted).
        let expected = GpuModel::default().h2d_time(bytes);
        assert!((upload - expected).abs() < 1e-12);
        assert!(
            gpu_copy >= upload,
            "copy component {gpu_copy} includes the upload {upload}"
        );
    }

    #[test]
    fn trace_events_cover_three_engines() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut gpu, _) = HymvGpuOperator::setup(
                comm,
                &pm.parts[0],
                &kernel,
                GpuModel::default(),
                4,
                GpuScheme::Blocking,
                1,
            );
            let x = vec![1.0; gpu.n_owned()];
            let mut y = vec![0.0; gpu.n_owned()];
            gpu.sim_mut().clear_events();
            gpu.matvec(comm, &x, &mut y);
            gpu.sim().events().to_vec()
        });
        use crate::sim::EventKind;
        let ev = &out[0];
        assert!(ev.iter().any(|e| e.kind == EventKind::H2D));
        assert!(ev.iter().any(|e| e.kind == EventKind::Kernel));
        assert!(ev.iter().any(|e| e.kind == EventKind::D2H));
        // Chunks spread across streams.
        assert!(ev.iter().any(|e| e.stream > 0));
    }
}
