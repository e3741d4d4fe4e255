//! Shared-memory ("OpenMP") parallelization of the local elemental loop
//! (paper §IV-E), and the per-element loop the block engine is tested
//! against.
//!
//! The EMV loop accumulates element vectors into a shared DA, so naïve
//! parallelization races on shared nodes. The block engine
//! ([`crate::block::BlockPlan`]) provides two standard strategies at block
//! granularity (compared by the `ablation` bench):
//!
//! * **Block coloring** — blocks are greedily colored so that no two
//!   blocks of a color share a dof; within a color the loop is
//!   embarrassingly parallel and writes directly to the shared DA.
//! * **Chunk-private accumulation** — each worker accumulates into a
//!   private buffer; buffers are summed afterwards. No coloring setup, but
//!   `O(threads × n_total)` extra memory traffic.
//!
//! On this reproduction host (one physical core) rayon degenerates to one
//! worker; the virtual-time ledger models the multi-thread speedup (see
//! `hymv_comm::CostModel::smp_speedup`). The code itself is correct,
//! data-race-free parallel Rust on any host.

use hymv_la::dense::emv_portable;
use hymv_la::ElementMatrixStore;

use crate::da::DistArray;
use crate::maps::HymvMaps;

std::thread_local! {
    /// A per-rank rayon pool whose only worker is the rank's own thread
    /// (`use_current_thread`). Two reasons: the rank's CPU-time clock then
    /// sees all the elemental work (the virtual-time ledger divides it by
    /// the modeled thread count), and concurrent thread-ranks don't
    /// serialize through the shared global pool.
    static RANK_POOL: rayon::ThreadPool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .use_current_thread()
        .build()
        .expect("per-rank rayon pool");
}

/// Run a rayon section on the rank-local pool.
pub(crate) fn on_rank_pool<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    RANK_POOL.with(|p| p.install(f))
}

/// How the local elemental loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMode {
    /// One thread (the paper's pure-MPI configuration).
    Serial,
    /// Rayon over color classes with direct shared writes.
    Colored {
        /// Modeled thread count (OpenMP threads per MPI rank).
        threads: usize,
    },
    /// Rayon with per-worker private accumulation buffers.
    ChunkPrivate {
        /// Modeled thread count.
        threads: usize,
    },
}

impl ParallelMode {
    /// The modeled thread count (1 for serial).
    pub fn threads(&self) -> usize {
        match *self {
            ParallelMode::Serial => 1,
            ParallelMode::Colored { threads } | ParallelMode::ChunkPrivate { threads } => threads,
        }
    }
}

/// The per-element reference loop over a subset:
/// `v(E2L[e]) += Ke · u(E2L[e])`, one [`emv_portable`] per element. No
/// operator runs it; tests compare the block engine against it.
// verify: kernel-entry
pub fn emv_loop_serial(
    maps: &HymvMaps,
    store: &ElementMatrixStore,
    u: &DistArray,
    v: &mut DistArray,
    subset: &[u32],
    ue: &mut [f64],
    ve: &mut [f64],
) {
    for &e in subset {
        let nodes = maps.elem_local_nodes(e as usize);
        u.extract_elem(nodes, ue);
        emv_portable(store.ke(e as usize), ue, ve);
        v.accumulate_elem(nodes, ve);
    }
}

/// A `*mut f64` wrapper that lets color-disjoint writers share a slice.
pub(crate) struct RacyTarget {
    ptr: *mut f64,
}

// SAFETY: writers touch disjoint index sets (guaranteed by block coloring), so
// concurrent access through the raw pointer is race-free.
#[allow(unsafe_code)]
unsafe impl Sync for RacyTarget {}
// SAFETY: the pointer's referent is owned by the caller for the whole call.
#[allow(unsafe_code)]
unsafe impl Send for RacyTarget {}

impl RacyTarget {
    /// Wrap a shared accumulation target.
    pub(crate) fn new(ptr: *mut f64) -> Self {
        RacyTarget { ptr }
    }

    /// Accumulate into slot `idx`.
    ///
    /// # Safety
    /// Callers must guarantee no concurrent access to the same `idx`
    /// (here: block coloring).
    #[inline]
    #[allow(unsafe_code)] // SAFETY: the raw write behind the colored block loop; contract above
    pub(crate) unsafe fn add(&self, idx: usize, val: f64) {
        *self.ptr.add(idx) += val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_subset_is_noop() {
        use hymv_mesh::partition::{partition_mesh, PartitionMethod};
        use hymv_mesh::{ElementType, StructuredHexMesh};
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let mut store = ElementMatrixStore::new(8, maps.n_elems);
        for e in 0..maps.n_elems {
            store.ke_mut(e).fill(1.0);
        }
        let mut u = DistArray::new(&maps, 1);
        u.data.fill(1.0);
        let mut v = DistArray::new(&maps, 1);
        emv_loop_serial(&maps, &store, &u, &mut v, &[], &mut [0.0; 8], &mut [0.0; 8]);
        assert!(v.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mode_thread_counts() {
        assert_eq!(ParallelMode::Serial.threads(), 1);
        assert_eq!(ParallelMode::Colored { threads: 14 }.threads(), 14);
        assert_eq!(ParallelMode::ChunkPrivate { threads: 4 }.threads(), 4);
    }
}
