//! The shared-memory ("OpenMP") threads of the local elemental loop
//! (paper §IV-E), and the per-element loop the block engine is tested
//! against.
//!
//! A rank runs one element loop: [`crate::block::BlockPlan::run_serial`]
//! (or its SpMM twin) on the calling thread. The threads a rank would
//! spread that loop over are a *modeled* count: the virtual-time ledger
//! divides the loop's measured CPU time by the Amdahl speedup of that many
//! threads (`hymv_comm::CostModel::smp_speedup`), exactly as the GPU
//! operator models its host threads. The result's bits therefore never
//! depend on the thread count — only the charged time does.

use hymv_la::dense::emv_portable;
use hymv_la::ElementMatrixStore;

use crate::da::DistArray;
use crate::maps::HymvMaps;

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
}
