//! Property-based tests of the map invariant pass: maps built by
//! Algorithm 1 over *random* meshes and partitions are always accepted,
//! and randomly mutated maps are always rejected.

use proptest::prelude::*;

use hymv_check::{check_maps, check_partition};
use hymv_core::HymvMaps;
use hymv_mesh::partition::partition_mesh;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

fn method(sel: u8) -> PartitionMethod {
    match sel % 3 {
        0 => PartitionMethod::Slabs,
        1 => PartitionMethod::Rcb,
        _ => PartitionMethod::GreedyGraph,
    }
}

fn elem(sel: u8) -> ElementType {
    match sel % 3 {
        0 => ElementType::Hex8,
        1 => ElementType::Hex20,
        _ => ElementType::Hex27,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Soundness of the pass itself: correctly built maps over any mesh
    /// size, element type, rank count, and partitioner are violation-free.
    #[test]
    fn built_maps_always_accepted(
        n in 2usize..5,
        p in 1usize..5,
        m_sel in 0u8..3,
        e_sel in 0u8..3,
    ) {
        let mesh = StructuredHexMesh::unit(n, elem(e_sel)).build();
        let pm = partition_mesh(&mesh, p, method(m_sel));
        let report = check_partition(&pm);
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Completeness against E2L corruption: redirecting any single
    /// element-node entry to a different (still in-bounds) DA slot is
    /// always detected.
    #[test]
    fn corrupted_e2l_always_rejected(
        n in 2usize..5,
        p in 2usize..5,
        m_sel in 0u8..3,
        rank_sel in 0usize..64,
        entry_sel in 0usize..100_000,
        bump in 1u32..4,
    ) {
        let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, p, method(m_sel));
        let part = &pm.parts[rank_sel % pm.n_parts()];
        let mut maps = HymvMaps::build(part);
        prop_assert!(check_maps(&maps, part).is_empty());
        let k = entry_sel % maps.e2l.len();
        // bump < 4 ≤ n_total, so the redirected slot always differs.
        maps.e2l[k] = (maps.e2l[k] + bump) % maps.n_total() as u32;
        let bad = check_maps(&maps, part);
        prop_assert!(bad.iter().any(|v| v.contains("e2l[")), "mutated e2l[{}] accepted", k);
    }

    /// Completeness against ghost-list corruption: deleting one ghost id
    /// (dangling E2L references) or duplicating one (unreferenced slot /
    /// broken sort) is always detected.
    #[test]
    fn corrupted_ghost_lists_always_rejected(
        n in 2usize..5,
        p in 2usize..5,
        rank_sel in 0usize..64,
        dup in proptest::prelude::any::<bool>(),
    ) {
        let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
        // Slabs guarantee every rank above 0 has pre-ghosts.
        let pm = partition_mesh(&mesh, p, PartitionMethod::Slabs);
        let r = 1 + rank_sel % (pm.n_parts() - 1);
        let part = &pm.parts[r];
        let mut maps = HymvMaps::build(part);
        prop_assert!(!maps.gpre.is_empty(), "slab rank {} has no pre-ghosts", r);
        if dup {
            let g = maps.gpre[0];
            maps.gpre.insert(0, g);
        } else {
            maps.gpre.remove(0);
        }
        let bad = check_maps(&maps, part);
        prop_assert!(!bad.is_empty(), "mutated gpre accepted (dup={})", dup);
    }
}
