//! The map / distributed-array invariant pass.
//!
//! HYMV's correctness rests on three data structures built in setup
//! (paper Algorithms 1–2): the `E2L` map into the
//! `[pre-ghost | owned | post-ghost]` DA layout, and the LNSM/GNGM
//! communication maps. This module checks the full invariant set:
//!
//! * **`E2L` bijectivity** — `E2L` agrees entry-for-entry with `E2G`
//!   through `local_to_global` / `global_to_local`, every ghost slot is
//!   actually referenced, and the independent/dependent split is exact
//!   ([`check_maps`]).
//! * **Partition sanity** — owned node ranges tile `[0, N)` contiguously
//!   and every `E2G` entry resolves to an owner ([`check_partition`]).
//! * **LNSM/GNGM transpose duality** — scatter edges are exactly the
//!   transpose of gather edges, certified structurally (count matrices)
//!   and numerically: a scatter delivers each owner's value to every ghost
//!   slot, a gather accumulates multiplicity, and scatter-then-gather
//!   scales owned values by `1 + multiplicity` ([`check_exchange`]).
//!
//! Violations are reported as strings (one per failed invariant) so a CLI
//! or test can print them all instead of stopping at the first.

use hymv_comm::Universe;
use hymv_core::{DistArray, GhostExchange, HymvMaps};
use hymv_mesh::{MeshPartition, PartitionedMesh};

use crate::report::PassReport;

/// Check the purely local invariants of one rank's [`HymvMaps`] against the
/// partition it was built from. Returns one string per violation.
pub fn check_maps(maps: &HymvMaps, part: &MeshPartition) -> Vec<String> {
    let mut out = Vec::new();

    if let Err(e) = maps.validate() {
        out.push(format!("core validate: {e}"));
    }
    if maps.npe != part.elem_type.nodes_per_elem() || maps.n_elems != part.n_elems() {
        out.push(format!(
            "shape mismatch: maps ({} elems × {} npe) vs partition ({} × {})",
            maps.n_elems,
            maps.npe,
            part.n_elems(),
            part.elem_type.nodes_per_elem()
        ));
        return out; // entry-wise checks below would index out of bounds
    }
    if maps.node_range != part.node_range {
        out.push(format!(
            "node_range mismatch: maps {:?} vs partition {:?}",
            maps.node_range, part.node_range
        ));
    }

    // E2L ↔ E2G bijectivity, entry for entry.
    let nt = maps.n_total();
    for (k, (&l, &g)) in maps.e2l.iter().zip(&part.e2g).enumerate() {
        if (l as usize) >= nt {
            out.push(format!("e2l[{k}] = {l} out of DA bounds (n_total {nt})"));
            continue;
        }
        if maps.local_to_global(l as usize) != g {
            out.push(format!(
                "e2l[{k}] = {l} maps to global {}, but e2g[{k}] = {g}",
                maps.local_to_global(l as usize)
            ));
        }
        if maps.global_to_local(g) != Some(l as usize) {
            out.push(format!("global_to_local({g}) != Some({l}) for e2l[{k}]"));
        }
    }

    // Ghost minimality: every pre/post slot is referenced by some element.
    let mut referenced = vec![false; nt];
    for &l in &maps.e2l {
        if (l as usize) < nt {
            referenced[l as usize] = true;
        }
    }
    let n_pre = maps.gpre.len();
    let owned = n_pre..n_pre + maps.n_owned();
    for (l, seen) in referenced.iter().enumerate() {
        if !owned.contains(&l) && !seen {
            out.push(format!(
                "ghost slot {l} (global {}) is in the DA but referenced by no element",
                maps.local_to_global(l)
            ));
        }
    }

    // Independent/dependent split is exactly "touches a ghost or not",
    // in element order.
    let mut want_ind = Vec::new();
    let mut want_dep = Vec::new();
    for e in 0..maps.n_elems {
        let all_owned = maps
            .elem_local_nodes(e)
            .iter()
            .all(|&l| owned.contains(&(l as usize)));
        if all_owned {
            want_ind.push(e as u32);
        } else {
            want_dep.push(e as u32);
        }
    }
    if maps.independent != want_ind {
        out.push(format!(
            "independent set wrong: {} elements listed, {} expected",
            maps.independent.len(),
            want_ind.len()
        ));
    }
    if maps.dependent != want_dep {
        out.push(format!(
            "dependent set wrong: {} elements listed, {} expected",
            maps.dependent.len(),
            want_dep.len()
        ));
    }

    out
}

/// Check global partition invariants plus every rank's local maps.
/// Purely offline — no communication.
pub fn check_partition(pm: &PartitionedMesh) -> PassReport {
    let mut report = PassReport::new("map/DA invariants");
    let p = pm.n_parts();
    if p == 0 {
        report.violations.push("partition has no ranks".into());
        return report;
    }
    let n_global = pm.parts[0].n_global_nodes;

    // Owned ranges tile [0, n_global) contiguously in rank order.
    let mut cursor = 0u64;
    for (r, part) in pm.parts.iter().enumerate() {
        if part.rank != r {
            report
                .violations
                .push(format!("rank {r}: part records rank {}", part.rank));
        }
        if part.n_global_nodes != n_global {
            report.violations.push(format!(
                "rank {r}: n_global_nodes {} disagrees with rank 0's {n_global}",
                part.n_global_nodes
            ));
        }
        let (b, e) = part.node_range;
        if b != cursor || e < b {
            report.violations.push(format!(
                "rank {r}: owned range [{b}, {e}) does not continue from {cursor}"
            ));
        }
        cursor = e;
        if let Some(&bad) = part.e2g.iter().find(|&&g| g >= n_global) {
            report
                .violations
                .push(format!("rank {r}: e2g references node {bad} >= {n_global}"));
        }
    }
    if cursor != n_global {
        report.violations.push(format!(
            "owned ranges cover [0, {cursor}) but the mesh has {n_global} nodes"
        ));
    }

    // Per-rank map invariants.
    for (r, part) in pm.parts.iter().enumerate() {
        let maps = HymvMaps::build(part);
        report.absorb(&format!("rank {r}"), check_maps(&maps, part));
    }
    report
}

/// Build the LNSM/GNGM on every rank and certify the transpose duality,
/// structurally and numerically. Spawns a [`Universe`] with `pm.n_parts()`
/// thread-ranks (collective map construction needs live communication).
pub fn check_exchange(pm: &PartitionedMesh) -> PassReport {
    let p = pm.n_parts();
    // Reference multiplicity: how many ranks ghost each global node.
    let mut ghosted_by = vec![0u64; pm.parts[0].n_global_nodes as usize];
    for part in &pm.parts {
        let maps = HymvMaps::build(part);
        for &g in maps.gpre.iter().chain(&maps.gpost) {
            ghosted_by[g as usize] += 1;
        }
    }
    let ghosted_by = &ghosted_by;

    let per_rank: Vec<Vec<String>> = Universe::run(p, |comm| {
        let me = comm.rank();
        let mut bad = Vec::new();
        let part = &pm.parts[me];
        let maps = HymvMaps::build(part);
        let ex = GhostExchange::build(comm, &maps);

        let n_pre = maps.gpre.len();
        let n_owned = maps.n_owned();
        let nt = maps.n_total();
        let owned = n_pre..n_pre + n_owned;

        // Everyone learns everyone's owned range (for owner resolution).
        let ranges = comm.allgather_u64(vec![maps.node_range.0, maps.node_range.1]);

        // LNSM structure: targets are real other ranks; scattered nodes are
        // owned; no node is scattered twice to the same neighbour.
        for (dst, locals) in ex.send_plan() {
            if *dst >= p || *dst == me {
                bad.push(format!("send plan targets invalid rank {dst}"));
            }
            let mut seen = std::collections::HashSet::new();
            for &l in locals {
                if !owned.contains(&(l as usize)) {
                    bad.push(format!("send plan to {dst} scatters non-owned DA slot {l}"));
                }
                if !seen.insert(l) {
                    bad.push(format!("send plan to {dst} scatters DA slot {l} twice"));
                }
            }
        }

        // GNGM structure: sources are real other ranks; ranges sit inside
        // the ghost blocks, are disjoint, cover every ghost, and each slot's
        // global id lies in the claimed owner's range.
        let mut covered = vec![false; nt];
        for (owner, range) in ex.recv_plan() {
            if *owner >= p || *owner == me {
                bad.push(format!("recv plan names invalid owner {owner}"));
                continue;
            }
            let in_pre = range.start < n_pre && range.end <= n_pre;
            let in_post = range.start >= n_pre + n_owned && range.end <= nt;
            if !(in_pre || in_post) {
                bad.push(format!("recv range {range:?} not inside a ghost block"));
                continue;
            }
            for l in range.clone() {
                if covered[l] {
                    bad.push(format!("ghost slot {l} covered by two recv ranges"));
                }
                covered[l] = true;
                let g = maps.local_to_global(l);
                let (ob, oe) = (ranges[*owner][0], ranges[*owner][1]);
                if g < ob || g >= oe {
                    bad.push(format!(
                        "ghost slot {l} (global {g}) assigned to owner {owner} \
                         whose range is [{ob}, {oe})"
                    ));
                }
            }
        }
        for (l, c) in covered.iter().enumerate() {
            if !owned.contains(&l) && !c {
                bad.push(format!("ghost slot {l} not covered by any recv range"));
            }
        }

        // Transpose duality, count level: sends(o → r) == recvs(r ← o).
        let mut send_counts = vec![0u64; p];
        for (dst, locals) in ex.send_plan() {
            send_counts[*dst] += locals.len() as u64;
        }
        let mut recv_counts = vec![0u64; p];
        for (owner, range) in ex.recv_plan() {
            recv_counts[*owner] += range.len() as u64;
        }
        let mut mine = send_counts;
        mine.extend(recv_counts);
        let all = comm.allgather_u64(mine);
        for o in 0..p {
            for r in 0..p {
                let sends = all[o][r];
                let recvs = all[r][p + o];
                if sends != recvs {
                    bad.push(format!(
                        "edge asymmetry: rank {o} scatters {sends} nodes to rank {r}, \
                         which gathers {recvs} from {o}"
                    ));
                }
            }
        }

        // Numerical probe 1 — scatter identity: owners send global ids, so
        // afterwards every DA slot (owned and ghost) holds its own id. This
        // also certifies *membership and order* of the plans, which the
        // count check above cannot.
        let mut da = DistArray::new(&maps, 1);
        da.data[..n_pre].fill(-1.0);
        da.data[n_pre + n_owned..].fill(-1.0);
        for i in 0..n_owned {
            da.data[n_pre + i] = (maps.node_range.0 + i as u64) as f64;
        }
        ex.scatter_begin(comm, &da);
        ex.scatter_end(comm, &mut da);
        for l in 0..nt {
            let want = maps.local_to_global(l) as f64;
            if da.data[l] != want {
                bad.push(format!(
                    "scatter identity broken: DA slot {l} holds {} instead of global id {want}",
                    da.data[l]
                ));
            }
        }

        // Numerical probe 2 — gather multiplicity: 1.0 in every ghost slot
        // accumulates to the number of ghosting ranks at the owner.
        let mut da = DistArray::new(&maps, 1);
        da.data[..n_pre].fill(1.0);
        da.data[n_pre + n_owned..].fill(1.0);
        ex.gather_begin(comm, &da);
        ex.gather_end(comm, &mut da);
        for i in 0..n_owned {
            let g = maps.node_range.0 + i as u64;
            let want = ghosted_by[g as usize] as f64;
            if da.data[n_pre + i] != want {
                bad.push(format!(
                    "gather multiplicity broken: node {g} accumulated {} from {} ghosting ranks",
                    da.data[n_pre + i],
                    ghosted_by[g as usize]
                ));
            }
        }

        // Numerical probe 3 — scatter-then-gather: with owned value v(g),
        // the round trip yields v(g) · (1 + multiplicity(g)).
        let v_of = |g: u64| 1.0 + (g % 7) as f64;
        let mut da = DistArray::new(&maps, 1);
        for i in 0..n_owned {
            da.data[n_pre + i] = v_of(maps.node_range.0 + i as u64);
        }
        ex.scatter_begin(comm, &da);
        ex.scatter_end(comm, &mut da);
        ex.gather_begin(comm, &da);
        let mut acc = da.clone();
        ex.gather_end(comm, &mut acc);
        for i in 0..n_owned {
            let g = maps.node_range.0 + i as u64;
            let want = v_of(g) * (1.0 + ghosted_by[g as usize] as f64);
            if acc.data[n_pre + i] != want {
                bad.push(format!(
                    "scatter∘gather duality broken at node {g}: got {}, want {want}",
                    acc.data[n_pre + i]
                ));
            }
        }

        bad
    });

    let mut report = PassReport::new("LNSM/GNGM transpose duality");
    for (r, vs) in per_rank.into_iter().enumerate() {
        report.absorb(&format!("rank {r}"), vs);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_mesh::partition::partition_mesh;
    use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};

    fn pm(n: usize, p: usize, method: PartitionMethod) -> PartitionedMesh {
        let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
        partition_mesh(&mesh, p, method)
    }

    #[test]
    fn single_rank_passes() {
        let pm = pm(3, 1, PartitionMethod::Slabs);
        assert!(check_partition(&pm).is_clean());
        assert!(check_exchange(&pm).is_clean());
    }

    #[test]
    fn phantom_ghost_rejected() {
        let pm = pm(4, 3, PartitionMethod::Slabs);
        let part = &pm.parts[2];
        let mut maps = HymvMaps::build(part);
        // Claim a ghost no element references: depending on the rank's
        // range this trips either the gpost range check or ghost minimality.
        maps.gpost.push(part.n_global_nodes - 1);
        let bad = check_maps(&maps, part);
        assert!(!bad.is_empty(), "phantom ghost accepted");
    }

    #[test]
    fn misclassified_element_rejected() {
        let pm = pm(4, 3, PartitionMethod::Slabs);
        let part = &pm.parts[1];
        let mut maps = HymvMaps::build(part);
        assert!(
            !maps.dependent.is_empty(),
            "need a dependent element to move"
        );
        let e = maps.dependent.remove(0);
        maps.independent.push(e);
        maps.independent.sort_unstable();
        let bad = check_maps(&maps, part);
        assert!(
            bad.iter()
                .any(|v| v.contains("independent") || v.contains("dependent")),
            "{bad:?}"
        );
    }

    #[test]
    fn broken_range_tiling_rejected() {
        let mut pm = pm(3, 2, PartitionMethod::Slabs);
        pm.parts[1].node_range.0 += 1; // gap between rank 0 and rank 1
        let report = check_partition(&pm);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("does not continue")),
            "{report}"
        );
    }
}
