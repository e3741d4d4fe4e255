//! Right-hand-side assembly and preconditioner-setup helpers shared by all
//! three methods.

use hymv_comm::{Comm, Payload};
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::{ElementMatrices, SerialCsr};
use hymv_mesh::MeshPartition;

use crate::da::DistArray;
use crate::exchange::GhostExchange;
use crate::maps::HymvMaps;
use crate::operator::KE_CHUNK;

/// Assemble the load vector `f` over owned dofs: elemental `fe`
/// accumulated through the DA, ghost contributions gathered to owners.
/// Collective.
pub fn assemble_rhs(
    comm: &mut Comm,
    maps: &HymvMaps,
    exchange: &GhostExchange,
    part: &MeshPartition,
    kernel: &dyn ElementKernel,
) -> Vec<f64> {
    let ndof = kernel.ndof_per_node();
    let nd = kernel.ndof_elem();
    let mut f = DistArray::new(maps, ndof);
    let mut fe = vec![0.0; nd];
    let mut scratch = KernelScratch::default();
    comm.work(|| {
        for e in 0..maps.n_elems {
            kernel.compute_fe(part.elem_node_coords(e), &mut fe, &mut scratch);
            f.accumulate_elem(maps.elem_local_nodes(e), &fe);
        }
    });
    exchange.gather_begin(comm, &f);
    exchange.gather_end(comm, &mut f);
    f.owned().to_vec()
}

/// Add surface-traction contributions (`∫ t̄ φ dA`, paper §V-B's loaded
/// top face) to an owned-dof load vector. Collective (ghost-node
/// contributions gather to owners).
pub fn assemble_traction(
    comm: &mut Comm,
    maps: &HymvMaps,
    exchange: &GhostExchange,
    part: &MeshPartition,
    spec: &hymv_fem::traction::TractionSpec,
    rhs: &mut [f64],
) {
    let ndof = spec.ndof();
    let et = part.elem_type;
    let mut f = DistArray::new(maps, ndof);
    let mut fe = vec![0.0; et.nodes_per_elem() * ndof];
    comm.work(|| {
        for e in 0..maps.n_elems {
            fe.fill(0.0);
            hymv_fem::traction::accumulate_traction(et, part.elem_node_coords(e), spec, &mut fe);
            f.accumulate_elem(maps.elem_local_nodes(e), &fe);
        }
    });
    exchange.gather_begin(comm, &f);
    exchange.gather_end(comm, &mut f);
    for (dst, src) in rhs.iter_mut().zip(f.owned()) {
        *dst += src;
    }
}

/// Coordinates of this rank's owned nodes, indexed `0..n_owned` (for error
/// norms against analytic solutions). Every owned node appears in at least
/// one local element (ownership = lowest touching rank), so this is local.
pub fn owned_node_coords(maps: &HymvMaps, part: &MeshPartition) -> Vec<[f64; 3]> {
    let n_pre = maps.gpre.len();
    let n_owned = maps.n_owned();
    let mut coords = vec![[f64::NAN; 3]; n_owned];
    for e in 0..maps.n_elems {
        let locals = maps.elem_local_nodes(e);
        let cs = part.elem_node_coords(e);
        for (l, c) in locals.iter().zip(cs) {
            let l = *l as usize;
            if l >= n_pre && l < n_pre + n_owned {
                coords[l - n_pre] = *c;
            }
        }
    }
    assert!(
        coords.iter().all(|c| c[0].is_finite()),
        "an owned node was referenced by no local element (broken partition)"
    );
    coords
}

/// The owned diagonal of the global operator, accumulated from stored
/// element matrices (HYMV's Jacobi setup). Collective.
pub fn jacobi_diagonal(
    comm: &mut Comm,
    maps: &HymvMaps,
    exchange: &GhostExchange,
    store: impl ElementMatrices,
    ndof: usize,
) -> Vec<f64> {
    let nd = store.ke_dim();
    let mut d = DistArray::new(maps, ndof);
    let mut scratch = vec![0.0; nd * nd];
    comm.work(|| {
        for e in 0..maps.n_elems {
            add_elem_diagonal(&mut d, maps, e, store.read_ke(e, &mut scratch), ndof);
        }
    });
    owned_sums(comm, exchange, d)
}

/// [`jacobi_diagonal`] for an operator that keeps no matrices (the
/// matrix-free one): the matrices are computed a chunk of
/// [`KE_CHUNK`] elements at a time into one reused scratch and their
/// diagonals accumulated in element order, so the result is the same to
/// the bit. Collective.
pub fn computed_jacobi_diagonal(
    comm: &mut Comm,
    maps: &HymvMaps,
    exchange: &GhostExchange,
    part: &MeshPartition,
    kernel: &dyn ElementKernel,
) -> Vec<f64> {
    let (nd, ndof) = (kernel.ndof_elem(), kernel.ndof_per_node());
    let mut d = DistArray::new(maps, ndof);
    let mut kes = vec![0.0; KE_CHUNK * nd * nd];
    let mut coords: [&[[f64; 3]]; KE_CHUNK] = [&[]; KE_CHUNK];
    let mut scratch = KernelScratch::default();
    comm.work(|| {
        for lo in (0..maps.n_elems).step_by(KE_CHUNK) {
            let chunk = lo..(lo + KE_CHUNK).min(maps.n_elems);
            for (c, e) in coords.iter_mut().zip(chunk.clone()) {
                *c = part.elem_node_coords(e);
            }
            let kes = &mut kes[..chunk.len() * nd * nd];
            kernel.compute_ke_chunk(&coords[..chunk.len()], kes, &mut scratch);
            for (e, ke) in chunk.zip(kes.chunks_exact(nd * nd)) {
                add_elem_diagonal(&mut d, maps, e, ke, ndof);
            }
        }
    });
    owned_sums(comm, exchange, d)
}

/// Add the diagonal of element `e`'s matrix `ke` to its dofs of `d`.
fn add_elem_diagonal(d: &mut DistArray, maps: &HymvMaps, e: usize, ke: &[f64], ndof: usize) {
    let nd = maps.npe * ndof;
    for (m, &l) in maps.elem_local_nodes(e).iter().enumerate() {
        for c in 0..ndof {
            let i = m * ndof + c;
            d.data[l as usize * ndof + c] += ke[i * nd + i];
        }
    }
}

/// Gather the ghost contributions of `d` to their owners and return the
/// owned entries. Collective.
fn owned_sums(comm: &mut Comm, exchange: &GhostExchange, mut d: DistArray) -> Vec<f64> {
    exchange.gather_begin(comm, &d);
    exchange.gather_end(comm, &mut d);
    d.owned().to_vec()
}

/// Assemble the **owned diagonal block** of the global matrix from stored
/// element matrices — what HYMV must build for the block-Jacobi
/// preconditioner (paper §V-F: "HYMV needs to assemble the diagonal block
/// matrix"). Entries where both dofs are owned by the *same other* rank
/// are shipped there (neighbour elements contribute to our block too), so
/// the result equals the assembled method's diagonal block exactly.
/// Entries whose row *or* column dof is constrained are replaced by the
/// identity, matching the Dirichlet wrapper. Collective.
pub fn owned_block_csr(
    comm: &mut Comm,
    maps: &HymvMaps,
    store: impl ElementMatrices,
    ndof: usize,
    constrained: &[(u32, f64)],
) -> SerialCsr {
    const TAG_BLOCK: u32 = 0x0C04;
    let n = maps.n_owned() * ndof;
    let n_pre = maps.gpre.len();
    let n_owned = maps.n_owned();
    let nd = store.ke_dim();
    let mut scratch = vec![0.0; nd * nd];
    let is_constrained = {
        let mut mask = vec![false; n];
        for &(d, _) in constrained {
            mask[d as usize] = true;
        }
        mask
    };

    // Owner lookup for ghost nodes.
    let ranges = comm.allgather_u64(vec![maps.node_range.0, maps.node_range.1]);
    let begins: Vec<u64> = ranges.iter().map(|r| r[0]).collect();
    let owner_of = |g: u64| -> usize {
        let mut r = begins.partition_point(|&b| b <= g) - 1;
        while ranges[r][0] == ranges[r][1] {
            r -= 1;
        }
        r
    };
    // Per local DA node: owning rank.
    let me = comm.rank();
    let node_owner: Vec<usize> = (0..maps.n_total())
        .map(|l| {
            if l >= n_pre && l < n_pre + n_owned {
                me
            } else {
                owner_of(maps.local_to_global(l))
            }
        })
        .collect();

    let mut triples: Vec<(u32, u32, f64)> = Vec::new();
    let mut outgoing: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); comm.size()];
    for e in 0..maps.n_elems {
        let ke = store.read_ke(e, &mut scratch);
        let locals = maps.elem_local_nodes(e);
        for (bj, &lj) in locals.iter().enumerate() {
            let oj = node_owner[lj as usize];
            for (bi, &li) in locals.iter().enumerate() {
                let oi = node_owner[li as usize];
                if oi != oj {
                    continue; // off-block coupling — dropped by block-Jacobi
                }
                for cj in 0..ndof {
                    let kcol = (bj * ndof + cj) * nd;
                    for ci in 0..ndof {
                        let v = ke[kcol + bi * ndof + ci];
                        if v == 0.0 {
                            continue;
                        }
                        if oi == me {
                            let row = ((li as usize - n_pre) * ndof + ci) as u32;
                            let col = ((lj as usize - n_pre) * ndof + cj) as u32;
                            if !is_constrained[row as usize] && !is_constrained[col as usize] {
                                triples.push((row, col, v));
                            }
                        } else {
                            let row = maps.local_to_global(li as usize) * ndof as u64 + ci as u64;
                            let col = maps.local_to_global(lj as usize) * ndof as u64 + cj as u64;
                            outgoing[oi].push((row, col, v));
                        }
                    }
                }
            }
        }
    }

    // Ship cross-rank block contributions to their owners.
    let msgs: Vec<(usize, Payload)> = outgoing
        .into_iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(rank, t)| (rank, Payload::from_triples(t)))
        .collect();
    let incoming = comm.exchange_sparse(msgs, TAG_BLOCK);
    let dof_lo = maps.node_range.0 * ndof as u64;
    for (_, payload) in incoming {
        for (row, col, v) in payload.into_triples() {
            let row = (row - dof_lo) as u32;
            let col = (col - dof_lo) as u32;
            if !is_constrained[row as usize] && !is_constrained[col as usize] {
                triples.push((row, col, v));
            }
        }
    }

    for (d, _) in constrained {
        triples.push((*d, *d, 1.0));
    }
    SerialCsr::from_triples(n, n, triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::PoissonKernel;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};
    use std::sync::Arc;

    #[test]
    fn rhs_total_equals_integral() {
        // With b(x) = 1 the assembled rhs sums to the domain volume,
        // independent of the partitioning.
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        for p in [1usize, 3] {
            let pm = partition_mesh(&mesh, p, PartitionMethod::Rcb);
            let sums = Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let kernel = PoissonKernel::with_body(ElementType::Hex8, Arc::new(|_| 1.0));
                let maps = HymvMaps::build(part);
                let ex = GhostExchange::build(comm, &maps);
                let f = assemble_rhs(comm, &maps, &ex, part, &kernel);
                let local: f64 = f.iter().sum();
                comm.allreduce_sum_f64(local)
            });
            for s in sums {
                assert!((s - 1.0).abs() < 1e-10, "p={p}: total {s}");
            }
        }
    }

    #[test]
    fn owned_coords_complete_and_correct() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex20).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::GreedyGraph);
        for part in &pm.parts {
            let maps = HymvMaps::build(part);
            let coords = owned_node_coords(&maps, part);
            assert_eq!(coords.len(), maps.n_owned());
            // Cross-check against the partition's per-element coordinates.
            for e in 0..part.n_elems() {
                for (&g, &c) in part.elem_nodes(e).iter().zip(part.elem_node_coords(e)) {
                    if g >= maps.node_range.0 && g < maps.node_range.1 {
                        assert_eq!(coords[(g - maps.node_range.0) as usize], c);
                    }
                }
            }
        }
    }

    #[test]
    fn jacobi_diag_matches_assembled() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::Slabs);
        let out = Universe::run(3, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (hymv, _) = crate::operator::HymvOperator::setup(comm, part, &kernel);
            let d_hymv = jacobi_diagonal(comm, hymv.maps(), hymv.exchange(), hymv.store(), 1);
            let (asm, _) = crate::assembled::AssembledOperator::setup(comm, part, &kernel);
            let d_asm = asm.diagonal();
            d_hymv
                .iter()
                .zip(&d_asm)
                .all(|(a, b)| (a - b).abs() < 1e-11)
        });
        assert!(out.iter().all(|&b| b));
    }

    /// The matrix-free Jacobi setup computes each `Ke` into one scratch
    /// and gives HYMV's diagonal, read back from its slabs, to the bit.
    #[test]
    fn computed_diagonal_equals_the_stored_one_bitwise() {
        use hymv_fem::ElasticityKernel;
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        for p in [1usize, 2] {
            let pm = partition_mesh(&mesh, p, PartitionMethod::GreedyGraph);
            Universe::run(p, |comm| {
                let part = &pm.parts[comm.rank()];
                let kernels: [Box<dyn ElementKernel>; 2] = [
                    Box::new(PoissonKernel::new(ElementType::Hex8)),
                    Box::new(ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3])),
                ];
                for kernel in &kernels {
                    let ndof = kernel.ndof_per_node();
                    let (op, _) = crate::operator::HymvOperator::setup(comm, part, kernel.as_ref());
                    let stored = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), ndof);
                    let computed = computed_jacobi_diagonal(
                        comm,
                        op.maps(),
                        op.exchange(),
                        part,
                        kernel.as_ref(),
                    );
                    assert_eq!(stored.len(), computed.len());
                    for (i, (a, b)) in stored.iter().zip(&computed).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "p={p} ndof={ndof} dof {i}");
                    }
                }
            });
        }
    }

    #[test]
    fn owned_block_matches_assembled_diag_block_without_constraints() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (hymv, _) = crate::operator::HymvOperator::setup(comm, part, &kernel);
            let block = owned_block_csr(comm, hymv.maps(), hymv.store(), 1, &[]);
            let (asm, _) = crate::assembled::AssembledOperator::setup(comm, part, &kernel);
            // Compare to the assembled diagonal block entry-wise.
            let n = block.n_rows();
            let mut ok = true;
            for r in 0..n {
                for c in 0..n {
                    ok &= (block.get(r, c) - asm.matrix().diag.get(r, c)).abs() < 1e-11;
                }
            }
            ok
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn constrained_block_rows_are_identity() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let maps = HymvMaps::build(&pm.parts[0]);
        let mut store = hymv_la::ElementMatrixStore::new(8, maps.n_elems);
        let mut scratch = hymv_fem::kernel::KernelScratch::default();
        for e in 0..maps.n_elems {
            kernel.compute_ke(
                pm.parts[0].elem_node_coords(e),
                store.ke_mut(e),
                &mut scratch,
            );
        }
        let constrained = vec![(0u32, 1.0), (5, 2.0)];
        let blocks = Universe::run(1, |comm| {
            owned_block_csr(comm, &maps, &store, 1, &constrained)
        });
        let block = &blocks[0];
        for &(d, _) in &constrained {
            let r = d as usize;
            assert_eq!(block.get(r, r), 1.0);
            for c in 0..block.n_cols() {
                if c != r {
                    assert_eq!(block.get(r, c), 0.0, "row {r} col {c}");
                    assert_eq!(block.get(c, r), 0.0, "col {r} row {c}");
                }
            }
        }
    }
}
