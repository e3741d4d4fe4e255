//! Communication maps (LNSM, GNGM) and the ghost exchange they drive
//! (paper §IV-D).
//!
//! * **LNSM** (local node scatter map): for each neighbouring rank, the
//!   owned local node indices whose values must be scattered there.
//! * **GNGM** (ghost node gather map): the inverse pattern — the ghost
//!   slots whose elemental contributions must be accumulated back to
//!   their owners after the EMV loop.
//!
//! Both maps are built once during setup from `E2G` and the owned ranges;
//! the exchange operations are non-blocking (`*_begin` / `*_end`) so
//! Algorithm 2 can overlap them with the independent-element EMVs.
//!
//! The four phases move whole DA rows of `ndof · nvec` values: a ghost
//! fragment's columns are contiguous in a multi-column [`DistArray`], so
//! every neighbour gets exactly ONE envelope per (neighbour, tag) per
//! apply whatever the width — the message count does not grow with
//! `nvec`, only the payload.

use hymv_comm::{Comm, Payload};
use hymv_trace::Phase;

use crate::da::DistArray;
use crate::maps::HymvMaps;

/// Tag of the one-shot LNSM construction exchange (setup only).
pub const TAG_BUILD: u32 = 0x0C03;
/// Tag of the per-SPMV owned-value scatter (LNSM direction).
pub const TAG_SCATTER: u32 = 0x0C01;
/// Tag of the per-SPMV ghost-accumulation gather (GNGM direction).
pub const TAG_GATHER: u32 = 0x0C02;

/// The per-rank communication plan (LNSM + GNGM).
#[derive(Debug, Clone)]
pub struct GhostExchange {
    /// LNSM: `(neighbour rank, owned DA node indices to scatter there)`.
    send_plan: Vec<(usize, Vec<u32>)>,
    /// GNGM: `(owner rank, DA node-index range of our ghosts they own)`.
    /// Ghost ids are sorted within the pre and post blocks, so each owner's
    /// ghosts form a contiguous DA range.
    recv_plan: Vec<(usize, std::ops::Range<usize>)>,
}

impl GhostExchange {
    /// Build the LNSM/GNGM maps. Collective over all ranks.
    // verify: collective-entry
    pub fn build(comm: &mut Comm, maps: &HymvMaps) -> Self {
        hymv_trace::name_tag(TAG_BUILD, "build");
        hymv_trace::name_tag(TAG_SCATTER, "scatter");
        hymv_trace::name_tag(TAG_GATHER, "gather");
        comm.traced(Phase::ExchangeBuild, |comm| {
            comm.work_with(|comm| Self::build_inner(comm, maps))
        })
    }

    fn build_inner(comm: &mut Comm, maps: &HymvMaps) -> Self {
        // Every rank learns all owned ranges.
        let ranges = comm.allgather_u64(vec![maps.node_range.0, maps.node_range.1]);
        let begins: Vec<u64> = ranges.iter().map(|r| r[0]).collect();
        let owner_of = |g: u64| -> usize {
            // Ranges are contiguous ascending; empty ranks repeat begins, and
            // partition_point gives the last rank whose begin ≤ g — walk back
            // over empty ranks if needed.
            let mut r = begins.partition_point(|&b| b <= g) - 1;
            while ranges[r][0] == ranges[r][1] {
                r -= 1;
            }
            r
        };

        // Group ghosts by owner; pre and post blocks are each sorted, so
        // per-owner runs are contiguous.
        let n_pre = maps.gpre.len();
        let n_owned = maps.n_owned();
        let mut recv_plan: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut needs: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut add_block = |ids: &[u64], base: usize| {
            let mut i = 0;
            while i < ids.len() {
                let owner = owner_of(ids[i]);
                let mut j = i + 1;
                while j < ids.len() && owner_of(ids[j]) == owner {
                    j += 1;
                }
                recv_plan.push((owner, base + i..base + j));
                needs.push((owner, ids[i..j].to_vec()));
                i = j;
            }
        };
        add_block(&maps.gpre, 0);
        add_block(&maps.gpost, n_pre + n_owned);

        // Tell each owner which of its nodes we ghost; owners build LNSM.
        let msgs: Vec<(usize, Payload)> = needs
            .into_iter()
            .map(|(r, ids)| (r, Payload::from_u64(ids)))
            .collect();
        let received = comm.exchange_sparse(msgs, TAG_BUILD);
        let send_plan: Vec<(usize, Vec<u32>)> = received
            .into_iter()
            .map(|(rank, ids)| {
                let locals: Vec<u32> = ids
                    .into_u64()
                    .into_iter()
                    .map(|g| {
                        assert!(
                            g >= maps.node_range.0 && g < maps.node_range.1,
                            "rank {rank} ghosts node {g} we do not own"
                        );
                        maps.owned_to_local(g) as u32
                    })
                    .collect();
                (rank, locals)
            })
            .collect();

        GhostExchange {
            send_plan,
            recv_plan,
        }
    }

    /// The LNSM: `(neighbour rank, owned DA node indices scattered there)`.
    /// Exposed read-only for the `hymv-check` invariant pass.
    pub fn send_plan(&self) -> &[(usize, Vec<u32>)] {
        &self.send_plan
    }

    /// The GNGM: `(owner rank, DA node-index range of our ghosts they own)`.
    /// Exposed read-only for the `hymv-check` invariant pass.
    pub fn recv_plan(&self) -> &[(usize, std::ops::Range<usize>)] {
        &self.recv_plan
    }

    /// Neighbour count (distinct ranks we exchange with).
    pub fn n_neighbors(&self) -> usize {
        self.send_plan.len().max(self.recv_plan.len())
    }

    /// Nodes this rank scatters per SPMV (LNSM size).
    pub fn n_scatter_nodes(&self) -> usize {
        self.send_plan.iter().map(|(_, v)| v.len()).sum()
    }

    /// Ghost nodes this rank gathers per SPMV (GNGM size).
    pub fn n_gather_nodes(&self) -> usize {
        self.recv_plan.iter().map(|(_, r)| r.len()).sum()
    }

    /// `local_node_scatter_begin`: send owned values neighbours ghost.
    /// Per-SPMV traffic rides the sequence-numbered, checksummed envelope
    /// so an active fault plan can be healed by the recovery protocol.
    pub fn scatter_begin(&self, comm: &mut Comm, da: &DistArray) {
        let stride = da.stride();
        comm.traced(Phase::ScatterPost, |comm| {
            // Packing is interleaved with the sends, so the whole block is
            // charged as measured compute (`work_with`).
            comm.work_with(|comm| {
                for (rank, locals) in &self.send_plan {
                    let mut vals = Vec::with_capacity(locals.len() * stride);
                    for &l in locals {
                        let base = l as usize * stride;
                        vals.extend_from_slice(&da.data[base..base + stride]);
                    }
                    comm.send_enveloped(*rank, TAG_SCATTER, &vals);
                }
            });
        });
    }

    /// `local_node_scatter_end`: receive ghost values into the DA.
    pub fn scatter_end(&self, comm: &mut Comm, da: &mut DistArray) {
        let stride = da.stride();
        comm.traced(Phase::ScatterWait, |comm| {
            for (rank, range) in &self.recv_plan {
                let vals = comm.recv_enveloped(*rank, TAG_SCATTER);
                debug_assert_eq!(vals.len(), range.len() * stride);
                da.data[range.start * stride..range.end * stride].copy_from_slice(&vals);
            }
        });
    }

    /// `ghost_node_gather_begin`: ship accumulated ghost contributions back
    /// to their owners.
    pub fn gather_begin(&self, comm: &mut Comm, da: &DistArray) {
        let stride = da.stride();
        comm.traced(Phase::GatherPost, |comm| {
            for (rank, range) in &self.recv_plan {
                let vals = &da.data[range.start * stride..range.end * stride];
                comm.send_enveloped(*rank, TAG_GATHER, vals);
            }
        });
    }

    /// `ghost_node_gather_end`: accumulate neighbours' contributions into
    /// our owned values. Per dof the accumulation visits neighbours in plan
    /// order, whatever the width, so each column of a multi-column DA gets
    /// the bits of its own single-vector exchange.
    pub fn gather_end(&self, comm: &mut Comm, da: &mut DistArray) {
        let stride = da.stride();
        comm.traced(Phase::GatherAccum, |comm| {
            for (rank, locals) in &self.send_plan {
                let vals = comm.recv_enveloped(*rank, TAG_GATHER);
                debug_assert_eq!(vals.len(), locals.len() * stride);
                comm.work_with(|_| {
                    for (m, &l) in locals.iter().enumerate() {
                        let base = l as usize * stride;
                        for s in 0..stride {
                            da.data[base + s] += vals[m * stride + s];
                        }
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    /// Scatter: every ghost slot must receive exactly the owner's value;
    /// we encode the global node id as the value to verify.
    #[test]
    fn scatter_delivers_owner_values() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
        let ok = Universe::run(4, |comm| {
            let part = &pm.parts[comm.rank()];
            let maps = HymvMaps::build(part);
            let ex = GhostExchange::build(comm, &maps);
            let mut da = DistArray::new(&maps, 1);
            // owned value = global id
            for i in 0..maps.n_owned() {
                let g = maps.node_range.0 + i as u64;
                da.data[maps.gpre.len() + i] = g as f64;
            }
            ex.scatter_begin(comm, &da);
            ex.scatter_end(comm, &mut da);
            // Every DA slot now holds its global id.
            (0..maps.n_total()).all(|l| da.data[l] == maps.local_to_global(l) as f64)
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Gather: each rank puts 1.0 in every ghost slot; after the gather an
    /// owned node's value equals the number of ranks that ghost it.
    #[test]
    fn gather_accumulates_multiplicity() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::GreedyGraph);
        // Reference multiplicity: how many ranks ghost each node.
        let mut ghosted_by = vec![0u32; mesh.n_nodes()];
        let mut all_maps = Vec::new();
        for part in &pm.parts {
            let maps = HymvMaps::build(part);
            for &g in maps.gpre.iter().chain(&maps.gpost) {
                ghosted_by[g as usize] += 1;
            }
            all_maps.push(maps);
        }
        let results = Universe::run(4, |comm| {
            let maps = &all_maps[comm.rank()];
            let ex = GhostExchange::build(comm, maps);
            let mut da = DistArray::new(maps, 1);
            // 1.0 in every ghost slot, 0 in owned.
            for l in 0..maps.gpre.len() {
                da.data[l] = 1.0;
            }
            for l in maps.gpre.len() + maps.n_owned()..maps.n_total() {
                da.data[l] = 1.0;
            }
            ex.gather_begin(comm, &da);
            ex.gather_end(comm, &mut da);
            da.owned().to_vec()
        });
        for (rank, owned) in results.iter().enumerate() {
            let begin = all_maps[rank].node_range.0;
            for (i, &v) in owned.iter().enumerate() {
                let g = begin + i as u64;
                assert_eq!(v, ghosted_by[g as usize] as f64, "node {g}");
            }
        }
    }

    #[test]
    fn scatter_then_gather_is_symmetric() {
        // After scatter + gather of the same DA: owned value becomes
        // v * (1 + multiplicity) when ghosts hold copies of v.
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex20).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::Rcb);
        let ok = Universe::run(3, |comm| {
            let part = &pm.parts[comm.rank()];
            let maps = HymvMaps::build(part);
            let ex = GhostExchange::build(comm, &maps);
            // Multi-dof: ndof = 3.
            let mut da = DistArray::new(&maps, 3);
            for i in 0..maps.n_owned() {
                let g = (maps.node_range.0 + i as u64) as f64;
                for c in 0..3 {
                    da.data[(maps.gpre.len() + i) * 3 + c] = g + c as f64 * 0.1;
                }
            }
            ex.scatter_begin(comm, &da);
            ex.scatter_end(comm, &mut da);
            // Ghost slots now hold owner values; check one if present.
            let mut all_match = true;
            for l in 0..maps.gpre.len() {
                let g = maps.local_to_global(l) as f64;
                for c in 0..3 {
                    all_match &= (da.data[l * 3 + c] - (g + c as f64 * 0.1)).abs() < 1e-12;
                }
            }
            all_match
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Enveloped scatter/gather under a seeded drop/corrupt plan heals
    /// bit-exactly: the faulted run returns the clean run's bits.
    #[test]
    fn enveloped_exchange_heals_faults_bit_exactly() {
        use hymv_comm::{AuditMode, CostModel, FaultPlan, RetryPolicy, RunConfig};
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::GreedyGraph);
        let program = |comm: &mut hymv_comm::Comm| {
            let part = &pm.parts[comm.rank()];
            let maps = HymvMaps::build(part);
            let ex = GhostExchange::build(comm, &maps);
            let mut da = DistArray::new(&maps, 1);
            for i in 0..maps.n_owned() {
                let g = maps.node_range.0 + i as u64;
                da.data[maps.gpre.len() + i] = (g as f64) * 0.3 + 1.0;
            }
            for round in 0..4 {
                ex.scatter_begin(comm, &da);
                ex.scatter_end(comm, &mut da);
                ex.gather_begin(comm, &da);
                ex.gather_end(comm, &mut da);
                let _ = comm.allreduce_sum_f64(round as f64);
            }
            da.data.clone()
        };
        let clean = Universe::run(3, program);
        let cfg = RunConfig {
            model: CostModel::default(),
            perturb_seed: None,
            audit: AuditMode::Disabled,
            fault: Some(FaultPlan::new(42).with_drop(0.15).with_corrupt(0.1)),
            retry: RetryPolicy::default(),
            trace: false,
        };
        let (faulted, _) = hymv_comm::Universe::run_chaos(cfg, 3, program);
        for (rank, res) in faulted.into_iter().enumerate() {
            let data = res.expect("drop/corrupt within the retry budget");
            assert_eq!(data, clean[rank], "rank {rank}: recovery damaged bits");
        }
    }

    /// One exchange round on an `nvec = 3` DA moves exactly the bits of
    /// three rounds on `nvec = 1` DAs — scatter delivers every column's
    /// owner values, gather accumulates every column in the same
    /// neighbour order.
    #[test]
    fn mv_exchange_matches_sequential_columns() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 3, PartitionMethod::GreedyGraph);
        let (ndof, nvec) = (2usize, 3usize);
        let ok = Universe::run(3, |comm| {
            let part = &pm.parts[comm.rank()];
            let maps = HymvMaps::build(part);
            let ex = GhostExchange::build(comm, &maps);
            // Column-dependent owned values; ghosts start at 1.0 so the
            // gather has something to accumulate.
            let fill = |c: usize| -> DistArray {
                let mut da = DistArray::new(&maps, ndof);
                da.data.fill(1.0);
                for i in 0..maps.n_owned() * ndof {
                    let g = maps.node_range.0 as f64;
                    da.data[maps.gpre.len() * ndof + i] = g * 0.25 + i as f64 + c as f64 * 0.5;
                }
                da
            };
            // Sequential per-column reference.
            let mut refs = Vec::new();
            for c in 0..nvec {
                let mut da = fill(c);
                ex.scatter_begin(comm, &da);
                ex.scatter_end(comm, &mut da);
                ex.gather_begin(comm, &da);
                ex.gather_end(comm, &mut da);
                refs.push(da);
            }
            // One round on the three-column DA.
            let mut mda = DistArray::new_mv(&maps, ndof, nvec);
            for c in 0..nvec {
                let da = fill(c);
                for (i, &v) in da.data.iter().enumerate() {
                    mda.data[i * nvec + c] = v;
                }
            }
            ex.scatter_begin(comm, &mda);
            ex.scatter_end(comm, &mut mda);
            ex.gather_begin(comm, &mda);
            ex.gather_end(comm, &mut mda);
            (0..nvec).all(|c| {
                refs[c]
                    .data
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v.to_bits() == mda.data[i * nvec + c].to_bits())
            })
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn plan_sizes_consistent_across_ranks() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 4, PartitionMethod::Slabs);
        let out = Universe::run(4, |comm| {
            let maps = HymvMaps::build(&pm.parts[comm.rank()]);
            let ex = GhostExchange::build(comm, &maps);
            (ex.n_scatter_nodes() as u64, ex.n_gather_nodes() as u64)
        });
        // Global scatter count == global gather count (same edges).
        let scat: u64 = out.iter().map(|&(s, _)| s).sum();
        let gath: u64 = out.iter().map(|&(_, g)| g).sum();
        assert_eq!(scat, gath);
        assert!(scat > 0);
    }
}
