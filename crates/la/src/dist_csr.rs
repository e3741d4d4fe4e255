//! Distributed CSR matrix — the matrix-assembled (PETSc `MPIAIJ`) baseline.
//!
//! Reproduces PETSc's representation and algorithms:
//!
//! * each rank owns a contiguous block of rows;
//! * assembly routes off-rank triples to their owning rank (the global
//!   communication that dominates PETSc's setup time in Figs 4, 5, 7);
//! * storage splits into a **diagonal block** (columns this rank owns,
//!   local indices) and an **off-diagonal block** whose columns are
//!   compressed through `garray` (sorted ghost global ids);
//! * `MatMult` posts the ghost scatter, multiplies the diagonal block while
//!   values travel, then completes the scatter and multiplies the
//!   off-diagonal block — PETSc's VecScatter overlap.

use hymv_comm::{Comm, Payload};
use hymv_trace::Phase;

use crate::csr::SerialCsr;

/// Tag block reserved for DistCsr traffic.
const TAG_TRIPLES: u32 = 0x0D10;
const TAG_NEEDS: u32 = 0x0D11;
const TAG_GHOSTS: u32 = 0x0D12;

/// Assembly cost observables (reported by the setup benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AssemblyStats {
    /// Triples generated locally.
    pub triples_local: u64,
    /// Triples sent to other ranks (the assembly communication volume).
    pub triples_sent: u64,
    /// Triples received from other ranks.
    pub triples_recv: u64,
}

/// One rank's share of a distributed sparse matrix.
pub struct DistCsr {
    /// Owned row range `[begin, end)` in global dof ids.
    row_range: (u64, u64),
    /// All ranks' row ranges (rank → begin; length `size + 1`).
    row_starts: Vec<u64>,
    /// Diagonal block: `n_local × n_local`, local column ids.
    pub diag: SerialCsr,
    /// Off-diagonal block: `n_local × garray.len()` compressed columns.
    pub offd: SerialCsr,
    /// Sorted global ids of ghost columns.
    pub garray: Vec<u64>,
    /// Outgoing scatter plan: `(rank, local owned indices to send)`.
    send_plan: Vec<(usize, Vec<u32>)>,
    /// Incoming scatter plan: `(rank, range into ghost buffer)`.
    recv_plan: Vec<(usize, std::ops::Range<usize>)>,
    /// Ghost value buffer, aligned with `garray`.
    ghost: Vec<f64>,
    /// Assembly cost observables.
    pub assembly_stats: AssemblyStats,
}

impl DistCsr {
    /// Assemble from local triples in **global** (row, col, value) ids.
    /// Rows owned by other ranks are shipped to them — every rank must
    /// call this collectively.
    pub fn from_triples(
        comm: &mut Comm,
        n_owned_rows: usize,
        triples: Vec<(u64, u64, f64)>,
    ) -> Self {
        hymv_trace::name_tag(TAG_TRIPLES, "triples");
        hymv_trace::name_tag(TAG_NEEDS, "needs");
        hymv_trace::name_tag(TAG_GHOSTS, "ghosts");
        // Host-side assembly work (triple routing bookkeeping, sort, CSR
        // compression, scatter-plan construction) is charged to the clock
        // by the `work_with` wrapper; communication charges itself.
        comm.traced(Phase::Setup, |comm| {
            comm.work_with(|comm| Self::from_triples_inner(comm, n_owned_rows, triples))
        })
    }

    fn from_triples_inner(
        comm: &mut Comm,
        n_owned_rows: usize,
        triples: Vec<(u64, u64, f64)>,
    ) -> Self {
        // Establish global row ranges.
        let counts = comm.allgather_u64(vec![n_owned_rows as u64]);
        let mut row_starts = vec![0u64; comm.size() + 1];
        for r in 0..comm.size() {
            row_starts[r + 1] = row_starts[r] + counts[r][0];
        }
        let row_range = (row_starts[comm.rank()], row_starts[comm.rank() + 1]);
        let n_global = row_starts[comm.size()];

        // Route off-rank triples to their owners (PETSc MatAssembly).
        let mut mine: Vec<(u64, u64, f64)> = Vec::new();
        let mut outgoing: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); comm.size()];
        let triples_local = triples.len() as u64;
        let mut triples_sent = 0u64;
        for (r, c, v) in triples {
            assert!(
                r < n_global && c < n_global,
                "triple ({r},{c}) out of global range"
            );
            if r >= row_range.0 && r < row_range.1 {
                mine.push((r, c, v));
            } else {
                let owner = owner_of(&row_starts, r);
                outgoing[owner].push((r, c, v));
                triples_sent += 1;
            }
        }
        let msgs: Vec<(usize, Payload)> = outgoing
            .into_iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(rank, t)| (rank, Payload::from_triples(t)))
            .collect();
        let incoming = comm.exchange_sparse(msgs, TAG_TRIPLES);
        let mut triples_recv = 0u64;
        for (_, payload) in incoming {
            let t = payload.into_triples();
            triples_recv += t.len() as u64;
            mine.extend(t);
        }

        // Split into diagonal and off-diagonal blocks.
        let n_local = n_owned_rows;
        let mut diag_t: Vec<(u32, u32, f64)> = Vec::new();
        let mut offd_raw: Vec<(u32, u64, f64)> = Vec::new();
        let mut garray: Vec<u64> = Vec::new();
        for &(r, c, v) in &mine {
            let lr = (r - row_range.0) as u32;
            if c >= row_range.0 && c < row_range.1 {
                diag_t.push((lr, (c - row_range.0) as u32, v));
            } else {
                offd_raw.push((lr, c, v));
                garray.push(c);
            }
        }
        garray.sort_unstable();
        garray.dedup();
        let gidx = |c: u64| garray.binary_search(&c).expect("ghost col present") as u32;
        let offd_t: Vec<(u32, u32, f64)> = offd_raw
            .into_iter()
            .map(|(r, c, v)| (r, gidx(c), v))
            .collect();
        let diag = SerialCsr::from_triples(n_local, n_local, diag_t);
        let offd = SerialCsr::from_triples(n_local, garray.len(), offd_t);

        // Build the scatter: tell each ghost column's owner what we need.
        let mut needs: Vec<Vec<u64>> = vec![Vec::new(); comm.size()];
        for &c in &garray {
            needs[owner_of(&row_starts, c)].push(c);
        }
        let mut recv_plan: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut cursor = 0usize;
        for (rank, ids) in needs.iter().enumerate() {
            if !ids.is_empty() {
                // garray is sorted and owner ranges are contiguous, so each
                // owner's ghost ids occupy a contiguous garray range.
                recv_plan.push((rank, cursor..cursor + ids.len()));
                cursor += ids.len();
            }
        }
        debug_assert_eq!(cursor, garray.len());
        let requests: Vec<(usize, Payload)> = needs
            .into_iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(rank, ids)| (rank, Payload::from_u64(ids)))
            .collect();
        let received = comm.exchange_sparse(requests, TAG_NEEDS);
        let send_plan: Vec<(usize, Vec<u32>)> = received
            .into_iter()
            .map(|(rank, ids)| {
                let locals = ids
                    .into_u64()
                    .into_iter()
                    .map(|g| {
                        assert!(
                            g >= row_range.0 && g < row_range.1,
                            "rank {rank} requested non-owned col {g}"
                        );
                        (g - row_range.0) as u32
                    })
                    .collect();
                (rank, locals)
            })
            .collect();

        let ghost = vec![0.0; garray.len()];
        DistCsr {
            row_range,
            row_starts,
            diag,
            offd,
            garray,
            send_plan,
            recv_plan,
            ghost,
            assembly_stats: AssemblyStats {
                triples_local,
                triples_sent,
                triples_recv,
            },
        }
    }

    /// Owned row range `[begin, end)`.
    pub fn row_range(&self) -> (u64, u64) {
        self.row_range
    }

    /// Locally owned rows.
    pub fn n_local(&self) -> usize {
        (self.row_range.1 - self.row_range.0) as usize
    }

    /// Global matrix dimension.
    pub fn n_global(&self) -> u64 {
        *self.row_starts.last().expect("non-empty row starts")
    }

    /// Local nonzeros (diag + offd).
    pub fn nnz_local(&self) -> usize {
        self.diag.nnz() + self.offd.nnz()
    }

    /// Bytes of local matrix storage.
    pub fn bytes(&self) -> usize {
        self.diag.bytes() + self.offd.bytes() + self.garray.len() * 8
    }

    /// `y = A x`, with `x`/`y` the owned slices (`n_local`). Overlaps the
    /// ghost scatter with the diagonal-block multiply; host compute time
    /// is charged to the virtual clock.
    pub fn spmv(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.spmv_impl(comm, x, y, true);
    }

    /// SPMV without charging host compute time — used by the simulated-GPU
    /// backend, which models the multiply on the device instead.
    pub fn spmv_uncharged(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.spmv_impl(comm, x, y, false);
    }

    fn spmv_impl(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64], charge: bool) {
        debug_assert_eq!(x.len(), self.n_local());
        debug_assert_eq!(y.len(), self.n_local());

        // Post sends of the owned values our neighbours need. Per-SPMV
        // ghost traffic rides the sequence-numbered, checksummed envelope
        // so an active fault plan is healed by the recovery protocol.
        let send_plan = &self.send_plan;
        comm.traced(Phase::ScatterPost, |comm| {
            charged(comm, charge, |comm| {
                for (rank, locals) in send_plan {
                    let vals: Vec<f64> = locals.iter().map(|&l| x[l as usize]).collect();
                    comm.send_enveloped(*rank, TAG_GHOSTS, &vals);
                }
            });
        });

        // Complete the scatter. On the healthy path this happens after the
        // diagonal-block multiply (VecScatter overlap); once the reliable
        // channel degrades, receive first — overlap just widens the window
        // in which retransmissions interleave with useful work.
        let degraded = comm.degraded();
        if !degraded {
            let diag = &self.diag;
            comm.traced(Phase::IndepEmv, |comm| {
                charged(comm, charge, |_| diag.spmv(x, y, false));
            });
        }
        let (recv_plan, ghost) = (&self.recv_plan, &mut self.ghost);
        comm.traced(Phase::ScatterWait, |comm| {
            for (rank, range) in recv_plan {
                let vals = comm.recv_enveloped(*rank, TAG_GHOSTS);
                debug_assert_eq!(vals.len(), range.len());
                ghost[range.clone()].copy_from_slice(&vals);
            }
        });
        let (diag, offd, ghost) = (&self.diag, &self.offd, &self.ghost);
        comm.traced(Phase::DepEmv, |comm| {
            charged(comm, charge, |_| {
                if degraded {
                    diag.spmv(x, y, false);
                }
                offd.spmv(ghost, y, true);
            });
        });
        comm.note_exchange_outcome();
    }

    /// FLOPs of one SPMV on this rank.
    pub fn spmv_flops(&self) -> u64 {
        self.diag.spmv_flops() + self.offd.spmv_flops()
    }

    /// Owned diagonal entries of the global matrix (Jacobi setup).
    pub fn diagonal(&self) -> Vec<f64> {
        self.diag.diag()
    }
}

/// Run `f`, charging its thread-CPU time to the clock only when `charge`
/// is set (the simulated-GPU backend models the multiply on the device).
fn charged<R>(comm: &mut Comm, charge: bool, f: impl FnOnce(&mut Comm) -> R) -> R {
    if charge {
        comm.work_with(f)
    } else {
        f(comm)
    }
}

fn owner_of(row_starts: &[u64], row: u64) -> usize {
    debug_assert!(row < *row_starts.last().expect("non-empty"));
    // partition_point returns the first rank whose start exceeds `row`.
    row_starts.partition_point(|&s| s <= row) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Distribute a dense matrix's entries randomly across ranks (each
    /// entry generated on an arbitrary rank, as FEM assembly does), then
    /// verify SPMV against the dense product.
    #[test]
    fn distributed_spmv_matches_dense() {
        let n = 24u64;
        let p = 4;
        let per = (n / p as u64) as usize;
        let results = Universe::run(p, |comm| {
            let mut rng = StdRng::seed_from_u64(99); // same stream on all ranks
            let mut dense = vec![0.0f64; (n * n) as usize];
            let mut my_triples = Vec::new();
            for r in 0..n {
                for c in 0..n {
                    if rng.gen_bool(0.2) {
                        let v = rng.gen_range(-2.0..2.0);
                        dense[(c * n + r) as usize] = v;
                        // Entry "generated" on a pseudo-random rank.
                        if (r + 3 * c) as usize % comm.size() == comm.rank() {
                            my_triples.push((r, c, v));
                        }
                    }
                }
            }
            let mut a = DistCsr::from_triples(comm, per, my_triples);
            let x_global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let lo = a.row_range().0 as usize;
            let x_local = x_global[lo..lo + per].to_vec();
            let mut y_local = vec![0.0; per];
            a.spmv(comm, &x_local, &mut y_local);
            // Dense reference rows for this rank.
            let want: Vec<f64> = (0..per)
                .map(|lr| {
                    let r = lo + lr;
                    (0..n as usize)
                        .map(|c| dense[c * n as usize + r] * x_global[c])
                        .sum()
                })
                .collect();
            (y_local, want, a.assembly_stats)
        });
        let mut any_sent = false;
        for (y, want, stats) in results {
            for (a, b) in y.iter().zip(&want) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
            any_sent |= stats.triples_sent > 0;
        }
        assert!(any_sent, "the test must exercise off-rank assembly traffic");
    }

    #[test]
    fn single_rank_has_no_offd() {
        let out = Universe::run(1, |comm| {
            let t = vec![(0u64, 1u64, 2.0), (1, 0, 3.0), (2, 2, 1.0)];
            let mut a = DistCsr::from_triples(comm, 3, t);
            assert_eq!(a.offd.nnz(), 0);
            assert!(a.garray.is_empty());
            let mut y = vec![0.0; 3];
            a.spmv(comm, &[1.0, 2.0, 3.0], &mut y);
            y
        });
        assert_eq!(out[0], vec![4.0, 3.0, 3.0]);
    }

    #[test]
    fn duplicate_triples_sum_across_ranks() {
        // Both ranks contribute 1.0 to entry (0,0): assembled value is 2.0.
        let out = Universe::run(2, |comm| {
            let t = vec![(0u64, 0u64, 1.0)];
            let mut a = DistCsr::from_triples(comm, 1, t);
            let x = vec![1.0];
            let mut y = vec![0.0; 1];
            a.spmv(comm, &x, &mut y);
            y[0]
        });
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn diagonal_extraction() {
        let out = Universe::run(2, |comm| {
            let me = comm.rank() as u64;
            // Rank r owns rows [2r, 2r+2); put r+1 on the diagonal.
            let t = vec![
                (2 * me, 2 * me, me as f64 + 1.0),
                (2 * me + 1, 2 * me + 1, me as f64 + 1.0),
                // Couple to the other rank so garray is non-trivial.
                (2 * me, (2 * me + 2) % 4, 0.5),
            ];
            let a = DistCsr::from_triples(comm, 2, t);
            a.diagonal()
        });
        assert_eq!(out[0], vec![1.0, 1.0]);
        assert_eq!(out[1], vec![2.0, 2.0]);
    }

    #[test]
    fn owner_lookup() {
        let starts = vec![0u64, 4, 4, 10];
        assert_eq!(owner_of(&starts, 0), 0);
        assert_eq!(owner_of(&starts, 3), 0);
        // Rank 1 owns nothing; row 4 belongs to rank 2.
        assert_eq!(owner_of(&starts, 4), 2);
        assert_eq!(owner_of(&starts, 9), 2);
    }

    #[test]
    fn stats_and_sizes() {
        let out = Universe::run(2, |comm| {
            let t = if comm.rank() == 0 {
                vec![(0u64, 0u64, 1.0), (1, 1, 1.0), (2, 0, 5.0)] // row 2 off-rank
            } else {
                vec![(2u64, 2u64, 1.0), (3, 3, 1.0)]
            };
            let a = DistCsr::from_triples(comm, 2, t);
            (a.assembly_stats, a.n_global(), a.nnz_local(), a.bytes())
        });
        assert_eq!(out[0].0.triples_sent, 1);
        assert_eq!(out[1].0.triples_recv, 1);
        assert_eq!(out[0].1, 4);
        assert!(out[1].2 >= 3); // rows 2,3: diag nnz 2 + received (2,0)
        assert!(out[0].3 > 0);
    }
}
