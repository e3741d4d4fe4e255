//! A tour of the `hymv-comm` substrate itself — the "cluster in a box"
//! that every experiment in this repository runs on.
//!
//! Demonstrates: SPMD rank programs, non-blocking point-to-point with
//! communication/computation overlap, collectives (blocking and
//! non-blocking), the sparse all-to-all used during HYMV's map
//! construction, and the virtual-time ledger that separates measured
//! compute from modeled communication.
//!
//! ```text
//! cargo run --release --example cluster_in_a_box
//! ```

use hymv::prelude::*;

fn main() {
    let p = 8;
    println!("spinning up a universe of {p} ranks (threads with mailboxes)\n");

    // 1. Halo exchange on a 1D chain: the communication pattern of a slab
    //    partition, with the latency hidden behind local work.
    let stats = Universe::run(p, |comm| {
        let me = comm.rank();
        let left = me.checked_sub(1);
        let right = if me + 1 < comm.size() {
            Some(me + 1)
        } else {
            None
        };

        // Post halo sends (non-blocking, buffered).
        for nb in [left, right].into_iter().flatten() {
            comm.isend(nb, 1, Payload::from_f64(vec![me as f64; 128]));
        }
        // "Independent work" overlaps the wires.
        let local_sum = comm.work(|| (0..200_000).map(|i| (i as f64).sqrt()).sum::<f64>());
        assert!(local_sum > 0.0);
        // Complete the halo.
        for nb in [left, right].into_iter().flatten() {
            let halo = comm.recv(nb, 1).into_f64();
            assert_eq!(halo[0] as usize, nb);
        }
        comm.stats()
    });
    let s = &stats[3];
    println!(
        "halo exchange, rank 3: {} msgs sent, {} bytes, compute {:.3} ms, \
         comm wait {:.3} ms (latency absorbed by overlapped work)",
        s.msgs_sent,
        s.bytes_sent,
        s.compute_s * 1e3,
        s.comm_wait_s * 1e3
    );

    // 2. Collectives: blocking reductions and the non-blocking fused
    //    reduction pipelined CG uses.
    let sums = Universe::run(p, |comm| {
        let blocking = comm.allreduce_sum_f64(comm.rank() as f64);
        let handle = comm.iallreduce(vec![1.0, comm.rank() as f64], ReduceOp::Sum);
        comm.work(|| std::hint::black_box((0..50_000).sum::<usize>()));
        let fused = handle.wait(comm);
        (blocking, fused)
    });
    println!(
        "\ncollectives: allreduce Σrank = {}, fused non-blocking reduce = {:?}",
        sums[0].0, sums[0].1
    );

    // 3. Sparse all-to-all: the pattern behind LNSM/GNGM construction —
    //    receivers do not know their senders in advance.
    let received = Universe::run(p, |comm| {
        // Every rank messages its rank², modulo p — an irregular pattern.
        let dst = (comm.rank() * comm.rank()) % comm.size();
        let msgs = vec![(dst, Payload::from_u64(vec![comm.rank() as u64]))];
        let got = comm.exchange_sparse(msgs, 2);
        got.len()
    });
    println!(
        "\nsparse all-to-all: per-rank incoming message counts = {received:?} \
         (senders discovered at runtime)"
    );

    // 4. Virtual time vs wall time: a deliberately imbalanced program.
    let report = Universe::run(p, |comm| {
        // Rank 0 does 8x the work; everyone then synchronizes.
        let reps = if comm.rank() == 0 { 800_000 } else { 100_000 };
        comm.work(|| std::hint::black_box((0..reps).map(|i| (i as f64).sin()).sum::<f64>()));
        comm.barrier();
        (comm.stats().compute_s, comm.vt())
    });
    let max_compute = report.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let min_compute = report.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let vt = report[p - 1].1;
    println!(
        "\nimbalance: compute spans {:.2}–{:.2} ms across ranks, but after the \
         barrier every rank's virtual clock reads {:.2} ms — the straggler \
         sets the pace, exactly as on a real machine",
        min_compute * 1e3,
        max_compute * 1e3,
        vt * 1e3
    );

    println!(
        "\nThis runtime is what DESIGN.md §2 substitutes for MPI: identical \
         message structure and volumes, with time = measured thread-CPU \
         compute + α-β-modeled communication."
    );
}
