//! Property-based tests of the message-passing substrate: arbitrary
//! communication patterns must deliver exactly, collectives must agree
//! across ranks, and the virtual-time ledger must stay consistent.

use proptest::prelude::*;

use hymv_comm::{Payload, ReduceOp, Universe};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random sparse point-to-point pattern: every sent message arrives,
    /// with per-(src,tag) FIFO order.
    #[test]
    fn arbitrary_patterns_deliver_exactly(
        p in 1usize..6,
        // message plan: (src, dst, payload value) triples
        plan in proptest::collection::vec((0usize..6, 0usize..6, 0u64..1000), 0..40),
    ) {
        let plan: Vec<(usize, usize, u64)> = plan
            .into_iter()
            .map(|(s, d, v)| (s % p, d % p, v))
            .collect();
        let plan_ref = &plan;
        let out = Universe::run(p, move |comm| {
            let me = comm.rank();
            // Send my messages in plan order.
            for &(_s, d, v) in plan_ref.iter().filter(|&&(s, _, _)| s == me) {
                comm.isend(d, 7, Payload::from_u64(vec![v]));
            }
            // Receive exactly the messages addressed to me, per-source in
            // plan order.
            let mut got: Vec<(usize, u64)> = Vec::new();
            for src in 0..comm.size() {
                let expected: Vec<u64> = plan_ref
                    .iter()
                    .filter(|&&(s, d, _)| s == src && d == me)
                    .map(|&(_, _, v)| v)
                    .collect();
                for _ in 0..expected.len() {
                    let v = comm.recv(src, 7).into_u64()[0];
                    got.push((src, v));
                }
            }
            got
        });
        // Verify FIFO per (src, dst).
        for (me, got) in out.iter().enumerate() {
            for src in 0..p {
                let expected: Vec<u64> = plan
                    .iter()
                    .filter(|&&(s, d, _)| s == src && d == me)
                    .map(|&(_, _, v)| v)
                    .collect();
                let received: Vec<u64> =
                    got.iter().filter(|&&(s, _)| s == src).map(|&(_, v)| v).collect();
                prop_assert_eq!(expected, received, "rank {} from {}", me, src);
            }
        }
    }

    /// Reductions agree with a serial fold on every rank, for any sizes.
    #[test]
    fn reductions_match_serial_fold(
        p in 1usize..7,
        values in proptest::collection::vec(-1e6f64..1e6, 7),
    ) {
        let vals = &values;
        let out = Universe::run(p, move |comm| {
            let mine = vals[comm.rank()];
            (
                comm.allreduce_sum_f64(mine),
                comm.allreduce_max_f64(mine),
                comm.iallreduce(vec![mine], ReduceOp::Min).wait(comm)[0],
            )
        });
        let sum: f64 = values[..p].iter().sum();
        let max = values[..p].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = values[..p].iter().copied().fold(f64::INFINITY, f64::min);
        for (s, mx, mn) in out {
            prop_assert!((s - sum).abs() <= 1e-9 * (1.0 + sum.abs()));
            prop_assert_eq!(mx, max);
            prop_assert_eq!(mn, min);
        }
    }

    /// exchange_sparse round trip: arbitrary dest multiset, every payload
    /// arrives at its destination exactly once.
    #[test]
    fn exchange_sparse_exactness(
        p in 1usize..6,
        dests in proptest::collection::vec(0usize..6, 0..12),
    ) {
        let dests: Vec<usize> = dests.into_iter().map(|d| d % p).collect();
        let dests_ref = &dests;
        let out = Universe::run(p, move |comm| {
            let me = comm.rank();
            // Rank r sends to each dest a tagged value (me*1000 + index).
            let msgs: Vec<(usize, Payload)> = dests_ref
                .iter()
                .enumerate()
                .map(|(i, &d)| (d, Payload::from_u64(vec![(me * 1000 + i) as u64])))
                .collect();
            let recv = comm.exchange_sparse(msgs, 9);
            recv.into_iter().map(|(src, pay)| (src, pay.into_u64()[0])).collect::<Vec<_>>()
        });
        // Each rank receives exactly p copies of each (i) where dests[i]
        // points at it — one per sender.
        for (me, got) in out.iter().enumerate() {
            let expected_count = dests.iter().filter(|&&d| d == me).count() * p;
            prop_assert_eq!(got.len(), expected_count, "rank {}", me);
            for &(src, v) in got {
                let idx = (v % 1000) as usize;
                prop_assert_eq!(v / 1000, src as u64);
                prop_assert_eq!(dests[idx], me);
            }
        }
    }

    /// Virtual time never decreases and the ledger's components are
    /// self-consistent under random work/communication interleavings.
    #[test]
    fn ledger_monotone_and_consistent(
        p in 2usize..5,
        ops in proptest::collection::vec(0u8..3, 1..20),
    ) {
        let ops_ref = &ops;
        let out = Universe::run(p, move |comm| {
            let mut last_vt = 0.0f64;
            let mut ok = true;
            for (i, &op) in ops_ref.iter().enumerate() {
                match op {
                    0 => {
                        comm.work(|| std::hint::black_box((0..500).sum::<usize>()));
                    }
                    1 => {
                        let _ = comm.allreduce_sum_f64(i as f64);
                    }
                    _ => {
                        // Ring exchange.
                        let next = (comm.rank() + 1) % comm.size();
                        let prev = (comm.rank() + comm.size() - 1) % comm.size();
                        comm.isend(next, 3, Payload::from_f64(vec![i as f64]));
                        let _ = comm.recv(prev, 3);
                    }
                }
                ok &= comm.vt() >= last_vt;
                last_vt = comm.vt();
            }
            let st = comm.stats();
            ok &= st.compute_s >= 0.0 && st.comm_wait_s >= 0.0;
            ok &= st.vt + 1e-12 >= st.comm_wait_s;
            (ok, st.msgs_sent, st.msgs_recv)
        });
        let sent: u64 = out.iter().map(|&(_, s, _)| s).sum();
        let recv: u64 = out.iter().map(|&(_, _, r)| r).sum();
        prop_assert!(out.iter().all(|&(ok, _, _)| ok));
        prop_assert_eq!(sent, recv, "messages conserved");
    }
}
