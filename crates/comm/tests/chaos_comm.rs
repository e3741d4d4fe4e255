//! End-to-end chaos tests of the reliable envelope transport: seeded
//! drop/duplicate/corrupt/reorder/delay faults must be healed bit-exactly
//! by the recovery protocol, and unrecoverable faults must terminate every
//! rank with a typed report — never a hang, never damaged data.

use hymv_comm::{
    envelope_pack, envelope_unpack, AuditMode, CostModel, FaultKind, FaultPlan, Payload,
    RetryPolicy, RunConfig, Universe,
};

fn chaos_cfg(fault: FaultPlan) -> RunConfig {
    RunConfig {
        model: CostModel::default(),
        perturb_seed: None,
        // Chaos runs legitimately leave tombstones, duplicates, and
        // retransmissions behind; the audit teardown sweep would flag them.
        audit: AuditMode::Disabled,
        fault: Some(fault),
        retry: RetryPolicy::default(),
        trace: false,
    }
}

/// Ring traffic: each rank streams `rounds` enveloped vectors to its right
/// neighbour and returns everything received from its left, with an
/// allreduce separating rounds (as CG separates matvecs with dots).
fn ring_program(comm: &mut hymv_comm::Comm, rounds: usize) -> Vec<f64> {
    let next = (comm.rank() + 1) % comm.size();
    let prev = (comm.rank() + comm.size() - 1) % comm.size();
    let mut got = Vec::new();
    for round in 0..rounds {
        let data: Vec<f64> = (0..5)
            .map(|i| (comm.rank() * 1000 + round * 10 + i) as f64 + 0.5)
            .collect();
        comm.send_enveloped(next, 0x0C07, &data);
        got.extend(comm.recv_enveloped(prev, 0x0C07));
        let s = comm.allreduce_sum_f64(got[got.len() - 1]);
        assert!(s.is_finite());
    }
    got
}

fn expected_ring(rank: usize, size: usize, rounds: usize) -> Vec<f64> {
    let prev = (rank + size - 1) % size;
    (0..rounds)
        .flat_map(|round| (0..5).map(move |i| (prev * 1000 + round * 10 + i) as f64 + 0.5))
        .collect()
}

#[test]
fn drops_are_healed_bit_exactly() {
    let cfg = chaos_cfg(FaultPlan::new(11).with_drop(0.2));
    let (results, _) = Universe::run_chaos(cfg, 3, |comm| {
        let got = ring_program(comm, 12);
        (got, comm.stats())
    });
    let mut timeouts = 0;
    let mut retries = 0;
    for (rank, res) in results.into_iter().enumerate() {
        let (got, stats) = res.expect("20% drop is within the retry budget");
        assert_eq!(got, expected_ring(rank, 3, 12), "rank {rank} data damaged");
        timeouts += stats.timeouts;
        retries += stats.retries;
    }
    assert!(timeouts > 0, "a 20% drop plan must fire at least once");
    assert!(retries >= timeouts, "every timeout charges a retry");
}

#[test]
fn duplicates_are_suppressed() {
    let cfg = chaos_cfg(FaultPlan::new(5).with_duplicate(0.5));
    let (results, _) = Universe::run_chaos(cfg, 2, |comm| {
        let got = ring_program(comm, 16);
        (got, comm.stats())
    });
    let mut dups = 0;
    for (rank, res) in results.into_iter().enumerate() {
        let (got, stats) = res.expect("duplication alone never exhausts retries");
        assert_eq!(got, expected_ring(rank, 2, 16), "rank {rank} data damaged");
        dups += stats.dups_suppressed;
    }
    assert!(dups > 0, "a 50% duplication plan must trip dedup");
}

#[test]
fn corruption_is_detected_and_healed() {
    let cfg = chaos_cfg(FaultPlan::new(23).with_corrupt(0.3));
    let (results, _) = Universe::run_chaos(cfg, 2, |comm| {
        let got = ring_program(comm, 14);
        (got, comm.stats())
    });
    let mut caught = 0;
    for (rank, res) in results.into_iter().enumerate() {
        let (got, stats) = res.expect("30% corruption is within the retry budget");
        assert_eq!(
            got,
            expected_ring(rank, 2, 14),
            "rank {rank}: corrupted bits leaked through"
        );
        caught += stats.corrupt_detected;
    }
    assert!(caught > 0, "a 30% corruption plan must trip the checksum");
}

#[test]
fn reorder_and_delay_are_healed() {
    let cfg = chaos_cfg(
        FaultPlan::new(31)
            .with_reorder(0.6)
            .with_delay(0.3, 8.0)
            .with_duplicate(0.2),
    );
    let (results, _) = Universe::run_chaos(cfg, 3, |comm| ring_program(comm, 10));
    for (rank, res) in results.into_iter().enumerate() {
        let got = res.expect("reorder/delay/dup never exhaust retries");
        assert_eq!(
            got,
            expected_ring(rank, 3, 10),
            "rank {rank}: sequence numbers failed to restore order"
        );
    }
}

/// The negative satellite: a crashed rank produces the typed diagnostic on
/// every rank — this test *completing* is the no-hang proof.
#[test]
fn crash_yields_typed_reports_on_every_rank() {
    let cfg = chaos_cfg(FaultPlan::new(1).with_crash(1, 2));
    let (results, _) = Universe::run_chaos(cfg, 3, |comm| ring_program(comm, 12));
    let mut exhausted = 0;
    let mut peer_aborts = 0;
    for res in results {
        match res.expect_err("a crashed data plane cannot converge").kind {
            FaultKind::RetryBudgetExhausted { peer, .. } => {
                assert_eq!(peer, 1, "only rank 1's data plane died");
                exhausted += 1;
            }
            FaultKind::PeerAborted { .. } => peer_aborts += 1,
            other => panic!("unexpected fault kind without LFLR armed: {other:?}"),
        }
    }
    assert!(exhausted >= 1, "someone must observe the exhausted budget");
    assert_eq!(exhausted + peer_aborts, 3, "all ranks terminate typed");
}

/// Raw (non-envelope) traffic — including `recv_any` — rides the reliable
/// fabric: an active duplication/reorder plan must not touch it, because
/// injection is scoped to the envelope path (`send_enveloped`).
#[test]
fn recv_any_unaffected_while_faults_active() {
    let cfg = chaos_cfg(FaultPlan::new(9).with_duplicate(0.9).with_reorder(0.9));
    let (results, _) = Universe::run_chaos(cfg, 4, |comm| {
        // Envelope traffic under heavy dup/reorder in the background...
        let got = ring_program(comm, 4);
        assert_eq!(got, expected_ring(comm.rank(), 4, 4));
        // ...while a raw wildcard gather stays exact (three messages, each
        // delivered exactly once).
        if comm.rank() == 0 {
            let mut vals: Vec<u64> = (0..3).map(|_| comm.recv_any(6).1.into_u64()[0]).collect();
            vals.sort_unstable();
            vals
        } else {
            comm.isend(0, 6, Payload::from_u64(vec![comm.rank() as u64 * 100]));
            Vec::new()
        }
    });
    let vals = results[0].as_ref().expect("raw traffic is reliable");
    assert_eq!(vals, &vec![100, 200, 300]);
}

/// With the injector disabled the envelope path is pure framing: bitwise
/// the same data, zero recovery events, and no tombstones anywhere.
#[test]
fn envelope_path_is_transparent_without_faults() {
    let out = Universe::run(2, |comm| {
        let other = 1 - comm.rank();
        let data = vec![0.1, 0.2, 0.3];
        comm.send_enveloped(other, 0x0C07, &data);
        let got = comm.recv_enveloped(other, 0x0C07);
        let stats = comm.stats();
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.dups_suppressed, 0);
        assert_eq!(stats.corrupt_detected, 0);
        assert_eq!(stats.sends_confirmed, 1);
        got
    });
    assert_eq!(out[0], vec![0.1, 0.2, 0.3]);
    assert_eq!(out[1], vec![0.1, 0.2, 0.3]);
}

/// Exhaustive single-bit coverage: flipping ANY one bit of a packed
/// envelope — magic, sequence, length, checksum, or data — must fail
/// validation. The FNV-1a checksum covers every header and data word (the
/// checksum word hashes as zero), so the injector's `corrupt` fault can
/// never slip an envelope past `envelope_unpack`: 100% detection.
#[test]
fn checksum_catches_every_single_bit_flip() {
    let data = [1.5, -2.25, 3.0e-7, f64::MAX, 0.0];
    let packed = envelope_pack(3, &data);
    let (seq, roundtrip) = envelope_unpack(&packed).expect("clean envelope validates");
    assert_eq!(seq, 3);
    assert_eq!(roundtrip, data);
    let Payload::U64(words) = &packed else {
        panic!("envelopes are U64 payloads");
    };
    for word in 0..words.len() {
        for bit in 0..64 {
            let mut corrupted = words.clone();
            corrupted[word] ^= 1u64 << bit;
            assert!(
                envelope_unpack(&Payload::U64(corrupted)).is_err(),
                "flip of word {word} bit {bit} slipped through"
            );
        }
    }
}

/// The same fault seed must produce the same recovery trace and the same
/// bits, run after run (the determinism argument of DESIGN.md §10).
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let run = || {
        let cfg = chaos_cfg(FaultPlan::new(77).with_drop(0.15).with_duplicate(0.2));
        let (results, _) = Universe::run_chaos(cfg, 3, |comm| {
            let got = ring_program(comm, 8);
            let s = comm.stats();
            (got, s.timeouts, s.retries, s.dups_suppressed)
        });
        results
            .into_iter()
            .map(|r| r.expect("recoverable plan"))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same recovery trace, same bits");
}
