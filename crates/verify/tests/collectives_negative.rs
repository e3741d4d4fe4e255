//! Pinned fixtures for the collective-order pass: the canonical
//! rank-conditional allreduce must be rejected with an *exact*
//! diagnostic and witness chain (these strings are the contract CI
//! greps for), and the live workspace — crates/la and crates/serve in
//! particular — must certify clean with the expected phase sequences.

use std::path::Path;

use hymv_verify::{analyze_collectives, CallGraph};

fn run(src: &str) -> hymv_verify::CollectivesReport {
    let mut g = CallGraph::new();
    g.add_source("crates/bad/src/lib.rs", src);
    analyze_collectives(&g)
}

/// The canonical mismatched-collective bug: only rank 0 enters the
/// allreduce, every other rank sails past — rank 0 blocks forever.
#[test]
fn rank_conditional_allreduce_exact_diagnostic() {
    let r = run("fn broken_phase(comm: &mut Comm, local: f64) -> f64 {\n\
             let mut total = local;\n\
             if comm.rank() == 0 {\n\
                 total = comm.iallreduce(vec![total], ReduceOp::Sum).wait(comm)[0];\n\
             }\n\
             total\n\
         }\n");
    assert!(!r.report.is_clean());
    assert_eq!(r.diags.len(), 1);
    let d = &r.diags[0];
    assert_eq!(d.rule, "collective-rank-divergence");
    assert_eq!(d.file, "crates/bad/src/lib.rs");
    assert_eq!(d.line, 4);
    assert_eq!(d.guard_line, 3);
    assert_eq!(d.func, "lib::broken_phase");
    assert_eq!(d.chain, ["iallreduce (crates/bad/src/lib.rs:4)"]);
    assert_eq!(
        d.message,
        "crates/bad/src/lib.rs:4: collective-rank-divergence: collective `iallreduce` \
         executes inside a rank-dependent region (guard at line 3) in `lib::broken_phase` — \
         ranks taking different branches post mismatched collective sequences and deadlock\n    \
         witness: iallreduce (crates/bad/src/lib.rs:4)"
    );
    // The rendered report carries the same message (CI prints it).
    assert!(format!("{}", r.report).contains("collective-rank-divergence"));
}

/// The divergence may hide N calls deep; the witness is the minimal
/// chain from the guarded call down to the seed.
#[test]
fn interprocedural_divergence_minimal_witness_chain() {
    let r = run("fn deep(comm: &mut Comm) { comm.barrier(); }\n\
         fn mid(comm: &mut Comm) { deep(comm); }\n\
         fn phase(comm: &mut Comm) {\n\
             let leader = comm.rank() == 0;\n\
             if leader {\n\
                 mid(comm);\n\
             }\n\
         }\n");
    assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
    let d = &r.diags[0];
    assert_eq!(d.rule, "collective-rank-divergence");
    assert_eq!(
        d.guard_line, 5,
        "guard is the `if leader` — via the let alias"
    );
    assert_eq!(
        d.chain,
        [
            "lib::mid (crates/bad/src/lib.rs:6)",
            "lib::deep (crates/bad/src/lib.rs:2)",
            "barrier (crates/bad/src/lib.rs:1)"
        ]
    );
}

/// Early return under a rank guard with collectives still ahead: the
/// returning ranks skip what the rest post.
#[test]
fn early_return_under_rank_guard_is_rejected() {
    let r = run("fn phase(comm: &mut Comm, n: usize) {\n\
             if comm.rank() >= n {\n\
                 return;\n\
             }\n\
             comm.iallreduce(vec![1], ReduceOp::Max).wait(comm);\n\
         }\n");
    assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
    assert_eq!(r.diags[0].rule, "collective-after-rank-return");
    assert_eq!(r.diags[0].line, 5);
    assert_eq!(r.diags[0].guard_line, 2);
}

/// Certify the live workspace: every crate — la and serve are the ones
/// this pass exists for — posts rank-uniform collective sequences, and
/// the marked phase entries report the protocols DESIGN.md documents.
#[test]
fn workspace_certifies_clean_with_expected_entry_sequences() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let graph = CallGraph::load_workspace(&root).expect("workspace parses");
    let r = analyze_collectives(&graph);
    assert!(
        r.report.is_clean(),
        "live workspace must have no rank-divergent collectives:\n{}",
        r.report
    );
    assert!(
        r.fns_scanned > 500,
        "coverage collapsed: {} fns",
        r.fns_scanned
    );

    let seq_of = |qual: &str| {
        r.entries
            .iter()
            .find(|e| e.qual == qual)
            .unwrap_or_else(|| panic!("missing collective-entry `{qual}`"))
            .sequence
            .clone()
    };
    // GhostExchange::build: one allgather of owned ranges, then the
    // sparse needs exchange. DistCsr::from_triples: allgather of row
    // counts, triple routing, ghost-column needs exchange.
    assert_eq!(
        seq_of("GhostExchange::build"),
        "allgather_u64 · exchange_sparse"
    );
    assert_eq!(
        seq_of("DistCsr::from_triples"),
        "allgather_u64 · exchange_sparse · exchange_sparse"
    );
    // cg, resilient_cg and block_cg run one CG core over a scalar or a
    // panel arithmetic. The render follows the first workspace fn each
    // call name resolves to, so both entries record the core with the
    // scalar arithmetic's collectives: ‖b‖, the derivation's fused
    // reduction, then the loop — checkpoint, pᵀAp, fused rᵀz/‖r‖ — the
    // restart-exhaustion hook (the panel's deflation, which re-enters the
    // core), the LFLR retry of the same attempt, and the recovery.
    let core = "iallreduce · iallreduce* · checkpoint_exchange* · \
                iallreduce* · iallreduce* · (<run_cg…>* iallreduce)* · \
                (iallreduce iallreduce* checkpoint_exchange* iallreduce* \
                iallreduce* (<run_cg…>* iallreduce)*)* · lflr_recover* · <repair…>*";
    assert_eq!(seq_of("block_cg::block_cg"), core);
    assert_eq!(seq_of("solver::cg"), core);
    // A CG iteration blocks on two reductions: pᵀAp, then rᵀz fused with
    // ‖r‖ (three before the fusion).
    let cg = seq_of("solver::cg");
    let iteration = cg
        .split("checkpoint_exchange* · ")
        .nth(1)
        .and_then(|rest| rest.split(" · (").next());
    assert_eq!(iteration, Some("iallreduce* · iallreduce*"));
    let step = seq_of("SolveService::step");
    assert!(
        step.contains("iallreduce") && step.ends_with(")*"),
        "SolveService::step should loop a batched solve protocol: {step}"
    );
}

/// The fixture the explicit and parameterized engines must both refute
/// stays refutable end-to-end through the public API (guards against the
/// pass silently losing its teeth in a refactor).
#[test]
fn pass_still_has_teeth() {
    let r = run("fn p(comm: &mut Comm) { if comm.rank() == 0 { comm.barrier(); } }\n");
    assert_eq!(r.diags.len(), 1);
    // And a clean sibling stays clean — no blanket flagging.
    let ok = run("fn p(comm: &mut Comm) { comm.barrier(); if comm.rank() == 0 { log(); } }\n");
    assert!(ok.diags.is_empty(), "{:?}", ok.diags);
}

/// A call resolves only into the caller's crate, the `hymv-*` crates it
/// depends on, and trait impls: a private `solve` in `crates/check`
/// (which depends on `la`) stays out of `la`'s record, while `la`'s trait
/// call still reaches `core`'s impl.
#[test]
fn resolution_is_scoped_to_the_callers_dependencies() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scoped-resolution");
    let la_dep = "[dependencies]\nhymv-la.workspace = true\n";
    for (path, text) in [
        ("Cargo.toml", "[workspace]\n"),
        ("crates/la/Cargo.toml", "[dependencies]\nhymv-comm.workspace = true\n"),
        (
            "crates/la/src/lib.rs",
            "pub trait Op { fn apply(&mut self, comm: &mut Comm); }\n\
             // verify: collective-entry\n\
             pub fn drive(comm: &mut Comm, op: &mut dyn Op, s: &mut S) { op.apply(comm); s.solve(comm); }\n",
        ),
        ("crates/core/Cargo.toml", la_dep),
        ("crates/core/src/lib.rs", "impl Op for X { fn apply(&mut self, comm: &mut Comm) { comm.barrier(); } }\n"),
        ("crates/check/Cargo.toml", la_dep),
        ("crates/check/src/runner.rs", "fn solve(comm: &mut Comm) { comm.bcast(0, None); }\n"),
    ] {
        let path = root.join(path);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, text).expect("write fixture");
    }
    let r = analyze_collectives(&CallGraph::load_workspace(&root).expect("fixture parses"));
    let drive = r.entries.iter().find(|e| e.qual == "lib::drive");
    assert_eq!(drive.map(|e| e.sequence.as_str()), Some("barrier"));
}
