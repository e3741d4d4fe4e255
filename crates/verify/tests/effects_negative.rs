//! Negative fixtures for the interprocedural passes (`hymv-verify
//! effects`): every phase-effect rule gets a planted defect and an
//! assertion on the *exact* diagnostic, the bounds interpreter gets a
//! deliberately broken kernel, and the real workspace is asserted clean —
//! so a regression that silently stops seeing violations fails loudly.

use std::path::Path;

use hymv_verify::{
    analyze_effects, analyze_workspace_effects, certify_file, certify_source, check_slab_contract,
    lint_source, CallGraph, LintDiag,
};

fn analyze(src: &str) -> hymv_verify::EffectsReport {
    let mut g = CallGraph::new();
    g.add_source("crates/demo/src/demo.rs", src);
    analyze_effects(&g)
}

fn only_rule<'a>(r: &'a hymv_verify::EffectsReport, rule: &str) -> &'a LintDiag {
    let v: Vec<&LintDiag> = r.diags.iter().filter(|d| d.rule == rule).collect();
    assert_eq!(v.len(), 1, "expected exactly one {rule}: {:?}", r.diags);
    v[0]
}

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

// ---------------------------------------------------------------------------
// The headline satellite: a blocking receive hidden one call deep inside
// the scatter overlap window. The legacy line-local lint scans only the
// window's own lines, sees a harmless-looking `drain_side(comm)`, and
// reports nothing — the false negative this PR exists to close. Effect
// inference propagates `BlockingRecv` out of the helper and names the
// call chain in the diagnostic.
// ---------------------------------------------------------------------------

const HIDDEN_RECV: &str = "\
fn drain_side(comm: &mut Comm) -> Payload { comm.recv(0, TAG_SIDE) }
fn overlap(ex: &GhostExchange, comm: &mut Comm, u: &mut DistArray) {
    ex.scatter_begin(comm, u);
    let x = drain_side(comm);
    ex.scatter_end(comm, u);
}
";

#[test]
fn legacy_lint_misses_the_hidden_recv() {
    let diags = lint_source("crates/demo/src/demo.rs", HIDDEN_RECV);
    assert!(
        !diags.iter().any(|d| d.rule == "blocking-recv-in-overlap"),
        "the line-local lint cannot see through the helper; if it starts \
         to, this fixture (and the effects engine's reason to exist) needs \
         rethinking: {diags:?}"
    );
}

#[test]
fn effect_inference_catches_the_hidden_recv_with_its_call_chain() {
    let r = analyze(HIDDEN_RECV);
    let d = only_rule(&r, "overlap-blocking-recv");
    assert_eq!((d.file.as_str(), d.line), ("crates/demo/src/demo.rs", 4));
    assert_eq!(
        d.message,
        "`drain_side` reaches a blocking receive inside the scatter overlap \
         window opened by `scatter_begin` at line 3: demo::drain_side -> \
         `recv` (crates/demo/src/demo.rs:1) — only computation may run \
         while the scatter is in flight"
    );
}

// ---------------------------------------------------------------------------
// One exact-diagnostic fixture per remaining phase-effect rule.
// ---------------------------------------------------------------------------

#[test]
fn overlap_allocation_diagnostic_is_exact() {
    let r = analyze(
        "fn scratch(n: usize) -> Vec<f64> { vec![0.0; n] }\n\
         fn overlap(ex: &GhostExchange, comm: &mut Comm, u: &mut DistArray) {\n\
         \x20   ex.scatter_begin(comm, u);\n\
         \x20   let buf = scratch(8);\n\
         \x20   ex.scatter_end(comm, u);\n\
         }\n",
    );
    let d = only_rule(&r, "overlap-allocation");
    assert_eq!(d.line, 4);
    assert_eq!(
        d.message,
        "`scratch` reaches an allocation inside the scatter overlap window \
         opened by `scatter_begin` at line 3: demo::scratch -> `vec!` \
         (crates/demo/src/demo.rs:1) — preallocate outside the window or \
         waive with `// verify: allow(allocates)`"
    );
}

#[test]
fn overlap_ghost_read_diagnostic_is_exact() {
    let r = analyze(
        "// verify: effect(ghost-read)\n\
         fn read_halo(u: &DistArray) -> f64 { u.ghost_sum() }\n\
         fn use_halo(u: &DistArray) -> f64 { read_halo(u) }\n\
         fn overlap(ex: &GhostExchange, comm: &mut Comm, u: &mut DistArray) {\n\
         \x20   ex.scatter_begin(comm, u);\n\
         \x20   let s = use_halo(u);\n\
         \x20   ex.scatter_end(comm, u);\n\
         }\n",
    );
    let d = only_rule(&r, "overlap-ghost-read");
    assert_eq!(d.line, 6);
    assert_eq!(
        d.message,
        "`use_halo` reaches a ghost-slot read inside the scatter overlap \
         window opened by `scatter_begin` at line 5: demo::use_halo -> \
         demo::read_halo -> `// verify: effect(ghost-read)` \
         (crates/demo/src/demo.rs:2) — ghost values are undefined until \
         `scatter_end` completes the exchange"
    );
}

#[test]
fn kernel_ledger_access_diagnostic_is_exact() {
    let r = analyze(
        "fn charge(comm: &mut Comm) { let t = comm.thread_cpu_time(); }\n\
         // verify: kernel-entry\n\
         fn emv_loop(comm: &mut Comm) { charge(comm); }\n",
    );
    let d = only_rule(&r, "kernel-ledger-access");
    assert_eq!(d.line, 3);
    assert_eq!(
        d.message,
        "kernel entry `demo::emv_loop` reaches the virtual-time ledger: \
         demo::emv_loop -> demo::charge -> `thread_cpu_time` \
         (crates/demo/src/demo.rs:1) — kernels charge time only through \
         `Comm::work`/`work_with`/`timed_work`/`traced`"
    );
}

#[test]
fn kernel_nondeterminism_diagnostic_is_exact() {
    let r = analyze(
        "fn jitter() -> f64 { rand::thread_rng().gen() }\n\
         // verify: kernel-entry\n\
         fn emv_loop(v: &mut [f64]) { let j = jitter(); }\n",
    );
    let d = only_rule(&r, "kernel-nondeterminism");
    assert_eq!(d.line, 3);
    assert_eq!(
        d.message,
        "kernel entry `demo::emv_loop` reaches ambient RNG: demo::emv_loop \
         -> demo::jitter -> `thread_rng` (crates/demo/src/demo.rs:1) — \
         kernel results must be bitwise reproducible"
    );
}

#[test]
fn tag_literal_flow_diagnostic_is_exact() {
    let r = analyze(
        "fn send_tagged(comm: &mut Comm, dst: usize, tag: u32) {\n\
         \x20   comm.isend(dst, tag, Payload::from_u64(vec![1]));\n\
         }\n\
         fn caller(comm: &mut Comm) { send_tagged(comm, 1, 0x51); }\n",
    );
    let d = only_rule(&r, "tag-literal-flow");
    assert_eq!(d.line, 4);
    assert_eq!(
        d.message,
        "`send_tagged` passes raw tag literal `0x51` into tag-flowing \
         parameter `tag` of `demo::send_tagged`: use a named tag constant"
    );
}

// ---------------------------------------------------------------------------
// The analyses against the real workspace: the repo itself must be clean,
// and the shipped SIMD kernels must certify.
// ---------------------------------------------------------------------------

#[test]
fn the_workspace_is_effect_clean() {
    let (report, graph) =
        analyze_workspace_effects(workspace_root()).expect("workspace parse failed");
    assert!(
        report.diags.is_empty(),
        "phase-effect violations in the tree: {:#?}",
        report.diags
    );
    assert!(
        graph.notes.is_empty(),
        "unrecognized verify directives: {:?}",
        graph.notes
    );
    // Sanity floor so an accidentally-empty walk can't fake a clean run.
    assert!(
        report.stats.fns > 300,
        "only {} fns parsed",
        report.stats.fns
    );
    assert!(report.stats.files > 30, "only {} files", report.stats.files);
}

#[test]
fn every_shipped_simd_kernel_certifies() {
    let dense = workspace_root().join("crates/la/src/dense.rs");
    let (certs, diags) = certify_file(&dense).expect("dense.rs unreadable");
    assert!(diags.is_empty(), "{diags:#?}");
    let names: Vec<&str> = certs.iter().map(|c| c.kernel.as_str()).collect();
    // The per-element kernels, the vector gather, the multivector kernels
    // in both slab layouts, and the one batched body once per lane type ×
    // layout × dimension it is instantiated for (`ND=0`: `nd` at run time).
    let mut want = vec![
        "dense::emv_avx2_impl".to_string(),
        "dense::emv_avx512_impl".to_string(),
        "dense::gather_panel_avx512".to_string(),
    ];
    for packed in [false, true] {
        for isa in ["avx2", "avx512"] {
            want.push(format!("dense::emv_batch_mv_{isa}_impl::<PACKED={packed}>"));
        }
        for lane in ["f64", "__m256d", "__m512d"] {
            for nd in [0, 4, 8, 10, 12] {
                want.push(format!(
                    "dense::emv_batch_body::<L={lane}, PACKED={packed}, ND={nd}>"
                ));
            }
        }
    }
    for want in &want {
        assert!(
            names.contains(&want.as_str()),
            "{want} not certified: {names:?}"
        );
    }
    assert_eq!(names.len(), want.len(), "{names:?}");
    assert!(
        certs.iter().all(|c| c.accesses > 0),
        "a certificate with zero proved accesses is vacuous: {certs:#?}"
    );
}

#[test]
fn a_broken_kernel_variant_is_rejected() {
    // Same shape as the shipped AVX2 kernel, with the column offset
    // shifted by one — the tail lane of the last column walks off `ke`.
    let broken = r#"
// verify: prove-bounds
fn emv_bad(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    let chunks = nd / 4;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        for c in 0..chunks {
            let k = lanes::load4(ke, j * nd + 4 * c + 1);
        }
    }
}
"#;
    let (certs, diags) = certify_source("crates/la/src/broken.rs", broken);
    assert!(certs.is_empty(), "a broken kernel must not certify");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(
        diags[0].message.contains("residual")
            && diags[0]
                .message
                .contains("not provable from the stated preconditions"),
        "{}",
        diags[0].message
    );
}

#[test]
fn slab_contract_mismatch_names_the_bad_slab() {
    // nd=8, bw=4: the kernels are certified for a full slab (nd·nd·bw) and
    // a symmetric-packed one (nd(nd+1)/2·bw) — those two lengths pass ...
    check_slab_contract(8, 4, 256, 8 * 4, 8 * 4).expect("full slab");
    check_slab_contract(8, 4, 144, 8 * 4, 8 * 4).expect("packed slab");
    // ... a keb slab one double short of full is rejected ...
    let err = check_slab_contract(8, 4, 8 * 8 * 4 - 1, 8 * 4, 8 * 4)
        .expect_err("short slab must be rejected");
    assert_eq!(
        err,
        "slab keb length 255 violates the proved kernel preconditions \
         nd * nd * bw = 256 (full) and tri(nd) * bw = 144 (packed) (nd=8, bw=4)"
    );
    // ... and so is anything in between the two layouts.
    let err =
        check_slab_contract(8, 4, 200, 8 * 4, 8 * 4).expect_err("in-between slab must be rejected");
    assert!(err.starts_with("slab keb length 200 violates"), "{err}");
}
