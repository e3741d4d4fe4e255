//! Negative fixtures for the interprocedural passes (`hymv-verify
//! effects`): every phase-effect rule gets a planted defect and an
//! assertion on the *exact* diagnostic, and the real workspace is asserted
//! clean — so a regression that silently stops seeing violations fails
//! loudly.

use std::path::Path;

use hymv_verify::{
    analyze_effects, analyze_workspace_effects, lint_source, CallGraph, LintDiag, Resolution,
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

// The same hidden receive one level further out: behind an element-source
// trait method, called from a schedule generic over the source — the shape
// of `hymv-core`'s one Algorithm-2 apply. The window holds only
// `src.run_set(..)`; the name-based call graph resolves it to every impl of
// the method, so the offending impl's receive is still found and named.
const HIDDEN_RECV_IN_SOURCE: &str = "\
trait Source { fn run_set(&mut self, comm: &mut Comm, dependent: bool); }
struct Sneaky;
impl Source for Sneaky {
    fn run_set(&mut self, comm: &mut Comm, dependent: bool) { drain_side(comm); }
}
fn drain_side(comm: &mut Comm) -> Payload { comm.recv(0, TAG_SIDE) }
fn apply<S: Source>(ex: &GhostExchange, comm: &mut Comm, u: &mut DistArray, src: &mut S) {
    ex.scatter_begin(comm, u);
    src.run_set(comm, false);
    ex.scatter_end(comm, u);
    src.run_set(comm, true);
}
";

#[test]
fn effect_inference_sees_through_the_element_source_trait() {
    let r = analyze(HIDDEN_RECV_IN_SOURCE);
    let d = only_rule(&r, "overlap-blocking-recv");
    assert_eq!((d.file.as_str(), d.line), ("crates/demo/src/demo.rs", 9));
    assert_eq!(
        d.message,
        "`run_set` reaches a blocking receive inside the scatter overlap \
         window opened by `scatter_begin` at line 8: Sneaky::run_set -> \
         demo::drain_side -> `recv` (crates/demo/src/demo.rs:6) — only \
         computation may run while the scatter is in flight"
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
// The analyses against the real workspace: the repo itself must be clean.
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

    // Algorithm 2 is written once: one scatter window in the core and GPU
    // crates, in the generic apply, and the element-source call inside it
    // resolves to all three sources — so the window check covers HYMV,
    // matrix-free and the GPU's Algorithm 3, SPMV and SpMM alike.
    let core_scatters: Vec<_> = graph
        .fns
        .iter()
        .filter(|f| {
            (f.file.starts_with("crates/core/src/") && !f.file.ends_with("/exchange.rs"))
                || f.file.starts_with("crates/gpu/src/")
        })
        .flat_map(|f| f.calls.iter().map(move |c| (f, c)))
        .filter(|(_, c)| c.name == "scatter_begin")
        .collect();
    assert_eq!(
        core_scatters.len(),
        1,
        "scatter windows in core: {core_scatters:?}"
    );
    let (apply, begin) = core_scatters[0];
    assert_eq!(apply.qual, "schedule::apply");
    let source_call = apply
        .calls
        .iter()
        .find(|c| c.name == "run_element_set" && c.offset > begin.offset)
        .expect("the apply runs an element set inside its scatter window");
    let Resolution::Candidates(ids) = graph.resolve(source_call) else {
        panic!("the source call must resolve to workspace fns");
    };
    let mut impls: Vec<&str> = ids
        .iter()
        .map(|&i| &graph.fns[i])
        .filter(|f| f.body.is_some())
        .map(|f| f.qual.as_str())
        .collect();
    impls.sort_unstable();
    assert_eq!(
        impls,
        [
            "DevicePanels::run_element_set",
            "Recompute::run_element_set",
            "StoredSlabs::run_element_set"
        ]
    );

    // The CG recurrence is written once: every arithmetic call of the
    // core resolves to exactly the scalar and the panel implementation.
    let mut arith_calls = 0;
    for core in graph
        .fns
        .iter()
        .filter(|f| ["krylov::run_cg", "krylov::attempt"].contains(&f.qual.as_str()))
    {
        for call in core.calls.iter().filter(|c| c.name.starts_with("cg_")) {
            arith_calls += 1;
            let Resolution::Candidates(ids) = graph.resolve(call) else {
                panic!(
                    "`{}` in {} must resolve to workspace fns",
                    call.name, core.qual
                );
            };
            let mut impls: Vec<&str> = ids
                .iter()
                .map(|&i| &graph.fns[i])
                .filter(|f| f.body.is_some())
                .map(|f| f.qual.as_str())
                .collect();
            impls.sort_unstable();
            assert_eq!(
                impls,
                [
                    format!("Panel::{}", call.name),
                    format!("Scalar::{}", call.name)
                ],
                "{} in {}",
                call.name,
                core.qual
            );
        }
    }
    assert!(
        arith_calls >= 10,
        "only {arith_calls} arithmetic calls found in the core"
    );

    // The device source stays inside the checks: the GPU crate waives one
    // allocation (its stream labels) and pins one dispatch point pure.
    let gpu_src = workspace_root().join("crates/gpu/src");
    let mut waivers: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&gpu_src).expect("gpu sources") {
        let text = std::fs::read_to_string(entry.expect("dir entry").path()).expect("source");
        waivers.extend(
            text.lines()
                .filter_map(|l| l.trim().strip_prefix("// verify: "))
                .map(str::to_string),
        );
    }
    waivers.sort_unstable();
    assert_eq!(waivers, ["allow(allocates)", "pure"], "gpu waivers");
}
