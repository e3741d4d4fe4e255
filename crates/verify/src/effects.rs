//! The interprocedural phase-effect analysis (`hymv-verify effects`).
//!
//! Over the [`crate::callgraph`] of `crates/{comm,core,la,gpu,fem,trace}`,
//! a fixed-point pass infers per-function **effect summaries** — which
//! communication/runtime effects are reachable from each function — and
//! the Algorithm-2 phase rules are then checked against those summaries
//! instead of against raw text. That closes the false negative the
//! line-local lint cannot: a blocking receive hidden N calls deep inside
//! a `scatter_begin`..`scatter_end` overlap window is still found.
//!
//! ## The lattice
//!
//! An [`EffectSet`] is a bitset over the atomic effects (plus a tag set
//! with ⊤ for `SendsTag`); join is union; ⊥ is the empty set; ⊤ is all
//! bits with `tag_top`. Summaries only grow during solving, so the
//! worklist iteration terminates at the least fixed point.
//!
//! | effect          | seeded by                                         |
//! |-----------------|---------------------------------------------------|
//! | `BlockingRecv`  | `recv`, `recv_any`, `recv_enveloped`              |
//! | `Waits`         | the above + `wait`, `barrier`, collectives        |
//! | `SendsTag(t)`   | `isend`, `send`, `send_enveloped`, ...            |
//! | `GhostRead/Write` | `// verify: effect(ghost-read/-write)` markers  |
//! | `LedgerAccess`  | `thread_cpu_time`, `ledger()`, `reset_ledger`     |
//! | `WallClock`     | `Instant::now`, `SystemTime::now`, `gettimeofday` |
//! | `AmbientRng`    | `thread_rng`, `from_entropy`, `rand::random`      |
//! | `Allocates`     | `vec!`/`format!`, `with_capacity`, `collect`, ... |
//! | `Unsafe`        | `unsafe fn` items and `unsafe` blocks             |
//!
//! Indirect calls (`(f)(..)`) are ⊤. Calls that resolve to no workspace
//! function and no seed are ⊥ (external code assumed effect-free — the
//! central soundness caveat; see DESIGN.md §12). `// verify: pure` pins a
//! summary to ⊥ (trusted anchor); `// verify: allow(e)` waives effect `e`
//! from one function's summary with a local justification.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use crate::callgraph::{CallGraph, CallSite, Marker, Resolution};
use crate::lint::{is_int_literal, LintDiag};

/// The atomic effects, as bits. `effect::parse` maps marker spellings
/// (`ghost-read`, `allocates`, ...) to bits.
pub mod effect {
    pub const BLOCKING_RECV: u16 = 1 << 0;
    pub const WAITS: u16 = 1 << 1;
    pub const SENDS: u16 = 1 << 2;
    pub const GHOST_READ: u16 = 1 << 3;
    pub const GHOST_WRITE: u16 = 1 << 4;
    pub const LEDGER: u16 = 1 << 5;
    pub const WALL_CLOCK: u16 = 1 << 6;
    pub const AMBIENT_RNG: u16 = 1 << 7;
    pub const ALLOCATES: u16 = 1 << 8;
    pub const UNSAFE: u16 = 1 << 9;
    /// Participates in a collective operation (barrier, allreduce,
    /// allgather, sparse exchange, ...). The ordering event is the *post*,
    /// so non-blocking collective posts carry this without `WAITS`; the
    /// collective-order pass keys its rank-divergence rule off this bit.
    pub const COLLECTIVE: u16 = 1 << 10;
    /// Every atomic effect (⊤ without the tag component).
    pub const ALL: u16 = (1 << 11) - 1;

    /// All bits, in display order.
    pub const BITS: &[u16] = &[
        BLOCKING_RECV,
        WAITS,
        SENDS,
        GHOST_READ,
        GHOST_WRITE,
        LEDGER,
        WALL_CLOCK,
        AMBIENT_RNG,
        ALLOCATES,
        UNSAFE,
        COLLECTIVE,
    ];

    /// Canonical name of one bit (also the marker spelling).
    pub fn name(bit: u16) -> &'static str {
        match bit {
            BLOCKING_RECV => "blocking-recv",
            WAITS => "waits",
            SENDS => "sends",
            GHOST_READ => "ghost-read",
            GHOST_WRITE => "ghost-write",
            LEDGER => "ledger",
            WALL_CLOCK => "wall-clock",
            AMBIENT_RNG => "ambient-rng",
            ALLOCATES => "allocates",
            UNSAFE => "unsafe",
            COLLECTIVE => "collective",
            _ => "?",
        }
    }

    /// Parse a marker effect name.
    pub fn parse(name: &str) -> Option<u16> {
        BITS.iter().copied().find(|&b| self::name(b) == name)
    }
}

/// A point in the effect lattice: a bitset plus the `SendsTag` tag set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSet {
    pub bits: u16,
    /// Named tag constants known to flow into send/recv tag positions.
    pub tags: BTreeSet<String>,
    /// ⊤ for the tag component: some tag is sent but its constant is not
    /// statically known.
    pub tag_top: bool,
}

impl EffectSet {
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn from_bits(bits: u16) -> Self {
        EffectSet {
            bits,
            ..Self::default()
        }
    }

    /// ⊤: every effect, unknown tags.
    pub fn top() -> Self {
        EffectSet {
            bits: effect::ALL,
            tags: BTreeSet::new(),
            tag_top: true,
        }
    }

    pub fn contains(&self, bit: u16) -> bool {
        self.bits & bit != 0
    }

    pub fn is_empty(&self) -> bool {
        self.bits == 0 && self.tags.is_empty() && !self.tag_top
    }

    /// Lattice join; true if `self` changed.
    pub fn join(&mut self, other: &EffectSet) -> bool {
        let mut changed = false;
        if other.bits & !self.bits != 0 {
            self.bits |= other.bits;
            changed = true;
        }
        for t in &other.tags {
            changed |= self.tags.insert(t.clone());
        }
        if other.tag_top && !self.tag_top {
            self.tag_top = true;
            changed = true;
        }
        changed
    }

    /// Remove waived bits (the `allow(...)` marker).
    fn clear(&mut self, bits: u16) {
        self.bits &= !bits;
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "pure");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, "|")?;
            }
            first = false;
            Ok(())
        };
        for &bit in effect::BITS {
            if self.contains(bit) {
                if bit == effect::SENDS && (!self.tags.is_empty() || self.tag_top) {
                    sep(f)?;
                    let tags: Vec<&str> = self.tags.iter().map(String::as_str).collect();
                    if self.tag_top {
                        write!(f, "sends(⊤)")?;
                    } else {
                        write!(f, "sends({})", tags.join(","))?;
                    }
                } else {
                    sep(f)?;
                    write!(f, "{}", effect::name(bit))?;
                }
            }
        }
        Ok(())
    }
}

/// How a summary acquired an effect bit (for witness-path diagnostics).
#[derive(Debug, Clone)]
enum Why {
    /// A call in this fn's own body seeded it.
    Direct { call: String, line: usize },
    /// Inherited from a callee.
    Via { callee: usize },
}

/// Analysis result over one call graph.
#[derive(Debug)]
pub struct EffectsReport {
    /// Rule violations, in (file, line) order.
    pub diags: Vec<LintDiag>,
    /// Per-fn effect summaries, indexed like [`CallGraph::fns`].
    pub summaries: Vec<EffectSet>,
    pub stats: EffectsStats,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EffectsStats {
    pub fns: usize,
    pub calls: usize,
    /// Calls resolving to no workspace fn and no seed (assumed pure).
    pub unknown: usize,
    /// Indirect calls (⊤).
    pub dynamic: usize,
    pub files: usize,
}

/// Run the full analysis over a workspace root.
pub fn analyze_workspace_effects(root: &Path) -> Result<(EffectsReport, CallGraph), String> {
    let graph = CallGraph::load_workspace(root)?;
    let report = analyze_effects(&graph);
    Ok((report, graph))
}

/// Infer summaries and check the phase rules over a prebuilt graph.
pub fn analyze_effects(graph: &CallGraph) -> EffectsReport {
    let n = graph.fns.len();

    // ---- resolve every call once -------------------------------------
    let mut resolved: Vec<Vec<Resolution>> = Vec::with_capacity(n);
    let mut stats = EffectsStats {
        fns: n,
        files: graph.files.len(),
        ..EffectsStats::default()
    };
    for f in &graph.fns {
        let mut rs = Vec::with_capacity(f.calls.len());
        for c in &f.calls {
            stats.calls += 1;
            let r = graph.resolve(c);
            match &r {
                Resolution::Dynamic => stats.dynamic += 1,
                Resolution::Unknown if intrinsic_bits(c) == 0 => stats.unknown += 1,
                _ => {}
            }
            rs.push(r);
        }
        resolved.push(rs);
    }

    // ---- marker interpretation ---------------------------------------
    let mut pure = vec![false; n];
    let mut waived = vec![0u16; n];
    let mut kernel_entry = vec![false; n];
    for (i, f) in graph.fns.iter().enumerate() {
        for m in &f.markers {
            match m {
                Marker::Pure => pure[i] = true,
                Marker::KernelEntry => kernel_entry[i] = true,
                Marker::Allow(name) => waived[i] |= effect::parse(name).unwrap_or(0),
                _ => {}
            }
        }
    }

    // ---- direct effects ----------------------------------------------
    let mut direct: Vec<EffectSet> = Vec::with_capacity(n);
    let mut why: Vec<Vec<Option<Why>>> = vec![vec![None; effect::BITS.len()]; n];
    for (i, f) in graph.fns.iter().enumerate() {
        let mut e = EffectSet::empty();
        let set = |e: &mut EffectSet, bits: u16, w: Why, why_i: &mut Vec<Option<Why>>| {
            for (k, &bit) in effect::BITS.iter().enumerate() {
                if bits & bit != 0 && !e.contains(bit) {
                    why_i[k] = Some(w.clone());
                }
            }
            e.bits |= bits;
        };
        if f.is_unsafe || body_has_unsafe(graph, f) {
            set(
                &mut e,
                effect::UNSAFE,
                Why::Direct {
                    call: "unsafe".into(),
                    line: f.line,
                },
                &mut why[i],
            );
        }
        for m in &f.markers {
            if let Marker::Effect(name) = m {
                if let Some(bit) = effect::parse(name) {
                    set(
                        &mut e,
                        bit,
                        Why::Direct {
                            call: format!("// verify: effect({name})"),
                            line: f.line,
                        },
                        &mut why[i],
                    );
                }
            }
        }
        for c in &f.calls {
            if c.dynamic {
                set(
                    &mut e,
                    effect::ALL,
                    Why::Direct {
                        call: "<indirect call>".into(),
                        line: c.line,
                    },
                    &mut why[i],
                );
                e.tag_top = true;
                continue;
            }
            let bits = intrinsic_bits(c);
            if bits != 0 {
                set(
                    &mut e,
                    bits,
                    Why::Direct {
                        call: c.name.clone(),
                        line: c.line,
                    },
                    &mut why[i],
                );
            }
            // Tag-constant flow at send seeds: record named constants,
            // mark ⊤ for computed tags (literals are the lint's job at
            // seeds, and `tag-literal-flow`'s at workspace calls).
            if bits & effect::SENDS != 0 {
                if let Some(pos) = intrinsic_tag_pos(&c.name) {
                    match c.args.get(pos).map(String::as_str) {
                        Some(a) if is_const_path(a) => {
                            e.tags.insert(last_segment(a).to_string());
                        }
                        Some(a) if is_int_literal(a) => {}
                        Some(a) if is_plain_ident(a) => {} // a tag parameter: flows
                        _ => e.tag_top = true,
                    }
                }
            }
        }
        direct.push(e);
    }

    // ---- fixed point over the call graph -----------------------------
    let mut summaries = direct.clone();
    for i in 0..n {
        if pure[i] {
            summaries[i] = EffectSet::empty();
        }
    }
    // Reverse edges: callee -> callers (over resolved candidates).
    let mut callers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (i, rs) in resolved.iter().enumerate() {
        for r in rs {
            if let Resolution::Candidates(ids) = r {
                for &c in ids {
                    callers[c].insert(i);
                }
            }
        }
    }
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(i) = work.pop() {
        if pure[i] {
            continue;
        }
        let mut acc = direct[i].clone();
        for r in &resolved[i] {
            if let Resolution::Candidates(ids) = r {
                for &id in ids {
                    let gained = summaries[id].bits & !acc.bits;
                    if gained != 0 {
                        for (k, &bit) in effect::BITS.iter().enumerate() {
                            if gained & bit != 0 {
                                why[i][k] = Some(Why::Via { callee: id });
                            }
                        }
                    }
                    let callee = summaries[id].clone();
                    acc.join(&callee);
                }
            }
        }
        acc.clear(waived[i]);
        if acc != summaries[i] {
            summaries[i] = acc;
            for &caller in &callers[i] {
                if !work.contains(&caller) {
                    work.push(caller);
                }
            }
        }
    }

    // ---- tag-parameter fixed point -----------------------------------
    // `tag_params[f]` = parameter indices of `f` that flow into a tag
    // position (transitively). Monotone, so iterate to stability.
    let mut tag_params: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    loop {
        let mut changed = false;
        for (i, f) in graph.fns.iter().enumerate() {
            for (c, r) in f.calls.iter().zip(&resolved[i]) {
                for pos in tag_positions(c, r, &tag_params) {
                    let Some(arg) = c.args.get(pos) else { continue };
                    if let Some(p) = f.params.iter().position(|p| p == arg) {
                        changed |= tag_params[i].insert(p);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- rules --------------------------------------------------------
    let mut diags = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        check_windows(graph, f, &resolved[i], &summaries, &why, &mut diags);
        if kernel_entry[i] {
            check_kernel_entry(graph, i, &summaries, &why, &mut diags);
        }
        check_tag_flow(graph, f, &resolved[i], &tag_params, &mut diags);
    }
    diags.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));

    EffectsReport {
        diags,
        summaries,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

/// Owner types whose `new`/`from` associated fns allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "HashMap", "BTreeMap", "HashSet", "BTreeSet", "VecDeque", "Box", "Rc", "Arc",
];

/// Intrinsic effect seeds: calls whose effects are axiomatic, keyed on
/// the callee name (plus hint for typed paths). Methods `clone`, `push`,
/// and `extend` are deliberately absent (amortized/opaque; §12 caveats).
fn intrinsic_bits(call: &CallSite) -> u16 {
    use effect::*;
    let hint = call.hint.as_deref();
    match call.name.as_str() {
        "recv" | "recv_any" | "recv_enveloped" => BLOCKING_RECV | WAITS,
        // LFLR's checkpoint_exchange and lflr_recover ride here too:
        // buddy checkpoints and world repair block on symmetric
        // participation from every rank — collectives in ordering terms.
        "barrier"
        | "allgather_u64"
        | "bcast"
        | "exchange_sparse"
        | "checkpoint_exchange"
        | "lflr_recover" => WAITS | COLLECTIVE,
        // The one reduction primitive. The *post* is the collective
        // ordering event, so `iallreduce` seeds COLLECTIVE without WAITS;
        // its handle's generic `wait` stays a plain WAITS below. The
        // blocking wrappers (`allreduce_sum_f64`, …) are workspace fns
        // that call both, so they inherit WAITS | COLLECTIVE.
        "iallreduce" => COLLECTIVE,
        "wait" => WAITS,
        "isend" | "isend_unreliable" | "send" | "send_enveloped" => SENDS,
        "thread_cpu_time" | "ledger" | "reset_ledger" => LEDGER,
        "thread_rng" | "from_entropy" => AMBIENT_RNG,
        "gettimeofday" => WALL_CLOCK,
        "now" if matches!(hint, Some("Instant" | "SystemTime")) => WALL_CLOCK,
        "random" if hint == Some("rand") => AMBIENT_RNG,
        "with_capacity" | "to_vec" | "collect" | "to_owned" | "to_string" | "vec!" | "format!" => {
            ALLOCATES
        }
        "new" | "from" if hint.is_some_and(|h| ALLOC_TYPES.contains(&h)) => ALLOCATES,
        _ => 0,
    }
}

/// Tag argument position of the intrinsic send/recv seeds.
fn intrinsic_tag_pos(name: &str) -> Option<usize> {
    match name {
        "recv_any" => Some(0),
        "isend" | "isend_unreliable" | "irecv" | "recv" | "send" | "exchange_sparse"
        | "send_enveloped" | "recv_enveloped" => Some(1),
        _ => None,
    }
}

/// All tag positions of a call: the intrinsic seed position plus every
/// tag-flowing parameter of every resolved candidate.
fn tag_positions(call: &CallSite, r: &Resolution, tag_params: &[BTreeSet<usize>]) -> Vec<usize> {
    let mut out: BTreeSet<usize> = intrinsic_tag_pos(&call.name).into_iter().collect();
    if let Resolution::Candidates(ids) = r {
        for &id in ids {
            out.extend(tag_params[id].iter().copied());
        }
    }
    out.into_iter().collect()
}

fn is_plain_ident(arg: &str) -> bool {
    !arg.is_empty()
        && arg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !arg.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// A named-constant tag: `TAG_X` or a `path::TAG_X`.
fn is_const_path(arg: &str) -> bool {
    let last = last_segment(arg);
    is_plain_ident(last)
        && last.chars().any(|c| c.is_ascii_uppercase())
        && !last.chars().any(|c| c.is_ascii_lowercase())
        && arg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn last_segment(arg: &str) -> &str {
    arg.rsplit("::").next().unwrap_or(arg).trim()
}

fn body_has_unsafe(graph: &CallGraph, f: &crate::callgraph::FnNode) -> bool {
    let Some((s, e)) = f.body else { return false };
    let Some(file) = graph.files.get(f.file_id) else {
        return false;
    };
    let body = &file.stripped[s..e.min(file.stripped.len())];
    let b = body.as_bytes();
    let mut from = 0;
    while let Some(rel) = body[from..].find("unsafe") {
        let at = from + rel;
        from = at + "unsafe".len();
        let pre_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let post = at + "unsafe".len();
        let post_ok = post >= b.len() || !(b[post].is_ascii_alphanumeric() || b[post] == b'_');
        if pre_ok && post_ok {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Join the reachable effect set of one call (intrinsic ∪ candidates; ⊤
/// for indirect).
fn call_effect(call: &CallSite, r: &Resolution, summaries: &[EffectSet]) -> EffectSet {
    if call.dynamic {
        return EffectSet::top();
    }
    let mut e = EffectSet::from_bits(intrinsic_bits(call));
    if let Resolution::Candidates(ids) = r {
        for &id in ids {
            e.join(&summaries[id]);
        }
    }
    e
}

/// Witness path: which callee chain carries `bit` out of `call`.
fn witness_path(
    graph: &CallGraph,
    call: &CallSite,
    r: &Resolution,
    summaries: &[EffectSet],
    why: &[Vec<Option<Why>>],
    bit: u16,
) -> String {
    if call.dynamic {
        return format!("indirect call at line {} (assumed ⊤)", call.line);
    }
    if intrinsic_bits(call) & bit != 0 {
        return format!("`{}` called directly at line {}", call.name, call.line);
    }
    let start = match r {
        Resolution::Candidates(ids) => ids.iter().copied().find(|&id| summaries[id].contains(bit)),
        _ => None,
    };
    let Some(start) = start else {
        return "(unattributed)".to_string();
    };
    describe_reach(graph, start, why, bit)
}

/// Chase the witness chain from `start` to the direct seed of `bit`.
fn describe_reach(graph: &CallGraph, start: usize, why: &[Vec<Option<Why>>], bit: u16) -> String {
    let k = effect::BITS.iter().position(|&b| b == bit).unwrap_or(0);
    let mut path = vec![graph.fns[start].qual.clone()];
    let mut cur = start;
    let mut seen = BTreeSet::new();
    loop {
        if !seen.insert(cur) {
            break;
        }
        match &why[cur][k] {
            Some(Why::Direct { call, line }) => {
                path.push(format!("`{}` ({}:{})", call, graph.fns[cur].file, line));
                break;
            }
            Some(Why::Via { callee, .. }) => {
                path.push(graph.fns[*callee].qual.clone());
                cur = *callee;
            }
            None => break,
        }
    }
    path.join(" -> ")
}

/// The overlap-window rules: between `scatter_begin` and the next
/// `scatter_end` in the same body, nothing reachable may block-receive,
/// allocate, or read ghost slots.
fn check_windows(
    graph: &CallGraph,
    f: &crate::callgraph::FnNode,
    resolved: &[Resolution],
    summaries: &[EffectSet],
    why: &[Vec<Option<Why>>],
    diags: &mut Vec<LintDiag>,
) {
    let begins: Vec<&CallSite> = f
        .calls
        .iter()
        .filter(|c| c.name == "scatter_begin")
        .collect();
    if begins.is_empty() {
        return;
    }
    let ends: Vec<&CallSite> = f.calls.iter().filter(|c| c.name == "scatter_end").collect();
    let body_end = f.body.map_or(usize::MAX, |(_, e)| e);
    for b in &begins {
        let close = ends
            .iter()
            .map(|e| e.offset)
            .find(|&e| e > b.offset)
            .unwrap_or(body_end);
        for (c, r) in f.calls.iter().zip(resolved) {
            if c.offset <= b.offset || c.offset >= close {
                continue;
            }
            if matches!(c.name.as_str(), "scatter_begin" | "scatter_end") {
                continue;
            }
            let e = call_effect(c, r, summaries);
            let checks: &[(u16, &str, &str, &str)] = &[
                (
                    effect::BLOCKING_RECV,
                    "overlap-blocking-recv",
                    "a blocking receive",
                    "only computation may run while the scatter is in flight",
                ),
                (
                    effect::ALLOCATES,
                    "overlap-allocation",
                    "an allocation",
                    "preallocate outside the window or waive with `// verify: allow(allocates)`",
                ),
                (
                    effect::GHOST_READ,
                    "overlap-ghost-read",
                    "a ghost-slot read",
                    "ghost values are undefined until `scatter_end` completes the exchange",
                ),
            ];
            for &(bit, rule, what, note) in checks {
                if e.contains(bit) {
                    let path = witness_path(graph, c, r, summaries, why, bit);
                    diags.push(LintDiag {
                        file: f.file.clone(),
                        line: c.line,
                        rule,
                        message: format!(
                            "`{}` reaches {what} inside the scatter overlap window opened by \
                             `scatter_begin` at line {}: {path} — {note}",
                            c.name, b.line
                        ),
                    });
                }
            }
        }
    }
}

/// The kernel-purity rules: nothing reachable from a `kernel-entry` fn
/// may touch the virtual-time ledger, wall clocks, or ambient RNG.
fn check_kernel_entry(
    graph: &CallGraph,
    i: usize,
    summaries: &[EffectSet],
    why: &[Vec<Option<Why>>],
    diags: &mut Vec<LintDiag>,
) {
    let f = &graph.fns[i];
    if summaries[i].contains(effect::LEDGER) {
        let path = describe_reach(graph, i, why, effect::LEDGER);
        diags.push(LintDiag {
            file: f.file.clone(),
            line: f.line,
            rule: "kernel-ledger-access",
            message: format!(
                "kernel entry `{}` reaches the virtual-time ledger: {path} — kernels charge \
                 time only through `Comm::work`/`work_with`/`timed_work`/`traced`",
                f.qual
            ),
        });
    }
    for (bit, what) in [
        (effect::WALL_CLOCK, "wall-clock time"),
        (effect::AMBIENT_RNG, "ambient RNG"),
    ] {
        if summaries[i].contains(bit) {
            let path = describe_reach(graph, i, why, bit);
            diags.push(LintDiag {
                file: f.file.clone(),
                line: f.line,
                rule: "kernel-nondeterminism",
                message: format!(
                    "kernel entry `{}` reaches {what}: {path} — kernel results must be \
                     bitwise reproducible",
                    f.qual
                ),
            });
        }
    }
}

/// The interprocedural tag rule: an integer literal must not flow into a
/// tag-generic parameter of a workspace function (literals at the seeds
/// themselves are the legacy lint's `raw-tag-literal`).
fn check_tag_flow(
    graph: &CallGraph,
    f: &crate::callgraph::FnNode,
    resolved: &[Resolution],
    tag_params: &[BTreeSet<usize>],
    diags: &mut Vec<LintDiag>,
) {
    for (c, r) in f.calls.iter().zip(resolved) {
        let Resolution::Candidates(ids) = r else {
            continue;
        };
        for &id in ids {
            for &p in &tag_params[id] {
                let Some(arg) = c.args.get(p) else { continue };
                if is_int_literal(arg) {
                    let callee = &graph.fns[id];
                    let param = callee.params.get(p).map_or("?", String::as_str);
                    diags.push(LintDiag {
                        file: f.file.clone(),
                        line: c.line,
                        rule: "tag-literal-flow",
                        message: format!(
                            "`{}` passes raw tag literal `{}` into tag-flowing parameter \
                             `{param}` of `{}`: use a named tag constant",
                            c.name,
                            arg.trim(),
                            callee.qual
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn analyze(src: &str) -> (EffectsReport, CallGraph) {
        let mut g = CallGraph::new();
        g.add_source("crates/demo/src/demo.rs", src);
        let r = analyze_effects(&g);
        (r, g)
    }

    fn summary_of<'a>(r: &'a EffectsReport, g: &CallGraph, name: &str) -> &'a EffectSet {
        let i = g.fns.iter().position(|f| f.name == name).unwrap();
        &r.summaries[i]
    }

    #[test]
    fn effects_propagate_transitively() {
        let (r, g) = analyze(
            "fn leaf(comm: &mut Comm) { let m = comm.recv(0, TAG_X); }\n\
             fn mid(comm: &mut Comm) { leaf(comm); }\n\
             fn top(comm: &mut Comm) { mid(comm); }\n",
        );
        for name in ["leaf", "mid", "top"] {
            let s = summary_of(&r, &g, name);
            assert!(s.contains(effect::BLOCKING_RECV), "{name}: {s}");
            assert!(s.contains(effect::WAITS), "{name}: {s}");
        }
    }

    #[test]
    fn cycles_reach_the_fixed_point() {
        // Mutual recursion must terminate and both sides see the effect.
        let mut g = CallGraph::new();
        let a = g.add_synthetic_fn("a");
        let b = g.add_synthetic_fn("b");
        let c = g.add_synthetic_fn("c");
        g.add_synthetic_call(a, "b", &[]);
        g.add_synthetic_call(b, "a", &[]);
        g.add_synthetic_call(b, "c", &[]);
        g.add_synthetic_call(c, "recv", &["0", "TAG_X"]);
        let r = analyze_effects(&g);
        assert!(r.summaries[a].contains(effect::BLOCKING_RECV));
        assert!(r.summaries[b].contains(effect::BLOCKING_RECV));
    }

    #[test]
    fn diamond_joins_both_branches() {
        let mut g = CallGraph::new();
        let top = g.add_synthetic_fn("top");
        let l = g.add_synthetic_fn("l");
        let rr = g.add_synthetic_fn("r");
        let bot = g.add_synthetic_fn("bot");
        g.add_synthetic_call(top, "l", &[]);
        g.add_synthetic_call(top, "r", &[]);
        g.add_synthetic_call(l, "bot", &[]);
        g.add_synthetic_call(rr, "bot", &[]);
        g.add_synthetic_call(l, "vec!", &[]);
        g.add_synthetic_call(rr, "isend", &["1", "TAG_Y", "x"]);
        g.add_synthetic_call(bot, "barrier", &[]);
        let r = analyze_effects(&g);
        let t = &r.summaries[top];
        assert!(t.contains(effect::ALLOCATES), "{t}");
        assert!(t.contains(effect::SENDS), "{t}");
        assert!(t.contains(effect::WAITS), "{t}");
        assert!(t.tags.contains("TAG_Y"), "{t}");
        // The leaf sees only its own effect (barrier = blocking collective).
        assert_eq!(r.summaries[bot].bits, effect::WAITS | effect::COLLECTIVE);
    }

    #[test]
    fn indirect_calls_fall_back_to_top() {
        let mut g = CallGraph::new();
        let f = g.add_synthetic_fn("f");
        g.add_dynamic_call(f);
        let r = analyze_effects(&g);
        assert_eq!(r.summaries[f], EffectSet::top());
        assert_eq!(r.stats.dynamic, 1);
    }

    #[test]
    fn pure_marker_pins_bottom_and_allow_waives_one_bit() {
        let (r, g) = analyze(
            "// verify: pure\n\
             fn anchor(comm: &mut Comm) { let m = comm.recv(0, TAG_X); }\n\
             // verify: allow(allocates)\n\
             fn scratch(n: usize) -> Vec<f64> { vec![0.0; n] }\n\
             fn caller(comm: &mut Comm, n: usize) { anchor(comm); scratch(n); }\n",
        );
        assert!(summary_of(&r, &g, "anchor").is_empty());
        assert!(!summary_of(&r, &g, "scratch").contains(effect::ALLOCATES));
        let c = summary_of(&r, &g, "caller");
        assert!(c.is_empty(), "waiver and purity both cut propagation: {c}");
    }

    #[test]
    fn unsafe_fns_and_blocks_carry_the_unsafe_effect() {
        let (r, g) = analyze(
            "unsafe fn raw() {}\n\
             fn has_block(p: *mut f64) { unsafe { *p = 0.0; } }\n\
             fn safe() {}\n",
        );
        assert!(summary_of(&r, &g, "raw").contains(effect::UNSAFE));
        assert!(summary_of(&r, &g, "has_block").contains(effect::UNSAFE));
        assert!(!summary_of(&r, &g, "safe").contains(effect::UNSAFE));
    }

    #[test]
    fn interprocedural_overlap_recv_is_found_with_path() {
        // The satellite fixture shape: the recv hides one call deep.
        let (r, _g) = analyze(
            "fn drain_side(comm: &mut Comm) -> Payload { comm.recv(0, TAG_SIDE) }\n\
             fn overlap(ex: &GhostExchange, comm: &mut Comm, u: &mut DistArray) {\n\
             \x20   ex.scatter_begin(comm, u);\n\
             \x20   let x = drain_side(comm);\n\
             \x20   ex.scatter_end(comm, u);\n\
             }\n",
        );
        let v: Vec<&LintDiag> = r
            .diags
            .iter()
            .filter(|d| d.rule == "overlap-blocking-recv")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", r.diags);
        assert_eq!(v[0].line, 4);
        assert!(
            v[0].message.contains("demo::drain_side -> `recv`"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("`scatter_begin` at line 3"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn tag_literal_flow_through_wrapper() {
        let (r, _g) = analyze(
            "fn send_tagged(comm: &mut Comm, dst: usize, tag: u32) {\n\
             \x20   comm.isend(dst, tag, Payload::from_u64(vec![1]));\n\
             }\n\
             fn caller(comm: &mut Comm) { send_tagged(comm, 1, 7); }\n",
        );
        let v: Vec<&LintDiag> = r
            .diags
            .iter()
            .filter(|d| d.rule == "tag-literal-flow")
            .collect();
        assert_eq!(v.len(), 1, "{:?}", r.diags);
        assert_eq!(v[0].line, 4);
        assert!(
            v[0].message
                .contains("raw tag literal `7` into tag-flowing parameter `tag`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn sends_tags_collected_at_seeds() {
        let (r, g) = analyze(
            "fn a(comm: &mut Comm) { comm.isend(1, TAG_A, x); }\n\
             fn b(comm: &mut Comm) { comm.send_enveloped(0, exchange::TAG_B, &d); a(comm); }\n",
        );
        let s = summary_of(&r, &g, "b");
        assert!(s.tags.contains("TAG_A") && s.tags.contains("TAG_B"), "{s}");
        assert!(!s.tag_top);
    }
}
