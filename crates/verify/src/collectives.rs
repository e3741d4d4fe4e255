//! The interprocedural collective-order pass.
//!
//! `hymv_comm`'s collectives (barrier, the non-blocking `iallreduce`
//! post behind every reduction, allgather, bcast, `exchange_sparse`)
//! are rendezvous-matched by *call order*: every rank must post the same
//! sequence of collectives, or two ranks meet inside different
//! collectives and the whole job wedges — the classic mismatched-
//! collective deadlock, and the one deadlock class the exchange-plan
//! model checker cannot see (plans carry point-to-point ops only).
//!
//! The pass proves the **rank-uniformity** of every collective sequence
//! under the SPMD replication assumption (DESIGN.md §14): all ranks run
//! the same program over bitwise-identical control inputs — certified at
//! runtime by the determinism harness — so control flow can only diverge
//! where a branch condition depends on the rank identity itself. Those
//! sites are statically recognizable: a guard whose condition mentions
//! `.rank` / `.is_root`, or a local the function visibly derived from
//! one. The rule is then:
//!
//! > no call that can reach a collective may execute inside a
//! > rank-dependent region, and no rank-dependent region may `return`
//! > early while collectives follow it.
//!
//! "Can reach" is a fixed point over the call graph's *static* edges
//! (named calls, joined over every resolution candidate). Indirect
//! `(expr)(...)` calls are excluded from this closure — collectives are
//! invoked by name on `Comm`, never through function values, and closure
//! bodies are already attributed to their defining function by the
//! parser — which keeps the ⊤ summaries of generic driver helpers (e.g.
//! `Comm::traced`) from drowning the rule in false positives. The
//! [`crate::effects::effect::COLLECTIVE`] bit carries the same seeds
//! through the *effect* lattice (where dynamic calls stay ⊤-conservative)
//! so summaries display it and `// verify: allow(collective)` can waive
//! it.
//!
//! Violations come back as [`CollectiveDiag`]s with a minimal witness
//! call chain (breadth-first, so the shortest route from the guarded call
//! to an actual collective seed). Functions carrying
//! `// verify: collective-entry` additionally get their inferred
//! collective sequence rendered (`*` marks posts inside a loop), giving
//! CI a reviewable record of each phase's collective protocol.
//!
//! Known limits, stated for auditability: rank identity flowing through
//! function *returns* or parameters not literally named `rank`, data-
//! dependent branches whose inputs differ across ranks (excluded by the
//! SPMD assumption + determinism certification), and `?`-style early
//! exits are not tracked; `match` arm guards without braces are skipped.

use std::collections::{BTreeSet, HashMap, VecDeque};

use hymv_check::PassReport;

use crate::callgraph::{CallGraph, Marker, Resolution};
use crate::lexer::{line_of, tokens, Tok, Token};

/// Call names that *are* collectives (the ordering event is the post).
/// Must stay in sync with the `COLLECTIVE` seeds in `effects.rs`.
pub const COLLECTIVE_SEEDS: &[&str] = &[
    "barrier",
    "iallreduce",
    "allgather_u64",
    "bcast",
    "exchange_sparse",
    "checkpoint_exchange",
    "lflr_recover",
];

/// One mismatched-collective finding.
#[derive(Debug, Clone)]
pub struct CollectiveDiag {
    /// Workspace-relative file of the offending call.
    pub file: String,
    /// 1-based line of the offending call.
    pub line: usize,
    /// 1-based line of the rank-dependent guard.
    pub guard_line: usize,
    /// `collective-rank-divergence` or `collective-after-rank-return`.
    pub rule: &'static str,
    /// Qualified name of the containing fn.
    pub func: String,
    /// Minimal call chain from the flagged call down to the collective
    /// seed, rendered `name (file:line)`.
    pub chain: Vec<String>,
    /// Fully rendered message (what the report prints).
    pub message: String,
}

/// One `// verify: collective-entry` fn's inferred sequence.
#[derive(Debug, Clone)]
pub struct CollectiveEntrySeq {
    pub qual: String,
    pub file: String,
    pub line: usize,
    /// e.g. `allgather_u64 · exchange_sparse` or `iallreduce*`
    /// (`*` = posted inside a loop).
    pub sequence: String,
}

/// Result of the collective-order pass.
#[derive(Debug)]
pub struct CollectivesReport {
    /// Violations in report form (the CLI prints this).
    pub report: PassReport,
    /// Structured findings, in (file, line) order.
    pub diags: Vec<CollectiveDiag>,
    /// Inferred sequences of every `collective-entry` fn.
    pub entries: Vec<CollectiveEntrySeq>,
    /// Fns scanned (bodies visible to the parser).
    pub fns_scanned: usize,
    /// Rank-dependent regions found (uniform code has few).
    pub rank_regions: usize,
    /// Fns that can reach a collective through static call edges.
    pub reaching_fns: usize,
}

/// A rank-dependent (or loop) region of one fn body: absolute byte span
/// in the stripped file text.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
    guard_line: usize,
    has_return: bool,
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

/// `reach[i]` ⟺ fn i contains a collective seed call or a named call that
/// resolves (under any candidate) to a reaching fn.
fn collective_reach(graph: &CallGraph, resolved: &[Vec<Resolution>]) -> Vec<bool> {
    let n = graph.fns.len();
    let mut reach = vec![false; n];
    // Reverse edges: callee -> callers.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, f) in graph.fns.iter().enumerate() {
        for (k, c) in f.calls.iter().enumerate() {
            if COLLECTIVE_SEEDS.contains(&c.name.as_str()) && !reach[i] {
                reach[i] = true;
                queue.push_back(i);
            }
            if let Resolution::Candidates(ids) = &resolved[i][k] {
                for &id in ids {
                    rev[id].push(i);
                }
            }
        }
    }
    while let Some(v) = queue.pop_front() {
        for &u in &rev[v] {
            if !reach[u] {
                reach[u] = true;
                queue.push_back(u);
            }
        }
    }
    reach
}

/// Shortest call chain from fn `start` to a collective seed call,
/// rendered `name (file:line)` per hop. `start` must reach one.
fn witness_chain(
    graph: &CallGraph,
    resolved: &[Vec<Resolution>],
    reach: &[bool],
    start: usize,
) -> Vec<String> {
    // BFS over fn ids; prev[v] = (caller u, call-site text entering v).
    let mut prev: HashMap<usize, (usize, String)> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    let mut seen: BTreeSet<usize> = BTreeSet::from([start]);
    while let Some(u) = queue.pop_front() {
        let f = &graph.fns[u];
        for (k, c) in f.calls.iter().enumerate() {
            if COLLECTIVE_SEEDS.contains(&c.name.as_str()) {
                // Found: unwind u back to start, then append the seed.
                let mut chain = Vec::new();
                let mut cur = u;
                while let Some((caller, site)) = prev.get(&cur) {
                    chain.push(site.clone());
                    cur = *caller;
                }
                chain.reverse();
                chain.push(format!("{} ({}:{})", c.name, f.file, c.line));
                return chain;
            }
            if let Resolution::Candidates(ids) = &resolved[u][k] {
                for &id in ids {
                    if reach[id] && seen.insert(id) {
                        prev.insert(
                            id,
                            (u, format!("{} ({}:{})", graph.fns[id].qual, f.file, c.line)),
                        );
                        queue.push_back(id);
                    }
                }
            }
        }
    }
    Vec::new() // unreachable when reach[start] holds
}

// ---------------------------------------------------------------------------
// Rank-dependent region detection
// ---------------------------------------------------------------------------

/// Does the token span `[lo, hi)` mention rank identity: `.rank`,
/// `.is_root`, or a tainted local?
fn span_rank_dependent(
    toks: &[Token<'_>],
    lo: usize,
    hi: usize,
    tainted: &BTreeSet<String>,
) -> bool {
    for t in lo..hi {
        match toks[t].tok {
            Tok::Punct(b'.')
                if t + 1 < hi
                    && (toks[t + 1].is_ident("rank") || toks[t + 1].is_ident("is_root")) =>
            {
                return true;
            }
            Tok::Ident(name) if tainted.contains(name) => return true,
            _ => {}
        }
    }
    false
}

/// Locals visibly bound from rank identity: `let [mut] x = ...rank()...;`
/// plus any parameter literally named `rank` / `my_rank`.
fn rank_tainted_idents(toks: &[Token<'_>], params: &[String]) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = params
        .iter()
        .filter(|p| p == &"rank" || p == &"my_rank")
        .cloned()
        .collect();
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(Tok::Ident(name)) = toks.get(j).map(|t| t.tok) else {
            continue;
        };
        // Scan the initializer up to the statement's `;`.
        let mut k = j + 1;
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct(b'(' | b'[' | b'{') => depth += 1,
                Tok::Punct(b')' | b']' | b'}') => depth -= 1,
                Tok::Punct(b';') if depth <= 0 => break,
                Tok::Punct(b'.')
                    if k + 1 < toks.len()
                        && (toks[k + 1].is_ident("rank") || toks[k + 1].is_ident("is_root")) =>
                {
                    tainted.insert(name.to_string());
                }
                Tok::Ident(id) if tainted.contains(id) => {
                    tainted.insert(name.to_string());
                }
                _ => {}
            }
            k += 1;
        }
    }
    tainted
}

/// Find the matching `}` for the `{` at token index `open`; returns the
/// token index just past it.
fn brace_block_end(toks: &[Token<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Header scan: from the keyword at `kw`, find the body-opening `{` at
/// bracket depth 0. Bails (returns None) on `=>` or `;` — a braceless
/// match-arm guard or malformed header.
fn header_open_brace(toks: &[Token<'_>], kw: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = kw + 1;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct(b'(' | b'[') => depth += 1,
            Tok::Punct(b')' | b']') => depth -= 1,
            Tok::Punct(b'{') if depth == 0 => return Some(i),
            Tok::Punct(b';') => return None,
            Tok::Punct(b'=') if toks.get(i + 1).is_some_and(|t| t.is_punct(b'>')) => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Rank-dependent regions of one fn body (`if`/`while`/`match` whose
/// header mentions rank identity, with `else` chains absorbed), plus loop
/// regions (`for`/`while`/`loop`) for the sequence annotation. Token
/// offsets are relative to the body slice; `base` shifts them absolute.
fn scan_regions(
    body: &str,
    base: usize,
    file_text: &str,
    params: &[String],
) -> (Vec<Region>, Vec<(usize, usize)>) {
    let toks = tokens(body);
    let tainted = rank_tainted_idents(&toks, params);
    let mut guards = Vec::new();
    let mut loops = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(kw) = t.tok else { continue };
        let is_guard_kw = matches!(kw, "if" | "while" | "match");
        let is_loop_kw = matches!(kw, "for" | "while" | "loop");
        if !is_guard_kw && !is_loop_kw {
            continue;
        }
        let Some(open) = header_open_brace(&toks, i) else {
            continue;
        };
        let mut end = brace_block_end(&toks, open);
        if is_loop_kw {
            loops.push((base + toks[open].at, base + toks[end - 1].at));
        }
        if !is_guard_kw || !span_rank_dependent(&toks, i + 1, open, &tainted) {
            continue;
        }
        // Absorb the else chain: a rank-dependent `if` makes every branch
        // rank-selected.
        while kw == "if" && toks.get(end).is_some_and(|t| t.is_ident("else")) {
            let mut j = end + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("if")) {
                match header_open_brace(&toks, j) {
                    Some(o) => j = o,
                    None => break,
                }
            }
            if !toks.get(j).is_some_and(|t| t.is_punct(b'{')) {
                break;
            }
            end = brace_block_end(&toks, j);
        }
        let start_tok = open;
        let end_tok = end.saturating_sub(1);
        let has_return = (start_tok..end).any(|k| toks[k].is_ident("return"));
        guards.push(Region {
            start: base + toks[start_tok].at,
            end: base + toks[end_tok].at,
            guard_line: line_of(file_text, base + t.at),
            has_return,
        });
    }
    (guards, loops)
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Run the collective-order pass over a parsed workspace graph.
pub fn analyze_collectives(graph: &CallGraph) -> CollectivesReport {
    let resolved: Vec<Vec<Resolution>> = graph
        .fns
        .iter()
        .map(|f| f.calls.iter().map(|c| graph.resolve(c)).collect())
        .collect();
    let reach = collective_reach(graph, &resolved);

    let mut report = PassReport::new("collective-order (mismatched-collective) pass");
    let mut diags: Vec<CollectiveDiag> = Vec::new();
    let mut entries = Vec::new();
    let mut rank_regions = 0usize;
    let mut fns_scanned = 0usize;

    for (i, f) in graph.fns.iter().enumerate() {
        let Some((b0, b1)) = f.body else { continue };
        if f.file_id == usize::MAX {
            continue;
        }
        fns_scanned += 1;
        // Collective implementations are internally rank-dependent by
        // protocol; the contract is their call *sites*, not their bodies.
        // `allow(collective)` waives reviewed helpers the same way.
        let seed_impl = COLLECTIVE_SEEDS.contains(&f.name.as_str());
        let waived = f
            .markers
            .iter()
            .any(|m| matches!(m, Marker::Allow(e) if e == "collective"));
        if seed_impl || waived {
            continue;
        }
        let text = &graph.files[f.file_id].stripped;
        let (guards, _loops) = scan_regions(&text[b0..b1], b0, text, &f.params);
        rank_regions += guards.len();
        if guards.is_empty() {
            continue;
        }

        // Collective-reaching calls of this fn, with offsets.
        let reaching: Vec<(usize, &crate::callgraph::CallSite, Option<usize>)> = f
            .calls
            .iter()
            .enumerate()
            .filter_map(|(k, c)| {
                if COLLECTIVE_SEEDS.contains(&c.name.as_str()) {
                    Some((c.offset, c, None))
                } else if let Resolution::Candidates(ids) = &resolved[i][k] {
                    ids.iter()
                        .copied()
                        .find(|&id| reach[id])
                        .map(|id| (c.offset, c, Some(id)))
                } else {
                    None
                }
            })
            .collect();

        for g in &guards {
            for &(off, c, callee) in &reaching {
                let (rule, positional) = if off > g.start && off < g.end {
                    ("collective-rank-divergence", "inside")
                } else if g.has_return && off >= g.end {
                    ("collective-after-rank-return", "after")
                } else {
                    continue;
                };
                let chain = match callee {
                    None => vec![format!("{} ({}:{})", c.name, f.file, c.line)],
                    Some(id) => {
                        let mut ch =
                            vec![format!("{} ({}:{})", graph.fns[id].qual, f.file, c.line)];
                        ch.extend(witness_chain(graph, &resolved, &reach, id));
                        ch
                    }
                };
                let what = if callee.is_none() {
                    format!("collective `{}`", c.name)
                } else {
                    format!("`{}` (reaches a collective)", c.name)
                };
                let message = match rule {
                    "collective-rank-divergence" => format!(
                        "{}:{}: collective-rank-divergence: {what} executes {positional} a \
                         rank-dependent region (guard at line {}) in `{}` — ranks taking \
                         different branches post mismatched collective sequences and \
                         deadlock\n    witness: {}",
                        f.file,
                        c.line,
                        g.guard_line,
                        f.qual,
                        chain.join(" -> ")
                    ),
                    _ => format!(
                        "{}:{}: collective-after-rank-return: rank-dependent region at line {} \
                         in `{}` can return early, but {what} follows it — returning ranks \
                         skip the collective the rest still post\n    witness: {}",
                        f.file,
                        c.line,
                        g.guard_line,
                        f.qual,
                        chain.join(" -> ")
                    ),
                };
                report.push(message.clone());
                diags.push(CollectiveDiag {
                    file: f.file.clone(),
                    line: c.line,
                    guard_line: g.guard_line,
                    rule,
                    func: f.qual.clone(),
                    chain,
                    message,
                });
            }
        }
    }

    // Entry sequences.
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.markers.contains(&Marker::CollectiveEntry) {
            continue;
        }
        let mut seq = Vec::new();
        let mut visited = BTreeSet::from([i]);
        render_sequence(graph, &resolved, &reach, i, &mut visited, 0, &mut seq);
        entries.push(CollectiveEntrySeq {
            qual: f.qual.clone(),
            file: f.file.clone(),
            line: f.line,
            sequence: if seq.is_empty() {
                "(none)".to_string()
            } else {
                seq.join(" · ")
            },
        });
    }
    entries.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    CollectivesReport {
        report,
        diags,
        entries,
        fns_scanned,
        rank_regions,
        reaching_fns: reach.iter().filter(|&&r| r).count(),
    }
}

/// Inline-expanded collective sequence of fn `i`, in source order; `*`
/// marks calls inside a loop of the fn that posts them. Recursion is
/// cycle- and depth-capped (`<qual ...>` placeholder past the cap).
fn render_sequence(
    graph: &CallGraph,
    resolved: &[Vec<Resolution>],
    reach: &[bool],
    i: usize,
    visited: &mut BTreeSet<usize>,
    depth: usize,
    out: &mut Vec<String>,
) {
    let f = &graph.fns[i];
    let loops: Vec<(usize, usize)> = match f.body {
        Some((b0, b1)) if f.file_id != usize::MAX => {
            let text = &graph.files[f.file_id].stripped;
            scan_regions(&text[b0..b1], b0, text, &f.params).1
        }
        _ => Vec::new(),
    };
    for (k, c) in f.calls.iter().enumerate() {
        let starred = loops.iter().any(|&(s, e)| c.offset > s && c.offset < e);
        let star = if starred { "*" } else { "" };
        if COLLECTIVE_SEEDS.contains(&c.name.as_str()) {
            out.push(format!("{}{star}", c.name));
            continue;
        }
        let Resolution::Candidates(ids) = &resolved[i][k] else {
            continue;
        };
        let Some(id) = ids.iter().copied().find(|&id| reach[id]) else {
            continue;
        };
        if depth >= 6 || !visited.insert(id) {
            out.push(format!("<{}…>{star}", graph.fns[id].name));
            continue;
        }
        let mut inner = Vec::new();
        render_sequence(graph, resolved, reach, id, visited, depth + 1, &mut inner);
        visited.remove(&id);
        if inner.is_empty() {
        } else if starred && inner.len() > 1 {
            out.push(format!("({})*", inner.join(" ")));
        } else {
            for item in inner {
                out.push(format!("{item}{star}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> CollectivesReport {
        let mut g = CallGraph::new();
        g.add_source("crates/x/src/lib.rs", src);
        analyze_collectives(&g)
    }

    #[test]
    fn rank_conditional_allreduce_is_flagged() {
        let r = run("fn broken(comm: &mut Comm, x: f64) -> f64 {\n\
                 let mut acc = x;\n\
                 if comm.rank() == 0 {\n\
                     acc = comm.iallreduce(vec![acc], ReduceOp::Sum).wait(comm)[0];\n\
                 }\n\
                 acc\n\
             }\n");
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        let d = &r.diags[0];
        assert_eq!(d.rule, "collective-rank-divergence");
        assert_eq!((d.line, d.guard_line), (4, 3));
        assert!(!r.report.is_clean());
    }

    #[test]
    fn uniform_collective_is_clean() {
        let r = run("fn fine(comm: &mut Comm, x: f64) -> f64 {\n\
                 let s = comm.iallreduce(vec![x], ReduceOp::Sum).wait(comm)[0];\n\
                 if s > 0.0 { s } else { comm.iallreduce(vec![x], ReduceOp::Max).wait(comm)[0] }\n\
             }\n\
             fn loops(comm: &mut Comm) {\n\
                 for rank in 0..comm.size() { let _ = rank; comm.barrier(); }\n\
             }\n");
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        // `for rank in ...` is a uniform loop, not rank divergence: the
        // loop variable shadows nothing rank-dependent.
        assert_eq!(r.rank_regions, 0);
    }

    #[test]
    fn let_alias_of_rank_taints_the_guard() {
        let r = run("fn aliased(comm: &mut Comm) {\n\
                 let me = comm.rank();\n\
                 if me == 0 { comm.barrier(); }\n\
             }\n");
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].guard_line, 3);
    }

    #[test]
    fn divergence_through_helper_has_witness_chain() {
        let r = run(
            "fn helper(comm: &mut Comm) -> u64 { comm.iallreduce(vec![1], ReduceOp::Sum).wait(comm)[0] }\n\
             fn outer(comm: &mut Comm) {\n\
                 if comm.rank() == 0 {\n\
                     helper(comm);\n\
                 }\n\
             }\n",
        );
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        let d = &r.diags[0];
        assert_eq!(d.chain.len(), 2, "{:?}", d.chain);
        assert!(d.chain[0].contains("helper"), "{:?}", d.chain);
        assert!(d.chain[1].starts_with("iallreduce"), "{:?}", d.chain);
    }

    #[test]
    fn early_return_before_collective_is_flagged() {
        let r = run("fn bails(comm: &mut Comm) {\n\
                 if comm.rank() == 0 {\n\
                     return;\n\
                 }\n\
                 comm.barrier();\n\
             }\n");
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "collective-after-rank-return");
    }

    #[test]
    fn else_branch_is_part_of_the_divergent_region() {
        let r = run("fn branches(comm: &mut Comm) {\n\
                 if comm.rank() == 0 {\n\
                     let _ = 1;\n\
                 } else {\n\
                     comm.barrier();\n\
                 }\n\
             }\n");
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "collective-rank-divergence");
    }

    #[test]
    fn seed_impls_and_waivers_are_exempt() {
        let r = run(
            "fn bcast(comm: &mut Comm) { if comm.rank() == 0 { comm.barrier(); } }\n\
             // verify: allow(collective)\n\
             fn reviewed(comm: &mut Comm) { if comm.rank() == 0 { comm.barrier(); } }\n",
        );
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn entry_sequence_renders_with_loop_star() {
        let r = run("// verify: collective-entry\n\
             fn phase(comm: &mut Comm) {\n\
                 comm.allgather_u64(vec![]);\n\
                 loop {\n\
                     comm.iallreduce(vec![], ReduceOp::Sum);\n\
                 }\n\
             }\n");
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].sequence, "allgather_u64 · iallreduce*");
    }
}
