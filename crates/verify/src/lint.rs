//! The workspace lint pass: source-level rules the type system cannot
//! express, enforced by a comment/string-aware token scan (the build
//! sandbox has no `syn`, so this is a hand-rolled lexer, not a full
//! parser — see the soundness notes in `DESIGN.md` §9).
//!
//! Rules:
//!
//! * **`raw-tag-literal`** — every `Comm` call site must pass its tag as a
//!   named constant, never an integer literal: literals silently collide
//!   across modules and can wander into the reserved range
//!   [`hymv_comm::RESERVED_TAG_BASE`] that the runtime auditor owns.
//! * **`blocking-recv-in-overlap`** — between `scatter_begin` and
//!   `scatter_end` only computation may run; a blocking `recv`/`recv_any`
//!   there destroys the communication/computation overlap Algorithm 2
//!   exists to provide (and can deadlock against the in-flight scatter).
//! * **`unsafe-without-safety`** — each `#[allow(unsafe_code)]` opt-out
//!   must carry a `// SAFETY:` comment within three lines, stating the
//!   invariant that makes the unsafe block sound.
//! * **`nondeterminism-in-kernel`** — wall-clock and ambient-RNG calls are
//!   banned inside the numerical crates (`crates/la`, `crates/core`):
//!   HYMV's results must be bitwise reproducible, and its timing flows
//!   through the virtual-time ledger (`thread_cpu_time`), not wall clocks.
//! * **`ledger-access-in-kernel`** — the virtual-time ledger is owned by
//!   `hymv-comm`: operator and kernel code must never read the thread
//!   clock (`thread_cpu_time`) or touch the [`hymv_comm::Ledger`]
//!   directly. Doing so double-charges or skips virtual time, skewing
//!   every traced span and the `vt_seconds` gauges. Timing flows only
//!   through `Comm::work`/`work_with`/`timed_work`/`traced`.
//! * **`envelope-bypass`** — per-SPMV ghost traffic (`TAG_SCATTER`,
//!   `TAG_GATHER`, `TAG_GHOSTS`) must ride the sequence-numbered,
//!   checksummed envelope channel (`send_enveloped`/`recv_enveloped`);
//!   a raw `isend`/`recv` on those tags silently opts out of loss,
//!   duplication, and corruption recovery (DESIGN.md §10). No module is
//!   exempt: the envelope is the only ghost-exchange wire format.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::line_of;
pub use crate::lexer::strip_comments_and_strings;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation with the offending snippet.
    pub message: String,
}

impl fmt::Display for LintDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Find every `name(` call site in `stripped` where `name` stands alone as
/// an identifier (not a suffix of a longer name), yielding the byte offset
/// of the name.
pub(crate) fn call_sites<'a>(stripped: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = stripped.as_bytes();
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(rel) = stripped[from..].find(name) {
            let at = from + rel;
            from = at + name.len();
            let pre_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
            // Allow whitespace between the name and the open paren.
            let mut j = at + name.len();
            while j < b.len() && (b[j] == b' ' || b[j] == b'\t' || b[j] == b'\n') {
                j += 1;
            }
            if pre_ok && j < b.len() && b[j] == b'(' {
                return Some(at);
            }
        }
        None
    })
}

/// Split the argument list of the call whose `(` is at `open`, honoring
/// nested parens/brackets/braces. Returns `(args, close_offset)`; `None`
/// if the call is unterminated.
pub(crate) fn split_args(stripped: &str, open: usize) -> Option<(Vec<&str>, usize)> {
    let b = stripped.as_bytes();
    debug_assert_eq!(b[open], b'(');
    let mut depth = 0isize;
    let mut args = Vec::new();
    let mut arg_start = open + 1;
    let mut j = open;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    args.push(&stripped[arg_start..j]);
                    return Some((args, j));
                }
            }
            b',' if depth == 1 => {
                args.push(&stripped[arg_start..j]);
                arg_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// True if `arg` is a bare integer literal (decimal or hex, underscores,
/// optional `u32`/`usize`-style suffix) — the thing the tag rule bans.
pub(crate) fn is_int_literal(arg: &str) -> bool {
    let t = arg.trim();
    if t.is_empty() {
        return false;
    }
    let (body, hex) = t
        .strip_prefix("0x")
        .or_else(|| t.strip_prefix("0X"))
        .map_or((t, false), |rest| (rest, true));
    if body.is_empty() {
        return false;
    }
    let mut seen_digit = false;
    for (pos, c) in body.char_indices() {
        let is_digit = if hex {
            c.is_ascii_hexdigit()
        } else {
            c.is_ascii_digit()
        };
        if is_digit {
            seen_digit = true;
        } else if c == '_' {
            continue;
        } else {
            // Allow an integer-type suffix (u32, i64, usize...).
            let suffix = &body[pos..];
            return seen_digit
                && matches!(
                    suffix,
                    "u8" | "u16" | "u32" | "u64" | "usize" | "i8" | "i16" | "i32" | "i64" | "isize"
                );
        }
    }
    seen_digit
}

/// Parse the numeric value of a literal the tag rule flagged (for the
/// reserved-range note); underscores and suffixes tolerated.
fn literal_value(arg: &str) -> Option<u64> {
    let t: String = arg.trim().chars().filter(|&c| c != '_').collect();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        u64::from_str_radix(&hex, 16).ok()
    } else {
        let dec: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
        dec.parse().ok()
    }
}

/// Comm-API methods taking a tag, with the tag's 0-based argument index.
pub(crate) const TAG_METHODS: &[(&str, usize)] = &[
    ("isend", 1),
    ("irecv", 1),
    ("recv", 1),
    ("send", 1),
    ("exchange_sparse", 1),
    ("recv_any", 0),
];

fn lint_raw_tags(file: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    for &(name, tag_pos) in TAG_METHODS {
        for at in call_sites(stripped, name) {
            let open = at + stripped[at..].find('(').expect("call site has paren");
            let Some((args, _)) = split_args(stripped, open) else {
                continue;
            };
            let Some(arg) = args.get(tag_pos) else {
                continue;
            };
            if is_int_literal(arg) {
                let lit = arg.trim();
                let reserved_note = match literal_value(arg) {
                    Some(v) if v >= u64::from(hymv_comm::RESERVED_TAG_BASE) => format!(
                        " — worse, it lies in the reserved range (>= {:#x}) owned by the runtime",
                        hymv_comm::RESERVED_TAG_BASE
                    ),
                    _ => String::new(),
                };
                out.push(LintDiag {
                    file: file.to_string(),
                    line: line_of(stripped, at),
                    rule: "raw-tag-literal",
                    message: format!(
                        "`{name}` called with raw tag literal `{lit}`; use a named tag \
                         constant{reserved_note}"
                    ),
                });
            }
        }
    }
}

fn lint_recv_in_overlap(file: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    // Collect overlap windows: from each `scatter_begin(` to the next
    // `scatter_end(`.
    let begins: Vec<usize> = call_sites(stripped, "scatter_begin").collect();
    let ends: Vec<usize> = call_sites(stripped, "scatter_end").collect();
    for &b in &begins {
        let close = ends
            .iter()
            .copied()
            .find(|&e| e > b)
            .unwrap_or(stripped.len());
        for name in ["recv", "recv_any"] {
            for at in call_sites(stripped, name) {
                if at > b && at < close {
                    out.push(LintDiag {
                        file: file.to_string(),
                        line: line_of(stripped, at),
                        rule: "blocking-recv-in-overlap",
                        message: format!(
                            "blocking `{name}` inside the scatter overlap window (between \
                             `scatter_begin` at line {} and `scatter_end`): only computation \
                             may run while the scatter is in flight",
                            line_of(stripped, b)
                        ),
                    });
                }
            }
        }
    }
}

/// Lines a `// SAFETY:` comment may sit away from its
/// `#[allow(unsafe_code)]` attribute.
const SAFETY_RADIUS: usize = 3;

fn lint_unsafe_safety(file: &str, original: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    // Attribute detection on the stripped text (so the token inside a
    // string or comment doesn't count); SAFETY search on the original
    // (the SAFETY comment *is* a comment).
    let lines: Vec<&str> = original.lines().collect();
    for (idx, l) in stripped.lines().enumerate() {
        if !l.contains("#[allow(unsafe_code)]") {
            continue;
        }
        let lo = idx.saturating_sub(SAFETY_RADIUS);
        let hi = (idx + SAFETY_RADIUS + 1).min(lines.len());
        if !lines[lo..hi].iter().any(|n| n.contains("SAFETY")) {
            out.push(LintDiag {
                file: file.to_string(),
                line: idx + 1,
                rule: "unsafe-without-safety",
                message: format!(
                    "`#[allow(unsafe_code)]` without a `// SAFETY:` comment within \
                     {SAFETY_RADIUS} lines: state the invariant that makes the unsafe sound"
                ),
            });
        }
    }
}

/// Banned nondeterminism sources inside the numerical crates.
const KERNEL_BANNED: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock time"),
    ("SystemTime", "wall-clock time"),
    ("gettimeofday", "wall-clock time"),
    ("thread_rng", "ambient (OS-seeded) RNG"),
    ("rand::random", "ambient (OS-seeded) RNG"),
    ("from_entropy", "OS-entropy RNG seeding"),
];

fn lint_kernel_nondeterminism(file: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    for &(pat, what) in KERNEL_BANNED {
        let mut from = 0usize;
        while let Some(rel) = stripped[from..].find(pat) {
            let at = from + rel;
            from = at + pat.len();
            let b = stripped.as_bytes();
            let pre_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
            let post = at + pat.len();
            let post_ok = post >= b.len() || !(b[post].is_ascii_alphanumeric() || b[post] == b'_');
            if pre_ok && post_ok {
                out.push(LintDiag {
                    file: file.to_string(),
                    line: line_of(stripped, at),
                    rule: "nondeterminism-in-kernel",
                    message: format!(
                        "`{pat}` ({what}) inside a kernel crate: results must be bitwise \
                         reproducible; time flows through the virtual-time ledger \
                         (`thread_cpu_time`) only"
                    ),
                });
            }
        }
    }
}

/// True when `file` (workspace-relative, `/`-separated) belongs to the
/// numerical kernel crates the nondeterminism rule guards.
fn is_kernel_file(file: &str) -> bool {
    let f = file.replace('\\', "/");
    f.starts_with("crates/la/src/") || f.starts_with("crates/core/src/")
}

/// Identifiers only the comm crate may touch: reading the thread clock or
/// the ledger directly from operator code corrupts the virtual-time
/// accounting every trace span is stamped with.
const LEDGER_BANNED: &[(&str, &str)] = &[
    ("thread_cpu_time", "direct thread-clock read"),
    ("Ledger", "direct ledger access"),
];

fn lint_ledger_access(file: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    let b = stripped.as_bytes();
    let mut hits: Vec<(usize, &str, &str)> = Vec::new();
    for &(pat, what) in LEDGER_BANNED {
        let mut from = 0usize;
        while let Some(rel) = stripped[from..].find(pat) {
            let at = from + rel;
            from = at + pat.len();
            let pre_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
            let post = at + pat.len();
            let post_ok = post >= b.len() || !(b[post].is_ascii_alphanumeric() || b[post] == b'_');
            if pre_ok && post_ok {
                hits.push((at, pat, what));
            }
        }
    }
    // The `Comm::ledger()` accessor is the same back door by another name.
    for at in call_sites(stripped, "ledger") {
        hits.push((at, "ledger()", "direct ledger access"));
    }
    for (at, pat, what) in hits {
        out.push(LintDiag {
            file: file.to_string(),
            line: line_of(stripped, at),
            rule: "ledger-access-in-kernel",
            message: format!(
                "`{pat}` ({what}) inside a kernel crate: the virtual-time ledger is owned \
                 by hymv-comm; charge time through `Comm::work`/`work_with`/`timed_work`/\
                 `traced` so spans and vt gauges stay consistent"
            ),
        });
    }
}

/// Ghost-exchange tags whose traffic must use the envelope channel.
const ENVELOPE_TAGS: &[&str] = &["TAG_SCATTER", "TAG_GATHER", "TAG_GHOSTS"];

/// True if the trimmed argument *is* the named constant (optionally
/// path-qualified), not merely a longer identifier containing it.
fn is_tag_const(arg: &str, name: &str) -> bool {
    let t = arg.trim();
    t == name || t.ends_with(&format!("::{name}"))
}

fn lint_envelope_bypass(file: &str, stripped: &str, out: &mut Vec<LintDiag>) {
    for &(name, tag_pos) in TAG_METHODS {
        for at in call_sites(stripped, name) {
            let open = at + stripped[at..].find('(').expect("call site has paren");
            let Some((args, _)) = split_args(stripped, open) else {
                continue;
            };
            let Some(arg) = args.get(tag_pos) else {
                continue;
            };
            if let Some(tag) = ENVELOPE_TAGS.iter().find(|t| is_tag_const(arg, t)) {
                out.push(LintDiag {
                    file: file.to_string(),
                    line: line_of(stripped, at),
                    rule: "envelope-bypass",
                    message: format!(
                        "raw `{name}` on `{tag}`: ghost-exchange traffic must use the \
                         sequence-numbered/checksummed envelope channel \
                         (`send_enveloped`/`recv_enveloped`) so injected loss, duplication, \
                         and corruption are recovered (DESIGN.md §10)"
                    ),
                });
            }
        }
    }
}

/// Lint one source file's text. `file` is the workspace-relative label
/// used in diagnostics (and for the kernel-crate scoping).
///
/// Content rules run on comment/string-stripped text truncated at the
/// first `#[cfg(test)]` line (test modules are file-final in this
/// workspace and legitimately use literal tags and RNGs); the SAFETY rule
/// runs on the full original text.
pub fn lint_source(file: &str, text: &str) -> Vec<LintDiag> {
    let mut out = Vec::new();
    let stripped_full = strip_comments_and_strings(text);
    let code = match stripped_full.find("#[cfg(test)]") {
        Some(at) => &stripped_full[..at],
        None => &stripped_full[..],
    };
    lint_raw_tags(file, code, &mut out);
    lint_recv_in_overlap(file, code, &mut out);
    lint_envelope_bypass(file, code, &mut out);
    if is_kernel_file(file) {
        lint_kernel_nondeterminism(file, code, &mut out);
        lint_ledger_access(file, code, &mut out);
    }
    lint_unsafe_safety(file, text, &stripped_full, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn walk_rs(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Integration tests and benches use literal tags and ambient
            // randomness legitimately; target/vendor are not ours.
            if matches!(&*name, "target" | "vendor" | "tests" | "benches" | ".git") {
                continue;
            }
            walk_rs(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// Lint every non-test source file of the workspace rooted at `root`
/// (must contain `Cargo.toml`): `src/` and `crates/*/src/`, skipping
/// `vendor/`, `target/`, `tests/`, and `benches/`.
pub fn lint_workspace(root: &Path) -> Result<Vec<LintDiag>, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    walk_rs(&root.join("src"), &mut files);
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut entries: Vec<_> = entries.flatten().collect();
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for entry in entries {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files);
            }
        }
    }
    let mut out = Vec::new();
    for path in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&label, &text));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings_preserving_lines() {
        let src = "let a = 1; // recv(0, 7)\nlet s = \"isend(1, 7, x)\";\n/* recv_any(3) */ let c = 'x';\nlet l: &'static str = s;\n";
        let out = strip_comments_and_strings(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(!out.contains("recv"));
        assert!(!out.contains("isend"));
        assert!(out.contains("'static"), "{out}");
        assert!(!out.contains("'x'"));
    }

    #[test]
    fn stripper_handles_nested_and_raw() {
        let src = "/* outer /* inner recv(0,1) */ still */ let r = r#\"recv_any(2)\"#;";
        let out = strip_comments_and_strings(src);
        assert!(!out.contains("recv"), "{out}");
    }

    #[test]
    fn raw_tag_literal_flagged_with_line() {
        let src = "fn f(comm: &mut Comm) {\n    comm.isend(next, 7, payload);\n}\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "raw-tag-literal");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains('7'), "{}", v[0].message);
    }

    #[test]
    fn named_tags_and_lookalike_methods_pass() {
        let src = "comm.isend(next, TAG_TRIPLES, payload);\n\
                   comm.isend_internal(next, 7, x);\n\
                   let recv_plan = plans.recv_plan(0);\n\
                   comm.recv(src, tag);\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn recv_any_literal_is_arg_zero() {
        let src = "let m = comm.recv_any(3);\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("recv_any"));
    }

    #[test]
    fn reserved_range_literal_gets_extra_note() {
        let src = "comm.isend(1, 0xF000_0001, x);\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("reserved range"), "{}", v[0].message);
    }

    #[test]
    fn blocking_recv_in_overlap_flagged() {
        let src = "ex.scatter_begin(comm, &u);\nlet m = comm.recv(peer, TAG_X);\nex.scatter_end(comm, &mut u);\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "blocking-recv-in-overlap");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn irecv_in_overlap_passes() {
        let src = "ex.scatter_begin(comm, &u);\nlet h = comm.irecv(peer, TAG_X);\nex.scatter_end(comm, &mut u);\nlet m = comm.recv(peer, TAG_X);\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let src = "fn f() {\n    #[allow(unsafe_code)]\n    unsafe { do_it() }\n}\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-without-safety");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_nearby_safety_passes() {
        let src =
            "// SAFETY: the contract holds because X.\n#[allow(unsafe_code)]\nunsafe { do_it() }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn kernel_nondeterminism_scoped_to_kernel_crates() {
        let src = "let t = Instant::now();\nlet r = thread_rng();\n";
        let v = lint_source("crates/core/src/foo.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|d| d.rule == "nondeterminism-in-kernel"));
        // The same text outside a kernel crate is fine (e.g. bench code).
        assert!(lint_source("crates/bench/src/foo.rs", src).is_empty());
    }

    #[test]
    fn ledger_access_scoped_to_kernel_crates() {
        let src = "let t0 = hymv_comm::thread_cpu_time();\n\
                   let l: &Ledger = comm.ledger();\n";
        let v = lint_source("crates/la/src/foo.rs", src);
        assert_eq!(v.len(), 3, "{v:?}"); // thread_cpu_time + Ledger + ledger()
        assert!(v.iter().all(|d| d.rule == "ledger-access-in-kernel"));
        assert_eq!(v[0].line, 1);
        // Sanctioned timing APIs and lookalike identifiers pass.
        let ok = "let (out, dt) = comm.timed_work(|c| pack(c));\n\
                  let stats = comm.stats();\nlet my_ledger = 1;\n";
        assert!(lint_source("crates/core/src/foo.rs", ok).is_empty());
        // Outside the kernel crates (e.g. the comm crate itself, bench
        // harnesses) the ledger is fair game.
        assert!(lint_source("crates/bench/src/foo.rs", src).is_empty());
    }

    #[test]
    fn envelope_bypass_flagged_everywhere() {
        let src = "comm.isend(next, TAG_SCATTER, payload);\n\
                   let v = comm.recv(peer, TAG_GHOSTS);\n\
                   comm.isend(next, exchange::TAG_GATHER, payload);\n";
        let v = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|d| d.rule == "envelope-bypass"));
        assert_eq!(v[0].line, 1);
        assert!(v[1].message.contains("TAG_GHOSTS"), "{}", v[1].message);
    }

    #[test]
    fn enveloped_calls_pass() {
        // The modules that own the ghost tags get no exemption.
        let src = "comm.isend(next, TAG_SCATTER, payload);\n";
        assert_eq!(lint_source("crates/core/src/exchange.rs", src).len(), 1);
        assert_eq!(lint_source("crates/la/src/dist_csr.rs", src).len(), 1);
        let ok = "comm.send_enveloped(next, TAG_SCATTER, &vals);\n\
                  let v = comm.recv_enveloped(peer, TAG_GATHER);\n\
                  comm.isend(next, TAG_SCATTERED, payload);\n";
        assert!(lint_source("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_content_rules() {
        let src = "comm.recv(src, tag);\n#[cfg(test)]\nmod tests {\n    fn t(comm: &mut Comm) { comm.isend(1, 7, x); }\n}\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }
}
