//! Workspace call-graph construction for the interprocedural effect
//! analysis (`hymv-verify effects`).
//!
//! Built on the shared [`crate::lexer`]: each source file is stripped of
//! comments/strings, tokenized, and walked by a brace-tracking item
//! parser that records every `fn` item (with its `impl` context, parameter
//! names, and body span) and every call site inside a body (bare calls,
//! `.method(...)` calls, `Path::assoc(...)` calls, `mac!(...)` macros, and
//! `(expr)(...)` indirect calls). `// verify: ...` marker comments in the
//! *original* text are parsed and attached to the next `fn` item.
//!
//! This is resolution **by name**, not by type: a call resolves to every
//! workspace function sharing its (qualified) name that the calling crate
//! can reach — its own, those of the `hymv-*` crates it depends on
//! (transitively, read from the `Cargo.toml`s), and trait-impl methods,
//! which generic code dispatches into downstream — and the effect
//! solver joins over all candidates. That over-approximates reachable effects
//! (sound for the phase rules, which reject on reachability) except where
//! calls leave the parsed world — free functions of external crates are
//! unknown (assumed pure unless in the intrinsic seed table) and indirect
//! calls are ⊤. DESIGN.md §12 states the caveats precisely.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs;
use std::path::Path;

use crate::lexer::{line_of, strip_comments_and_strings, tokens, Tok, Token};

/// A `// verify: ...` marker directive attached to a function. Markers are
/// the anchors the inference cannot derive itself: trusted purity
/// assertions, effect declarations for behavior hidden behind data flow
/// (e.g. a `dependent: bool` argument selecting ghost reads), waivers, and
/// analysis entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    /// `pure` — force this fn's effect summary to ∅ (a trusted anchor;
    /// the fn is opaque to the analysis from here down).
    Pure,
    /// `kernel-entry` — numerical kernel entry point: the kernel purity
    /// rules (no ledger access, no wall clock/ambient RNG) apply to
    /// everything reachable from here.
    KernelEntry,
    /// `collective-entry` — a phase entry point whose inferred collective
    /// sequence the collective-order pass reports (and whose reachable
    /// code the rank-divergence rule certifies).
    CollectiveEntry,
    /// `effect(name)` — add the named effect to this fn's direct effects
    /// (names as in [`crate::effects::effect::parse`], e.g. `ghost-read`).
    Effect(String),
    /// `allow(name)` — waive the named effect from this fn's *summary*
    /// (it still propagates to the waiving fn itself, not to callers).
    Allow(String),
}

impl Marker {
    /// Parse one comma-separated `// verify:` directive list.
    fn parse_list(body: &str) -> Vec<Marker> {
        let mut out = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let m = if part == "pure" {
                Marker::Pure
            } else if part == "kernel-entry" {
                Marker::KernelEntry
            } else if part == "collective-entry" {
                Marker::CollectiveEntry
            } else if let Some(inner) = part
                .strip_prefix("effect(")
                .and_then(|r| r.strip_suffix(')'))
            {
                Marker::Effect(inner.trim().to_string())
            } else if let Some(inner) = part
                .strip_prefix("allow(")
                .and_then(|r| r.strip_suffix(')'))
            {
                Marker::Allow(inner.trim().to_string())
            } else {
                continue; // unknown directives are reported by the caller
            };
            out.push(m);
        }
        out
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: last path segment; macro names keep their `!`.
    pub name: String,
    /// Qualifier, if syntactically visible: `Vec::new` → `Some("Vec")`,
    /// `comm.recv(..)` → `Some("comm")` (the receiver *expression* head —
    /// a value, not a type; resolution treats it as a weak hint only).
    pub hint: Option<String>,
    /// `.name(...)` method-call syntax.
    pub method: bool,
    /// `(expr)(...)` / `arr[i](...)` — an indirect call through a function
    /// value. Resolves to ⊤ (any effect).
    pub dynamic: bool,
    /// Byte offset of the name in the stripped text.
    pub offset: usize,
    /// 1-based source line.
    pub line: usize,
    /// Trimmed argument texts (receiver excluded for method calls).
    pub args: Vec<String>,
    /// The [`CallGraph::files`] entry the call is in (`usize::MAX` for
    /// synthetic test edges); scopes its resolution to the caller's crate.
    pub file_id: usize,
}

/// One `fn` item of the parsed workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Bare name.
    pub name: String,
    /// Qualified name: `Type::name` for fns inside `impl` blocks,
    /// `file_stem::name` for free fns.
    pub qual: String,
    /// Workspace-relative file label.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names in order, `self` excluded (so argument index `i`
    /// of a method call lines up with parameter index `i`).
    pub params: Vec<String>,
    /// Attached `// verify:` markers.
    pub markers: Vec<Marker>,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Inside an `impl Trait for Type` block.
    pub trait_impl: bool,
    /// Byte span of the body in the file's stripped text (after `{`, up to
    /// the matching `}`), if the item has a body. Index into
    /// [`CallGraph::files`] via `file_id`.
    pub body: Option<(usize, usize)>,
    /// Which [`CallGraph::files`] entry this fn was parsed from
    /// (`usize::MAX` for synthetic test nodes).
    pub file_id: usize,
}

/// One parsed source file (kept so downstream passes — the bounds
/// interpreter — can re-slice fn bodies).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative label.
    pub label: String,
    /// Comment/string-stripped text (same length as the original).
    pub stripped: String,
}

/// How a call site resolves against the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Indirect call: any effect is possible.
    Dynamic,
    /// Candidate fn ids sharing the (qualified) name; the solver joins
    /// over all of them.
    Candidates(Vec<usize>),
    /// No workspace fn of this name (an external or std call). Assumed
    /// effect-free unless the intrinsic seed table says otherwise.
    Unknown,
}

/// A parse-level problem worth surfacing (unknown marker directive,
/// orphaned marker with no following `fn`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNote {
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnNode>,
    pub notes: Vec<ParseNote>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<String, Vec<usize>>,
    /// Per crate (its directory under `crates/`): the crates its code can
    /// call — itself and its `hymv-*` dependencies, transitively. Empty
    /// for graphs built without manifests, where every name resolves
    /// workspace-wide.
    visible: HashMap<String, BTreeSet<String>>,
}

/// The crate directory of a workspace label (`crates/<name>/...`).
fn crate_of(label: &str) -> Option<&str> {
    label.strip_prefix("crates/")?.split('/').next()
}

/// The `hymv-*` crates a manifest's `[dependencies]` name, as directory
/// names (`hymv-comm` → `comm`).
fn manifest_deps(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps {
            if let Some(rest) = line.strip_prefix("hymv-") {
                let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                deps.push(rest[..end.unwrap_or(rest.len())].to_string());
            }
        }
    }
    deps
}

/// Max lines a `// verify:` marker may precede its `fn` by (attributes and
/// the signature may sit between).
const MARKER_RADIUS: usize = 8;

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "unsafe", "else", "let",
    "fn", "impl", "pub", "where", "break", "continue", "use", "mod", "struct", "enum", "trait",
    "type", "const", "static", "ref", "mut", "dyn", "Self", "crate", "super", "await", "async",
    "box", "yield",
];

impl CallGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse one source file into the graph. `label` is the
    /// workspace-relative path used in diagnostics; the module component
    /// of free-fn qualified names is its file stem.
    pub fn add_source(&mut self, label: &str, text: &str) {
        let stripped = strip_comments_and_strings(text);
        // Test modules are file-final in this workspace and legitimately
        // use literal tags, RNGs, and blocking receives: truncate, same as
        // the lint pass.
        let code_end = stripped.find("#[cfg(test)]").unwrap_or(stripped.len());
        let file_id = self.files.len();
        let module = Path::new(label)
            .file_stem()
            .map_or_else(|| label.to_string(), |s| s.to_string_lossy().into_owned());

        let toks = tokens(&stripped[..code_end]);
        let first_fn = self.fns.len();
        self.parse_items(&toks, &stripped, label, file_id, &module);
        self.attach_markers(label, text, first_fn);
        self.files.push(SourceFile {
            label: label.to_string(),
            stripped,
        });
        for idx in first_fn..self.fns.len() {
            self.index_fn(idx);
        }
    }

    /// Load the analyzed crates of the workspace at `root`: every runtime
    /// crate, including the `serve`/`check`/`mesh`/`prof`/`bench` layers
    /// the PR-6 analysis stopped short of (only the analyzer itself stays
    /// out of its own scope).
    pub fn load_workspace(root: &Path) -> Result<Self, String> {
        if !root.join("Cargo.toml").is_file() {
            return Err(format!(
                "{} is not a workspace root (no Cargo.toml)",
                root.display()
            ));
        }
        let mut graph = CallGraph::new();
        let mut direct: HashMap<String, Vec<String>> = HashMap::new();
        for krate in [
            "comm", "core", "la", "gpu", "fem", "trace", "serve", "check", "mesh", "prof", "bench",
        ] {
            if let Ok(manifest) =
                fs::read_to_string(root.join("crates").join(krate).join("Cargo.toml"))
            {
                direct.insert(krate.to_string(), manifest_deps(&manifest));
            }
            let src = root.join("crates").join(krate).join("src");
            let mut files = Vec::new();
            walk_rs(&src, &mut files);
            for path in files {
                let text = fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let label = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                graph.add_source(&label, &text);
            }
        }
        for krate in direct.keys() {
            let mut seen = BTreeSet::from([krate.clone()]);
            let mut stack = vec![krate.clone()];
            while let Some(k) = stack.pop() {
                for d in direct.get(&k).into_iter().flatten() {
                    if seen.insert(d.clone()) {
                        stack.push(d.clone());
                    }
                }
            }
            graph.visible.insert(krate.clone(), seen);
        }
        Ok(graph)
    }

    /// Add a bodiless synthetic fn for solver tests. `qual` is
    /// `Type::name` or a bare name.
    pub fn add_synthetic_fn(&mut self, qual: &str) -> usize {
        let name = qual.rsplit("::").next().unwrap_or(qual).to_string();
        let idx = self.fns.len();
        self.fns.push(FnNode {
            name,
            qual: qual.to_string(),
            file: "<synthetic>".to_string(),
            line: idx + 1,
            params: Vec::new(),
            markers: Vec::new(),
            is_unsafe: false,
            calls: Vec::new(),
            trait_impl: false,
            body: None,
            file_id: usize::MAX,
        });
        self.index_fn(idx);
        idx
    }

    /// Add a synthetic `caller → callee_name(args...)` edge (solver tests).
    pub fn add_synthetic_call(&mut self, caller: usize, callee: &str, args: &[&str]) {
        let line = self.fns[caller].line;
        self.fns[caller].calls.push(CallSite {
            name: callee.to_string(),
            hint: None,
            method: false,
            dynamic: false,
            offset: 0,
            line,
            args: args.iter().map(ToString::to_string).collect(),
            file_id: usize::MAX,
        });
    }

    /// Add a synthetic indirect call (resolves to ⊤).
    pub fn add_dynamic_call(&mut self, caller: usize) {
        let line = self.fns[caller].line;
        self.fns[caller].calls.push(CallSite {
            name: "<indirect>".to_string(),
            hint: None,
            method: false,
            dynamic: true,
            offset: 0,
            line,
            args: Vec::new(),
            file_id: usize::MAX,
        });
    }

    /// Attach a marker to a fn after the fact (synthetic tests).
    pub fn mark(&mut self, idx: usize, marker: Marker) {
        self.fns[idx].markers.push(marker);
    }

    /// Resolve a call site to candidate workspace fns.
    pub fn resolve(&self, call: &CallSite) -> Resolution {
        if call.dynamic {
            return Resolution::Dynamic;
        }
        match self
            .lookup(call)
            .map(|ids| self.reachable_from(call.file_id, ids))
        {
            Some(ids) if !ids.is_empty() => Resolution::Candidates(ids),
            _ => Resolution::Unknown,
        }
    }

    /// The workspace fns `call` names, before crate scoping.
    fn lookup(&self, call: &CallSite) -> Option<&Vec<usize>> {
        // A `Type::name` path hint resolves narrowly when the qualified
        // name is known (a value-receiver hint like `comm` never is —
        // lowercase heads fall through to the bare-name multimap).
        if let Some(h) = &call.hint {
            if !call.method {
                if let Some(ids) = self.by_qual.get(&format!("{h}::{}", call.name)) {
                    return Some(ids);
                }
                if h.chars().next().is_some_and(char::is_uppercase) {
                    // A typed path (`Foo::bar`) that names no workspace
                    // item is external: don't fall back to the bare-name
                    // multimap, which would conflate `Vec::new` with every
                    // workspace `new`.
                    return None;
                }
            }
        }
        self.by_name.get(&call.name)
    }

    /// The candidates code in file `file_id` can call: fns of its crate
    /// and the crates it depends on, plus trait-impl methods anywhere
    /// (generic code dispatches into downstream impls).
    fn reachable_from(&self, file_id: usize, ids: &[usize]) -> Vec<usize> {
        let caller = self.files.get(file_id).and_then(|f| crate_of(&f.label));
        let Some(visible) = caller.and_then(|k| self.visible.get(k)) else {
            return ids.to_vec();
        };
        let reachable =
            |f: &FnNode| f.trait_impl || crate_of(&f.file).is_none_or(|k| visible.contains(k));
        ids.iter()
            .copied()
            .filter(|&id| reachable(&self.fns[id]))
            .collect()
    }

    fn index_fn(&mut self, idx: usize) {
        let f = &self.fns[idx];
        self.by_name.entry(f.name.clone()).or_default().push(idx);
        self.by_qual.entry(f.qual.clone()).or_default().push(idx);
    }

    /// The brace-tracking item walk: track `impl` contexts, open `fn`
    /// items on their body `{`, record call sites while inside a body.
    fn parse_items(
        &mut self,
        toks: &[Token<'_>],
        stripped: &str,
        label: &str,
        file_id: usize,
        module: &str,
    ) {
        #[derive(Debug)]
        enum Ctx {
            /// `impl [Trait for] Type`: the type, and whether it is a
            /// trait impl.
            Impl(String, bool),
            Fn(usize),
            Brace,
        }
        let mut stack: Vec<Ctx> = Vec::new();
        // Set when an `impl`/`fn` header was parsed and its `{` is pending.
        let mut pending: Option<Ctx> = None;
        let mut i = 0usize;
        while i < toks.len() {
            match toks[i].tok {
                Tok::Ident("impl") => {
                    if let Some((ty, tr, brace_at)) = parse_impl_header(toks, i) {
                        pending = Some(Ctx::Impl(ty, tr));
                        i = brace_at;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                Tok::Ident("fn") => {
                    if let Some(h) = parse_fn_header(toks, i) {
                        let impl_ctx = stack.iter().rev().find_map(|c| match c {
                            Ctx::Impl(t, tr) => Some((t, *tr)),
                            _ => None,
                        });
                        let qual = match impl_ctx {
                            Some((t, _)) => format!("{t}::{}", h.name),
                            None => format!("{module}::{}", h.name),
                        };
                        let trait_impl = impl_ctx.is_some_and(|(_, tr)| tr);
                        let is_unsafe = i >= 1 && toks[i - 1].is_ident("unsafe")
                            || i >= 2 && toks[i - 2].is_ident("unsafe");
                        let idx = self.fns.len();
                        self.fns.push(FnNode {
                            name: h.name,
                            qual,
                            file: label.to_string(),
                            line: line_of(stripped, toks[i].at),
                            params: h.params,
                            markers: Vec::new(),
                            is_unsafe,
                            calls: Vec::new(),
                            trait_impl,
                            body: None,
                            file_id,
                        });
                        if let Some(end) = h.body_open {
                            pending = Some(Ctx::Fn(idx));
                            i = end;
                        } else {
                            i = h.resume; // trait declaration: no body
                        }
                    } else {
                        i += 1;
                    }
                    continue;
                }
                Tok::Punct(b'{') => {
                    stack.push(pending.take().unwrap_or(Ctx::Brace));
                    if let Some(Ctx::Fn(idx)) = stack.last() {
                        // Only the *outermost* body span is recorded (a
                        // nested fn keeps its own).
                        if self.fns[*idx].body.is_none() {
                            self.fns[*idx].body = Some((toks[i].at + 1, stripped.len()));
                        }
                    }
                    i += 1;
                    continue;
                }
                Tok::Punct(b'}') => {
                    if let Some(Ctx::Fn(idx)) = stack.last() {
                        let idx = *idx;
                        if let Some((start, _)) = self.fns[idx].body {
                            self.fns[idx].body = Some((start, toks[i].at));
                        }
                    }
                    stack.pop();
                    i += 1;
                    continue;
                }
                Tok::Ident(name) => {
                    // A call site requires an enclosing fn body.
                    let owner = stack.iter().rev().find_map(|c| match c {
                        Ctx::Fn(idx) => Some(*idx),
                        _ => None,
                    });
                    if let Some(owner) = owner {
                        if let Some((mut site, resume)) =
                            parse_call(toks, i, stripped, name, file_id)
                        {
                            // `Self::helper(...)` would otherwise resolve
                            // against the unknown qual `Self::helper` and
                            // be dropped as external; substitute the
                            // enclosing impl type so the edge is real.
                            if site.hint.as_deref() == Some("Self") {
                                if let Some(ty) = stack.iter().rev().find_map(|c| match c {
                                    Ctx::Impl(t, _) => Some(t.clone()),
                                    _ => None,
                                }) {
                                    site.hint = Some(ty);
                                }
                            }
                            self.fns[owner].calls.push(site);
                            i = resume;
                            continue;
                        }
                    }
                    i += 1;
                }
                Tok::Punct(b')' | b']') => {
                    // `(expr)(...)` / `arr[i](...)`: an indirect call.
                    let owner = stack.iter().rev().find_map(|c| match c {
                        Ctx::Fn(idx) => Some(*idx),
                        _ => None,
                    });
                    if let (Some(owner), Some(next)) = (owner, toks.get(i + 1)) {
                        // `.method()` chains and ordinary grouping also put
                        // `)` before `(` only via an interposed token, so a
                        // directly following `(` is a call of the value.
                        if next.is_punct(b'(') {
                            let at = toks[i].at;
                            self.fns[owner].calls.push(CallSite {
                                name: "<indirect>".to_string(),
                                hint: None,
                                method: false,
                                dynamic: true,
                                offset: at,
                                line: line_of(stripped, at),
                                args: Vec::new(),
                                file_id,
                            });
                        }
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Scan the original text for `// verify:` markers and attach each to
    /// the next parsed `fn` within [`MARKER_RADIUS`] lines.
    fn attach_markers(&mut self, label: &str, text: &str, first_fn: usize) {
        for (lineno0, line) in text.lines().enumerate() {
            let Some(at) = line.find("// verify:") else {
                continue;
            };
            let lineno = lineno0 + 1;
            let body = &line[at + "// verify:".len()..];
            let markers = Marker::parse_list(body);
            if markers.is_empty() {
                self.notes.push(ParseNote {
                    file: label.to_string(),
                    line: lineno,
                    message: format!("unrecognized `// verify:` directive `{}`", body.trim()),
                });
                continue;
            }
            let target = self.fns[first_fn..]
                .iter()
                .position(|f| f.line >= lineno && f.line - lineno <= MARKER_RADIUS)
                .map(|p| p + first_fn);
            match target {
                Some(idx) => self.fns[idx].markers.extend(markers),
                None => self.notes.push(ParseNote {
                    file: label.to_string(),
                    line: lineno,
                    message: format!(
                        "orphaned `// verify:` marker (no `fn` within {MARKER_RADIUS} lines)"
                    ),
                }),
            }
        }
    }
}

struct FnHeader {
    name: String,
    params: Vec<String>,
    /// Token index of the body `{`, if the item has one.
    body_open: Option<usize>,
    /// Token index to resume from when there is no body.
    resume: usize,
}

/// Parse `fn name <generics?> ( params ) -> ret where ... {` starting at
/// the `fn` token. Returns `None` if the shape is unrecognizable.
fn parse_fn_header(toks: &[Token<'_>], fn_at: usize) -> Option<FnHeader> {
    let name = match toks.get(fn_at + 1)?.tok {
        Tok::Ident(n) => n.to_string(),
        _ => return None,
    };
    let mut i = fn_at + 2;
    // Skip generics (the `>` of a `-> R` arrow inside a bound like
    // `F: FnOnce() -> R` is not a closer).
    if toks.get(i)?.is_punct(b'<') {
        let mut depth = 0isize;
        while i < toks.len() {
            if toks[i].is_punct(b'<') {
                depth += 1;
            } else if toks[i].is_punct(b'>') && !(i >= 1 && toks[i - 1].is_punct(b'-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    if !toks.get(i)?.is_punct(b'(') {
        return None;
    }
    // Parameter names: at paren depth 1, an ident directly followed by `:`
    // is a parameter pattern head (`mut x: T` included via the ident test;
    // `self` needs no `:`). Nested parens (tuple patterns, fn-ptr types)
    // are skipped wholesale.
    let mut params = Vec::new();
    let mut depth = 0isize;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct(b'(') => depth += 1,
            Tok::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            Tok::Ident(id)
                if depth == 1
                    && id != "self"
                    && id != "mut"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                    && !toks.get(i + 2).is_some_and(|t| t.is_punct(b':')) =>
            {
                params.push(id.to_string());
                // Skip the type up to the next depth-1 comma so type
                // tokens (e.g. `dyn Fn(usize)`) can't add parameters.
                let mut d = depth;
                while i < toks.len() {
                    match toks[i].tok {
                        Tok::Punct(b'(' | b'[') => d += 1,
                        Tok::Punct(b')' | b']') => {
                            if d == 1 {
                                break;
                            }
                            d -= 1;
                        }
                        Tok::Punct(b',') if d == 1 => break,
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    // Find the body `{` or the declaration-terminating `;`. Angle brackets
    // of return types (`-> Vec<f64>`) contain no braces; `where` clauses
    // likewise. A `;` inside brackets belongs to an array type
    // (`-> [T; N]`).
    let mut j = i;
    let mut brackets = 0isize;
    while j < toks.len() {
        if toks[j].is_punct(b'[') {
            brackets += 1;
        } else if toks[j].is_punct(b']') {
            brackets -= 1;
        }
        if toks[j].is_punct(b'{') {
            return Some(FnHeader {
                name,
                params,
                body_open: Some(j),
                resume: j,
            });
        }
        if toks[j].is_punct(b';') && brackets == 0 {
            return Some(FnHeader {
                name,
                params,
                body_open: None,
                resume: j + 1,
            });
        }
        j += 1;
    }
    None
}

/// Parse an `impl` header starting at the `impl` token: returns the
/// implemented-on type name (after `for` if present, else the first type)
/// and the token index of the opening `{`.
/// `impl` header at `impl_at`: the implementing type, whether it is a
/// trait impl, and the index of the body's `{`.
fn parse_impl_header(toks: &[Token<'_>], impl_at: usize) -> Option<(String, bool, usize)> {
    let mut i = impl_at + 1;
    // Skip generics (same arrow caveat as in `parse_fn_header`).
    if toks.get(i)?.is_punct(b'<') {
        let mut depth = 0isize;
        while i < toks.len() {
            if toks[i].is_punct(b'<') {
                depth += 1;
            } else if toks[i].is_punct(b'>') && !(i >= 1 && toks[i - 1].is_punct(b'-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() && !toks[i].is_punct(b'{') {
        match toks[i].tok {
            Tok::Ident("for") => saw_for = true,
            Tok::Ident("where") => break,
            Tok::Ident(id) if id != "dyn" && id != "mut" => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(id.to_string());
                    }
                } else if first_ty.is_none() {
                    first_ty = Some(id.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    while i < toks.len() && !toks[i].is_punct(b'{') {
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let trait_impl = after_for.is_some();
    after_for.or(first_ty).map(|ty| (ty, trait_impl, i))
}

/// Try to parse a call site at token `i` (an ident). Returns the site and
/// the token index to resume from (just past the name — the argument list
/// is walked again by the main loop so nested calls are still seen).
fn parse_call(
    toks: &[Token<'_>],
    i: usize,
    stripped: &str,
    name: &str,
    file_id: usize,
) -> Option<(CallSite, usize)> {
    if NON_CALL_KEYWORDS.contains(&name) {
        return None;
    }
    let next = toks.get(i + 1)?;
    // Macro call: `name!(...)` / `name![...]`.
    let (is_macro, open_tok) = if next.is_punct(b'!') {
        match toks.get(i + 2) {
            Some(t) if t.is_punct(b'(') || t.is_punct(b'[') => (true, i + 2),
            _ => return None,
        }
    } else if next.is_punct(b'(') {
        (false, i + 1)
    } else if next.is_punct(b':')
        && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(b'<'))
    {
        // Turbofish: `name::<T>(...)`. Skip to the matching `>` (arrow
        // guard as in the generics skip) and require the call paren.
        let mut depth = 0isize;
        let mut j = i + 3;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct(b'<') {
                depth += 1;
            } else if toks[j].is_punct(b'>') && !toks[j - 1].is_punct(b'-') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_punct(b'(')) {
            open = Some(j);
        }
        (false, open?)
    } else {
        return None;
    };
    // A path segment *before* the name: `A::name(` → hint A. Exclude
    // `name` itself being an intermediate segment (`a::name::b`): the
    // token after the paren-check already guaranteed `(`.
    let (method, hint) = if !is_macro && i >= 1 && toks[i - 1].is_punct(b'.') {
        let hint = match toks.get(i.wrapping_sub(2)) {
            Some(Token {
                tok: Tok::Ident(h), ..
            }) => Some((*h).to_string()),
            _ => None,
        };
        (true, hint)
    } else if !is_macro && i >= 2 && toks[i - 1].is_punct(b':') && toks[i - 2].is_punct(b':') {
        let hint = match toks.get(i.wrapping_sub(3)) {
            Some(Token {
                tok: Tok::Ident(h), ..
            }) => Some((*h).to_string()),
            _ => None,
        };
        (false, hint)
    } else {
        (false, None)
    };
    // A definition, not a call: `fn name(`.
    if i >= 1 && toks[i - 1].is_ident("fn") {
        return None;
    }
    let args = if is_macro {
        Vec::new() // macro "arguments" are tokens, not expressions
    } else {
        let open = toks[open_tok].at;
        match crate::lint::split_args(stripped, open) {
            Some((args, _)) => args.iter().map(|a| a.trim().to_string()).collect(),
            None => Vec::new(),
        }
    };
    let at = toks[i].at;
    let display = if is_macro {
        format!("{name}!")
    } else {
        name.to_string()
    };
    Some((
        CallSite {
            name: display,
            hint,
            method,
            dynamic: false,
            offset: at,
            line: line_of(stripped, at),
            args,
            file_id,
        },
        i + 1,
    ))
}

fn walk_rs(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
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
            if matches!(&*name, "target" | "vendor" | "tests" | "benches" | ".git") {
                continue;
            }
            walk_rs(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::new();
        g.add_source("crates/demo/src/demo.rs", src);
        g
    }

    #[test]
    fn free_and_impl_fns_get_qualified_names() {
        let g = graph_of(
            "pub fn top(x: usize) -> usize { helper(x) }\n\
             struct Foo;\n\
             impl Foo {\n    fn method(&self, y: usize) { top(y); }\n}\n\
             impl Drop for Foo {\n    fn drop(&mut self) {}\n}\n",
        );
        let quals: Vec<&str> = g.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["demo::top", "Foo::method", "Foo::drop"]);
        assert_eq!(g.fns[0].params, ["x"]);
        assert_eq!(g.fns[1].params, ["y"]); // self excluded
    }

    #[test]
    fn array_return_types_keep_their_bodies() {
        let g = graph_of(
            "trait Views {\n    fn views(&mut self) -> [&mut [f64]; 3];\n}\n\
             impl Views for Foo {\n    fn views(&mut self) -> [&mut [f64]; 3] { helper() }\n}\n",
        );
        let views: Vec<(&str, bool)> = g
            .fns
            .iter()
            .filter(|f| f.name == "views")
            .map(|f| (f.qual.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(views, [("demo::views", false), ("Foo::views", true)]);
        assert_eq!(g.fns[1].calls[0].name, "helper");
    }

    #[test]
    fn call_sites_record_shape_and_args() {
        let g = graph_of(
            "fn f(comm: &mut Comm, tag: u32) {\n\
             \x20   comm.recv(0, tag);\n\
             \x20   Vec::with_capacity(n);\n\
             \x20   helper(a, b + 1);\n\
             \x20   vec![0.0; n];\n\
             \x20   (self.kernel)(ke, ue, ve);\n\
             }\n",
        );
        let f = &g.fns[0];
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["recv", "with_capacity", "helper", "vec!", "<indirect>"]
        );
        assert!(f.calls[0].method);
        assert_eq!(f.calls[0].hint.as_deref(), Some("comm"));
        assert_eq!(f.calls[0].args, ["0", "tag"]);
        assert_eq!(f.calls[1].hint.as_deref(), Some("Vec"));
        assert!(!f.calls[1].method);
        assert_eq!(f.calls[2].args, ["a", "b + 1"]);
        assert!(f.calls[4].dynamic);
    }

    #[test]
    fn self_path_calls_resolve_to_the_impl_type() {
        let g = graph_of(
            "struct Foo;\n\
             impl Foo {\n\
             \x20   fn outer(&self) { Self::inner(); }\n\
             \x20   fn inner() {}\n\
             }\n",
        );
        let outer = &g.fns[0];
        assert_eq!(outer.calls[0].hint.as_deref(), Some("Foo"));
        match g.resolve(&outer.calls[0]) {
            Resolution::Candidates(ids) => assert_eq!(g.fns[ids[0]].qual, "Foo::inner"),
            other => panic!("Self:: call did not resolve narrowly: {other:?}"),
        }
    }

    #[test]
    fn control_flow_keywords_are_not_calls() {
        let g = graph_of(
            "fn f(n: usize) {\n\
             \x20   if (n > 0) { work(n); }\n\
             \x20   while (n > 1) { break; }\n\
             \x20   match (n) { _ => {} }\n\
             }\n",
        );
        let names: Vec<&str> = g.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["work"]);
    }

    #[test]
    fn markers_attach_across_attributes() {
        let g = graph_of(
            "// verify: kernel-entry, allow(allocates)\n\
             #[inline]\n\
             #[target_feature(enable = \"avx2\")]\n\
             unsafe fn emv_x(ke: &[f64]) {}\n\
             // verify: effect(ghost-read)\n\
             fn run_dep() {}\n\
             // verify: pure\n\
             fn anchor() {}\n",
        );
        assert_eq!(
            g.fns[0].markers,
            [Marker::KernelEntry, Marker::Allow("allocates".to_string())]
        );
        assert!(g.fns[0].is_unsafe);
        assert_eq!(g.fns[1].markers, [Marker::Effect("ghost-read".to_string())]);
        assert_eq!(g.fns[2].markers, [Marker::Pure]);
    }

    #[test]
    fn unknown_and_orphaned_markers_are_noted() {
        let g = graph_of("// verify: frobnicate\nfn f() {}\nfn g() {}\n// verify: pure\n");
        assert_eq!(g.notes.len(), 2, "{:?}", g.notes);
        assert!(
            g.notes[0].message.contains("unrecognized"),
            "{}",
            g.notes[0]
        );
        assert!(g.notes[1].message.contains("orphaned"), "{}", g.notes[1]);
    }

    #[test]
    fn resolution_policy_typed_paths_narrow_lowercase_fall_back() {
        let g = graph_of(
            "struct Plan;\n\
             impl Plan {\n    fn build(&self) {}\n}\n\
             fn build() {}\n\
             fn caller(p: &Plan) { Plan::build(p); build(); Vec::new(); p.build(); }\n",
        );
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let calls = &g.fns[caller].calls;
        // Typed path: exactly the impl fn.
        match g.resolve(&calls[0]) {
            Resolution::Candidates(ids) => {
                assert_eq!(ids.len(), 1);
                assert_eq!(g.fns[ids[0]].qual, "Plan::build");
            }
            other => panic!("{other:?}"),
        }
        // Bare name: both candidates.
        match g.resolve(&calls[1]) {
            Resolution::Candidates(ids) => assert_eq!(ids.len(), 2),
            other => panic!("{other:?}"),
        }
        // External typed path: unknown, not the bare-name multimap.
        assert_eq!(g.resolve(&calls[2]), Resolution::Unknown);
        // Method call: bare-name candidates.
        match g.resolve(&calls[3]) {
            Resolution::Candidates(ids) => assert_eq!(ids.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn test_modules_are_truncated() {
        let g = graph_of(
            "fn live() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn t() { comm.recv(0, 7); }\n}\n",
        );
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }

    #[test]
    fn bodies_span_the_braces() {
        let src = "fn f() { inner(); }\nfn g() {}\n";
        let g = graph_of(src);
        let (s, e) = g.fns[0].body.unwrap();
        assert!(g.files[0].stripped[s..e].contains("inner()"));
        assert!(!g.files[0].stripped[s..e].contains("fn g"));
    }

    #[test]
    fn nested_fn_bodies_attribute_calls_to_the_inner_fn() {
        let g = graph_of("fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n");
        let outer = g.fns.iter().position(|f| f.name == "outer").unwrap();
        let inner = g.fns.iter().position(|f| f.name == "inner").unwrap();
        let outer_calls: Vec<&str> = g.fns[outer].calls.iter().map(|c| c.name.as_str()).collect();
        let inner_calls: Vec<&str> = g.fns[inner].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, ["inner"]);
        assert_eq!(inner_calls, ["leaf"]);
    }
}
