//! The unsafe-kernel bounds interpreter (`hymv-verify effects`, proof
//! stage).
//!
//! The SIMD EMV kernels in `crates/la/src/dense.rs` state their
//! preconditions as `debug_assert!`s and then perform unchecked lane
//! loads/stores through the `lanes::*` helpers. This pass re-derives, for
//! every kernel marked `// verify: prove-bounds`, that those preconditions
//! **entail** every lane access in bounds — symbolically, for all `nd`,
//! `bw`, and loop trip counts at once, padded tails included.
//!
//! ## The abstract domain
//!
//! Values are multivariate polynomials over the kernel's symbols (`nd`,
//! `bw`, loop variables, `let`-bound lengths) with integer coefficients
//! ([`Poly`]); every symbol is a nonnegative integer (`usize`). Facts
//! collected from the body:
//!
//! * `let nd = ue.len();` / `debug_assert_eq!(ke.len(), nd * nd);` —
//!   slice-length equalities,
//! * `let chunks = bw / 4;` — a floor-division symbol with the sound
//!   bound `4·chunks ≤ bw` (strengthened to equality when a
//!   `debug_assert!(bw % 4 == 0)` divisibility fact is present),
//! * `debug_assert!(bw <= 32)` — upper bounds,
//! * `for c in lo..hi { ... }` — `c ≤ hi − 1` (and `c ≥ 0` as usize),
//! * `let s = tri(i) + j;` — a `let`-bound index, substituted where `s`
//!   is used.
//!
//! `tri(x)` — `x·(x + 1) / 2` in `dense.rs`, the row offset of the
//! symmetric-packed slab layout — is the one non-polynomial the domain
//! knows: one of `x`, `x + 1` is even, so the `usize` division is exact
//! and `tri(x) = ½·(x² + x)` holds *as an identity*. It is carried as a
//! polynomial with the positive constant symbol `½`; an obligation that
//! mentions `½` is doubled (`2·½ = 1`) before the sign check.
//!
//! A generic kernel is monomorphized the way rustc does it: the body is
//! interpreted once per instantiation, with every compile-time parameter
//! replaced by its value and every `if` over such values resolved to the
//! arm that instantiation compiles, and each instantiation gets its own
//! certificate. The parameters and where their values come from:
//!
//! * `const PACKED: bool` — both values;
//! * `const ND: usize`, `const NVEC: usize` — every literal the file passes
//!   in that position of a `kernel::<.., N>` turbofish (`0` is
//!   `emv_batch_body`'s "read at run time"), so a new instantiation cannot
//!   ship without a certificate. An argument that is itself a `const`
//!   parameter of the calling fn (`emv_batch_on<L, const NVEC: usize>`
//!   passing `NVEC` on) stands for every literal passed to *that*, and
//!   one naming a `const X: usize = <literal>;` item of the file for
//!   that literal;
//! * `L: Lane` — every `impl Lane for T` in the file, with `L::W` its
//!   `const W`, `L::load` / `L::store` accesses of `W` lanes and
//!   `L::splat` a read of one. Each impl is itself checked to forward to
//!   `lanes::*` helpers of exactly those widths, which is what makes that
//!   reading of `L::load` true.
//!
//! An access `lanes::load4(s, idx)` yields the obligation
//! `len(s) − idxmax − 4 ≥ 0` where `idxmax` substitutes every loop
//! variable by its upper bound (rejected if `idx` is not monotone in the
//! loop variables). The prover then rewrites the obligation with the
//! floor-division and upper-bound facts until every coefficient is
//! nonnegative (⟹ the polynomial is ≥ 0 for all nonnegative symbol
//! values) or no rewrite applies (⟹ reject, printing the residual).
//!
//! Alignment is handled structurally: only the *unaligned* lane helpers
//! are recognized; every raw-memory construct (`.add`, `as_ptr`,
//! `get_unchecked`, aligned or masked or gathering intrinsics, ...) in a
//! `prove-bounds` kernel is rejected outright, so nothing with an
//! alignment precondition can appear in certified code.
//!
//! [`check_slab_contract`] is the bridge to the runtime: it checks that a
//! concrete `BlockPlan`-style slab layout (`keb`/`ue`/`ve` lengths for a
//! given `nd`, `bw`) satisfies exactly the kernel preconditions the
//! certificates assume, closing the loop against the plan tables
//! `plan_bounds` checks in bounds.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

use crate::callgraph::{CallGraph, Marker};
use crate::lexer::{line_of, tokens, Tok, Token};

/// A certificate: every unchecked access of this kernel is proved
/// in-bounds from its stated preconditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCert {
    /// Qualified kernel name.
    pub kernel: String,
    pub file: String,
    pub line: usize,
    /// Number of unchecked accesses proved.
    pub accesses: usize,
    /// Number of loop nests walked.
    pub loops: usize,
}

/// A bounds-proof failure (or an unmodeled construct in a kernel that
/// asked to be proved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsDiag {
    pub file: String,
    pub line: usize,
    pub kernel: String,
    pub message: String,
}

impl fmt::Display for AbsDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.kernel, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Polynomials
// ---------------------------------------------------------------------------

/// A multivariate polynomial with `i64` coefficients: monomials are
/// sorted symbol multisets. All symbols range over nonnegative integers,
/// so "every coefficient ≥ 0" entails "value ≥ 0".
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Poly {
    /// sorted var multiset -> coefficient (no zero coefficients stored).
    terms: BTreeMap<Vec<String>, i64>,
}

impl Poly {
    fn zero() -> Self {
        Poly {
            terms: BTreeMap::new(),
        }
    }

    fn constant(c: i64) -> Self {
        let mut p = Poly::zero();
        if c != 0 {
            p.terms.insert(Vec::new(), c);
        }
        p
    }

    fn var(name: &str) -> Self {
        let mut p = Poly::zero();
        p.terms.insert(vec![name.to_string()], 1);
        p
    }

    fn add_term(&mut self, vars: Vec<String>, coeff: i64) {
        let entry = self.terms.entry(vars).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            let vars = self
                .terms
                .iter()
                .find(|(_, &c)| c == 0)
                .map(|(v, _)| v.clone());
            if let Some(v) = vars {
                self.terms.remove(&v);
            }
        }
    }

    fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (v, &c) in &other.terms {
            out.add_term(v.clone(), c);
        }
        out
    }

    fn sub(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (v, &c) in &other.terms {
            out.add_term(v.clone(), -c);
        }
        out
    }

    fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (va, &ca) in &self.terms {
            for (vb, &cb) in &other.terms {
                let mut v = va.clone();
                v.extend(vb.iter().cloned());
                v.sort();
                out.add_term(v, ca * cb);
            }
        }
        out
    }

    /// Every monomial mentioning `name` has a nonnegative coefficient
    /// (⟹ the poly is monotone nondecreasing in `name` over ℕ).
    fn monotone_in(&self, name: &str) -> bool {
        self.terms
            .iter()
            .all(|(v, &c)| c >= 0 || !v.iter().any(|s| s == name))
    }

    /// Substitute `name := rep` (polynomial composition).
    fn subst(&self, name: &str, rep: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (v, &c) in &self.terms {
            let (with, without): (Vec<_>, Vec<_>) = v.iter().partition(|s| *s == name);
            let mut term = Poly::constant(c);
            let mut rest = Poly::zero();
            rest.terms.insert(without.into_iter().cloned().collect(), 1);
            term = term.mul(&rest);
            for _ in 0..with.len() {
                term = term.mul(rep);
            }
            out = out.add(&term);
        }
        out
    }

    fn all_nonneg(&self) -> bool {
        self.terms.values().all(|&c| c >= 0)
    }

    /// `tri(x) = ½·(x² + x)`, exact over ℕ (see the module docs).
    fn tri(x: &Poly) -> Poly {
        Poly::var(HALF).mul(&x.mul(x).add(x))
    }

    /// `2·self` with `2·½ = 1` applied, so the result is `½`-free and has
    /// the sign of `self`. Fails on `½²` (a product of two triangular
    /// numbers), which no kernel index needs.
    fn doubled(&self) -> Result<Poly, String> {
        let mut out = Poly::zero();
        for (vars, &c) in &self.terms {
            let halves = vars.iter().filter(|v| *v == HALF).count();
            match halves {
                0 => out.add_term(vars.clone(), 2 * c),
                1 => out.add_term(vars.iter().filter(|v| *v != HALF).cloned().collect(), c),
                _ => return Err("product of triangular numbers is not modeled".to_string()),
            }
        }
        Ok(out)
    }
}

/// The constant symbol `½` of [`Poly::tri`]. Positive, like every symbol,
/// so sign-based monotonicity checks stay valid for terms carrying it.
const HALF: &str = "½";

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (v, &c) in &self.terms {
            if !first {
                write!(f, " ")?;
            }
            if c >= 0 && !first {
                write!(f, "+ ")?;
            } else if c < 0 {
                write!(f, "- ")?;
            }
            first = false;
            let mag = c.abs();
            if v.is_empty() {
                write!(f, "{mag}")?;
            } else {
                if mag != 1 {
                    write!(f, "{mag}·")?;
                }
                write!(f, "{}", v.join("·"))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Index-expression parsing (over lexer tokens)
// ---------------------------------------------------------------------------

/// Parse `+ - * ( ) int ident` index arithmetic into a [`Poly`].
fn parse_expr(toks: &[Token<'_>]) -> Result<Poly, String> {
    let (p, rest) = parse_sum(toks)?;
    if !rest.is_empty() {
        return Err(format!(
            "trailing tokens after expression ({} left)",
            rest.len()
        ));
    }
    Ok(p)
}

fn parse_sum<'t, 'a>(toks: &'t [Token<'a>]) -> Result<(Poly, &'t [Token<'a>]), String> {
    let (mut acc, mut rest) = parse_prod(toks)?;
    loop {
        match rest.first() {
            Some(t) if t.is_punct(b'+') => {
                let (rhs, r) = parse_prod(&rest[1..])?;
                acc = acc.add(&rhs);
                rest = r;
            }
            Some(t) if t.is_punct(b'-') => {
                let (rhs, r) = parse_prod(&rest[1..])?;
                acc = acc.sub(&rhs);
                rest = r;
            }
            _ => return Ok((acc, rest)),
        }
    }
}

fn parse_prod<'t, 'a>(toks: &'t [Token<'a>]) -> Result<(Poly, &'t [Token<'a>]), String> {
    let (mut acc, mut rest) = parse_atom(toks)?;
    while rest.first().is_some_and(|t| t.is_punct(b'*')) {
        let (rhs, r) = parse_atom(&rest[1..])?;
        acc = acc.mul(&rhs);
        rest = r;
    }
    Ok((acc, rest))
}

fn parse_atom<'t, 'a>(toks: &'t [Token<'a>]) -> Result<(Poly, &'t [Token<'a>]), String> {
    match toks.first().map(|t| t.tok) {
        Some(Tok::Int(s)) => {
            let v = parse_int(s).ok_or_else(|| format!("unsupported literal `{s}`"))?;
            Ok((Poly::constant(v), &toks[1..]))
        }
        Some(Tok::Ident("tri")) if toks.get(1).is_some_and(|t| t.is_punct(b'(')) => {
            let (x, rest) = parse_atom(&toks[1..])?;
            Ok((Poly::tri(&x), rest))
        }
        Some(Tok::Ident(s)) => Ok((Poly::var(s), &toks[1..])),
        Some(Tok::Punct(b'(')) => {
            let (p, rest) = parse_sum(&toks[1..])?;
            match rest.first() {
                Some(t) if t.is_punct(b')') => Ok((p, &rest[1..])),
                _ => Err("unbalanced parenthesis in index expression".to_string()),
            }
        }
        other => Err(format!("unsupported index syntax near {other:?}")),
    }
}

fn parse_int(s: &str) -> Option<i64> {
    let s: String = s.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16).ok();
    }
    s.parse().ok()
}

// ---------------------------------------------------------------------------
// Kernel interpretation
// ---------------------------------------------------------------------------

/// The unaligned lane helpers: (name, lane count, position of the slice
/// argument). The index argument follows the slice.
const LANE_HELPERS: &[(&str, i64, usize)] = &[
    ("load4", 4, 0),
    ("store4", 4, 0),
    ("load8", 8, 0),
    ("store8", 8, 0),
    ("read1", 1, 0),
    ("add1", 1, 0),
    // Broadcast helpers (multivector kernels): read one scalar, splat it.
    ("bcast4", 1, 0),
    ("bcast8", 1, 0),
    // `gather8(data, gi, at)` reads eight *indices* `gi[at..at + 8]`; that
    // they index into `data` is the helper's own runtime check.
    ("gather8", 8, 1),
];

/// The accessors of `trait Lane` at `(slice, index)`, with the lanes each
/// touches: `None` for the lane type's `W`.
const LANE_METHODS: &[(&str, Option<i64>)] = &[("load", None), ("store", None), ("splat", Some(1))];

/// Raw-memory constructs that are never allowed inside a `prove-bounds`
/// kernel (method position, after a `.`).
const BANNED_METHODS: &[&str] = &[
    "add",
    "offset",
    "get_unchecked",
    "get_unchecked_mut",
    "as_ptr",
    "as_mut_ptr",
    "read",
    "write",
    "read_unaligned",
    "write_unaligned",
];

/// Raw-memory constructs banned in free/assoc position.
const BANNED_CALLS: &[&str] = &[
    "from_raw_parts",
    "from_raw_parts_mut",
    "copy_nonoverlapping",
    "copy",
    "write_bytes",
    "transmute",
];

/// Value-only SIMD intrinsics (no memory operand) the interpreter
/// whitelists; any other `_mm*` intrinsic — loads, stores, gathers,
/// masked or aligned forms — is rejected.
const VALUE_INTRINSIC_SUFFIXES: &[&str] = &[
    "set1_pd",
    "setzero_pd",
    "fmadd_pd",
    "add_pd",
    "mul_pd",
    "sub_pd",
];

struct LoopFrame {
    var: String,
    /// Exclusive upper bound of the range.
    hi: Poly,
    /// Brace depth of the loop body (pop when depth falls below).
    depth: usize,
}

struct Kctx {
    /// slice name -> symbolic length.
    lens: BTreeMap<String, Poly>,
    /// `q = ⌊x / k⌋` facts.
    floordivs: Vec<(String, Poly, i64)>,
    /// `k | x` facts (x a single symbol).
    divides: Vec<(i64, String)>,
    /// `sym ≤ n` facts.
    upper: Vec<(String, i64)>,
    /// `let name = <index expression>;` definitions (latest binding wins,
    /// like shadowing does).
    defs: BTreeMap<String, Poly>,
    loops: Vec<LoopFrame>,
}

/// A compile-time parameter of a kernel, as its signature declares it.
#[derive(Clone, Copy)]
enum ParamKind {
    /// `L: Lane`.
    Lane,
    /// `const P: bool`.
    Bool,
    /// `const N: usize`.
    Usize,
}

/// The value one instantiation binds a parameter to. Integers stay the
/// literal slices of the source they were read from, so they can stand in
/// for the parameter in the token stream.
#[derive(Clone, Copy)]
enum Arg<'a> {
    /// An `impl Lane for ty` with `const W: usize = w`.
    Lane {
        ty: &'a str,
        w: &'a str,
    },
    Bool(bool),
    Usize(&'a str),
}

/// One monomorphization: every generic parameter with its value, in
/// signature order.
type Instance<'a> = Vec<(&'a str, Arg<'a>)>;

/// Certify every `// verify: prove-bounds` kernel in `text`.
pub fn certify_source(label: &str, text: &str) -> (Vec<KernelCert>, Vec<AbsDiag>) {
    let mut graph = CallGraph::new();
    graph.add_source(label, text);
    let mut certs = Vec::new();
    let mut diags = Vec::new();
    for f in &graph.fns {
        if !f.markers.contains(&Marker::ProveBounds) {
            continue;
        }
        let fail = |message: String| AbsDiag {
            file: f.file.clone(),
            line: f.line,
            kernel: f.qual.clone(),
            message,
        };
        let Some((s, e)) = f.body else {
            diags.push(fail("`prove-bounds` on a bodiless fn".to_string()));
            continue;
        };
        let stripped = &graph.files[f.file_id].stripped;
        let e = e.min(stripped.len());
        let file_toks = tokens(stripped);
        let instances = match instances_of(&f.name, stripped, s, &file_toks) {
            Ok(instances) => instances,
            Err(ds) => {
                diags.extend(ds.into_iter().map(fail));
                continue;
            }
        };
        for inst in &instances {
            let qual = if inst.is_empty() {
                f.qual.clone()
            } else {
                let args: Vec<String> = inst
                    .iter()
                    .map(|&(name, arg)| match arg {
                        Arg::Lane { ty, .. } => format!("{name}={ty}"),
                        Arg::Bool(v) => format!("{name}={v}"),
                        Arg::Usize(v) => format!("{name}={v}"),
                    })
                    .collect();
                format!("{}::<{}>", f.qual, args.join(", "))
            };
            match interpret_kernel(&qual, &f.file, stripped, s, e, inst) {
                Ok((accesses, loops)) => certs.push(KernelCert {
                    kernel: qual,
                    file: f.file.clone(),
                    line: f.line,
                    accesses,
                    loops,
                }),
                Err(mut ds) => diags.append(&mut ds),
            }
        }
    }
    (certs, diags)
}

/// The generic parameters the interpreter monomorphizes, from the
/// signature that ends at `body_start`. Lifetimes and parameters of other
/// kinds are ignored: nothing in an index expression can depend on them.
fn generic_params(stripped: &str, body_start: usize) -> Vec<(&str, ParamKind)> {
    let head = &stripped[..body_start];
    let Some(fn_at) = head.rfind("fn ") else {
        return Vec::new();
    };
    generic_param_list(&tokens(&head[fn_at..]))
}

/// The generic parameters [`generic_params`] models, from the tokens of a
/// signature.
fn generic_param_list<'a>(sig: &[Token<'a>]) -> Vec<(&'a str, ParamKind)> {
    let mut out = Vec::new();
    for w in sig.windows(4) {
        match (w[0].tok, w[1].tok, w[2].tok, w[3].tok) {
            (Tok::Ident("const"), Tok::Ident(name), Tok::Punct(b':'), Tok::Ident("bool")) => {
                out.push((name, ParamKind::Bool));
            }
            (Tok::Ident("const"), Tok::Ident(name), Tok::Punct(b':'), Tok::Ident("usize")) => {
                out.push((name, ParamKind::Usize));
            }
            (Tok::Punct(b'<' | b','), Tok::Ident(name), Tok::Punct(b':'), Tok::Ident("Lane")) => {
                out.push((name, ParamKind::Lane));
            }
            _ => {}
        }
    }
    out
}

/// Every `impl Lane for T` of the file as `(T, W literal)`, each checked to
/// touch memory only through `lanes::*` helpers of exactly `W` lanes — the
/// premise under which `L::load(s, at)` is an access of `L::W` lanes.
fn lane_impls<'a>(toks: &[Token<'a>]) -> Result<Vec<(&'a str, &'a str)>, Vec<String>> {
    let mut out = Vec::new();
    let mut errs = Vec::new();
    for (i, w) in toks.windows(3).enumerate() {
        if !(w[0].is_ident("impl") && w[1].is_ident("Lane") && w[2].is_ident("for")) {
            continue;
        }
        let Some(open) = (i + 3..toks.len()).find(|&k| toks[k].is_punct(b'{')) else {
            continue;
        };
        // The last path segment names the type (`std::arch::x86_64::__m512d`).
        let Some(Tok::Ident(ty)) = toks.get(open - 1).map(|t| t.tok) else {
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t.tok {
                Tok::Punct(b'{') => depth += 1,
                Tok::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &toks[open..close];
        let width = body
            .windows(6)
            .find_map(|c| match (c[0].tok, c[1].tok, c[5].tok) {
                (Tok::Ident("const"), Tok::Ident("W"), Tok::Int(w))
                    if c[2].is_punct(b':') && c[3].is_ident("usize") && c[4].is_punct(b'=') =>
                {
                    Some(w)
                }
                _ => None,
            });
        let Some(w) = width.filter(|w| parse_int(w).is_some_and(|w| w > 0)) else {
            errs.push(format!(
                "`impl Lane for {ty}` has no literal `const W: usize`"
            ));
            continue;
        };
        // The accessor whose body a helper call sits in decides the width
        // it must have: `W`, or the fixed width `LANE_METHODS` gives it.
        let mut want = parse_int(w);
        let mut method = "";
        for c in body.windows(4) {
            if let (Tok::Ident("fn"), Tok::Ident(name)) = (c[0].tok, c[1].tok) {
                method = name;
                want = LANE_METHODS
                    .iter()
                    .find(|m| m.0 == name)
                    .and_then(|m| m.1)
                    .or(parse_int(w));
            }
            let (Tok::Ident("lanes"), Tok::Ident(helper)) = (c[0].tok, c[3].tok) else {
                continue;
            };
            if !(c[1].is_punct(b':') && c[2].is_punct(b':')) {
                continue;
            }
            let lanes = LANE_HELPERS.iter().find(|h| h.0 == helper).map(|h| h.1);
            if lanes != want {
                errs.push(format!(
                    "`impl Lane for {ty}` declares W = {w} but its `{method}` forwards to \
                     `lanes::{helper}` ({} lane(s))",
                    lanes.map_or("unknown".to_string(), |l| l.to_string())
                ));
            }
        }
        out.push((ty, w));
    }
    if errs.is_empty() {
        Ok(out)
    } else {
        Err(errs)
    }
}

/// Every instantiation of kernel `name`: the product of its parameters'
/// values (see the module docs for where each kind's values come from).
fn instances_of<'a>(
    name: &str,
    stripped: &'a str,
    body_start: usize,
    file_toks: &[Token<'a>],
) -> Result<Vec<Instance<'a>>, Vec<String>> {
    let params = generic_params(stripped, body_start);
    let mut instances: Vec<Instance<'a>> = vec![Vec::new()];
    for (pos, &(param, kind)) in params.iter().enumerate() {
        let values: Vec<Arg<'a>> = match kind {
            ParamKind::Bool => vec![Arg::Bool(false), Arg::Bool(true)],
            ParamKind::Lane => lane_impls(file_toks)?
                .into_iter()
                .map(|(ty, w)| Arg::Lane { ty, w })
                .collect(),
            ParamKind::Usize => usize_values(name, pos, file_toks, 0)
                .into_iter()
                .map(Arg::Usize)
                .collect(),
        };
        if values.is_empty() {
            return Err(vec![format!(
                "no value found for generic parameter `{param}`: nothing to certify"
            )]);
        }
        instances = instances
            .iter()
            .flat_map(|inst| {
                values.iter().map(move |&v| {
                    let mut inst = inst.clone();
                    inst.push((param, v));
                    inst
                })
            })
            .collect();
    }
    Ok(instances)
}

/// Every literal the file passes for the `pos`-th generic parameter of fn
/// `name` in a `name::<..>` turbofish. An argument that is itself a
/// `const` parameter of the fn the turbofish sits in (`body::<L, 4, NVEC>`
/// inside `fn on<L: Lane, const NVEC: usize>`) stands for every literal
/// passed to that parameter, found the same way; any other name, for the
/// literal of the file's `const` item of that name.
fn usize_values<'a>(name: &str, pos: usize, toks: &[Token<'a>], depth: usize) -> Vec<&'a str> {
    let mut found: Vec<&'a str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let turbofish = t.is_ident(name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(b'<'));
        if !turbofish {
            continue;
        }
        let arg = toks[i + 4..]
            .split(|t| t.is_punct(b','))
            .nth(pos)
            .and_then(|a| a.first())
            .map(|t| t.tok);
        let values = match arg {
            Some(Tok::Int(v)) => vec![v],
            Some(Tok::Ident(param)) if depth < 4 => match enclosing_const_param(toks, i, param) {
                Some((f, at)) => usize_values(f, at, toks, depth + 1),
                None => const_item(toks, param).into_iter().collect(),
            },
            _ => Vec::new(),
        };
        for v in values {
            if !found.contains(&v) {
                found.push(v);
            }
        }
    }
    found.sort_by_key(|v| parse_int(v));
    found
}

/// The fn whose signature last precedes token `at`, and the position of
/// its generic parameter `const param: usize` — if it has one.
fn enclosing_const_param<'a>(
    toks: &[Token<'a>],
    at: usize,
    param: &str,
) -> Option<(&'a str, usize)> {
    let (f, name) = (0..at)
        .rev()
        .find_map(|k| match toks.get(k + 1).map(|t| t.tok) {
            Some(Tok::Ident(name)) if toks[k].is_ident("fn") => Some((k, name)),
            _ => None,
        })?;
    let open = (f..at).find(|&k| toks[k].is_punct(b'('))?;
    let pos = generic_param_list(&toks[f..open])
        .iter()
        .position(|&(p, kind)| p == param && matches!(kind, ParamKind::Usize))?;
    Some((name, pos))
}

/// The literal of the file's item `const name: usize = <literal>;`.
fn const_item<'a>(toks: &[Token<'a>], name: &str) -> Option<&'a str> {
    toks.windows(7).find_map(|w| match w[5].tok {
        Tok::Int(v)
            if w[0].is_ident("const")
                && w[1].is_ident(name)
                && w[2].is_punct(b':')
                && w[3].is_ident("usize")
                && w[4].is_punct(b'=')
                && w[6].is_punct(b';') =>
        {
            Some(v)
        }
        _ => None,
    })
}

/// The matching `}` of the `{` at `open`.
fn close_of(toks: &[Token<'_>], open: usize) -> Result<usize, String> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Ok(k);
                }
            }
            _ => {}
        }
    }
    Err("unbalanced `if` arm".to_string())
}

/// The value of an `if` condition over instantiated parameters: `true`,
/// `false`, `!true`, `a == b`, `a != b` on integer literals. `None` for a
/// run-time condition, which is left in place.
fn const_condition(cond: &[Token<'_>]) -> Option<bool> {
    let int = |t: &Token<'_>| match t.tok {
        Tok::Int(v) => parse_int(v),
        _ => None,
    };
    match cond {
        [t] if t.is_ident("true") => Some(true),
        [t] if t.is_ident("false") => Some(false),
        [n, t] if n.is_punct(b'!') => const_condition(std::slice::from_ref(t)).map(|v| !v),
        [a, o1, o2, b] if o2.is_punct(b'=') && (o1.is_punct(b'=') || o1.is_punct(b'!')) => {
            Some((int(a)? == int(b)?) == o1.is_punct(b'='))
        }
        _ => None,
    }
}

/// Rewrite a kernel body as one instantiation compiles it: parameters
/// replaced by their values (`L::W` by the lane type's width), then every
/// `if` whose condition that makes constant replaced by `( arm )` — the arm
/// rustc keeps. Parenthesized, an expression arm stays an index expression
/// and a block arm stays a scannable statement list.
fn instantiate<'a>(toks: &[Token<'a>], inst: &Instance<'a>) -> Result<Vec<Token<'a>>, String> {
    let mut out: Vec<Token<'a>> = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let Tok::Ident(id) = toks[i].tok else {
            out.push(toks[i]);
            i += 1;
            continue;
        };
        let tok = match inst.iter().find(|(name, _)| *name == id).map(|b| b.1) {
            Some(Arg::Bool(v)) => Tok::Ident(if v { "true" } else { "false" }),
            Some(Arg::Usize(v)) => Tok::Int(v),
            Some(Arg::Lane { w, .. })
                if toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("W")) =>
            {
                i += 3;
                Tok::Int(w)
            }
            _ => toks[i].tok,
        };
        out.push(Token {
            tok,
            at: toks[i].at,
        });
        i += 1;
    }
    fold_const_ifs(&out)
}

fn fold_const_ifs<'a>(toks: &[Token<'a>]) -> Result<Vec<Token<'a>>, String> {
    let paren = |t: &Token<'a>, p: u8| Token {
        tok: Tok::Punct(p),
        at: t.at,
    };
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let head = toks[i]
            .is_ident("if")
            .then(|| (i + 1..toks.len()).find(|&k| toks[k].is_punct(b'{')))
            .flatten()
            .and_then(|open| Some((open, const_condition(&toks[i + 1..open])?)));
        let Some((open, value)) = head else {
            out.push(toks[i]);
            i += 1;
            continue;
        };
        let then_close = close_of(toks, open)?;
        if !toks.get(then_close + 1).is_some_and(|t| t.is_ident("else")) {
            return Err("a compile-time `if` without an `else` arm is not modeled".to_string());
        }
        let else_at = then_close + 2;
        let else_close = else_end(toks, else_at)?;
        // The kept arm, parenthesized: a block's statements, or a whole
        // `else if` chain (folded in turn).
        let (from, to) = if value {
            (open + 1, then_close)
        } else if toks[else_at].is_punct(b'{') {
            (else_at + 1, else_close)
        } else {
            (else_at, else_close + 1)
        };
        out.push(paren(&toks[open], b'('));
        out.extend(fold_const_ifs(&toks[from..to])?);
        out.push(paren(&toks[else_close], b')'));
        i = else_close + 1;
    }
    Ok(out)
}

/// The last token of the `else` arm starting at `at`: a `{ .. }` block, or
/// an `if .. { .. } else ..` chain.
fn else_end(toks: &[Token<'_>], at: usize) -> Result<usize, String> {
    match toks.get(at) {
        Some(t) if t.is_punct(b'{') => close_of(toks, at),
        Some(t) if t.is_ident("if") => {
            let open = (at + 1..toks.len())
                .find(|&k| toks[k].is_punct(b'{'))
                .ok_or("`if` without a block")?;
            let close = close_of(toks, open)?;
            if toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                else_end(toks, close + 2)
            } else {
                Ok(close)
            }
        }
        _ => Err("an `else` arm that is neither a block nor an `if`".to_string()),
    }
}

/// Certify a file on disk (the CLI entry: `crates/la/src/dense.rs`).
pub fn certify_file(path: &Path) -> Result<(Vec<KernelCert>, Vec<AbsDiag>), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(certify_source(&path.to_string_lossy(), &text))
}

/// The runtime bridge: check that a concrete batched slab (`keb`, `ue`,
/// `ve` lengths for a given `nd`, `bw`) satisfies the batched kernels'
/// proved preconditions exactly. `keb` may have either of the two lengths
/// the kernels are certified for — full or symmetric-packed — and nothing
/// in between.
pub fn check_slab_contract(
    nd: usize,
    bw: usize,
    keb_len: usize,
    ue_len: usize,
    ve_len: usize,
) -> Result<(), String> {
    if nd == 0 || bw == 0 {
        return Err(format!("degenerate slab: nd={nd} bw={bw}"));
    }
    let (full, packed) = (nd * nd * bw, nd * (nd + 1) / 2 * bw);
    if keb_len != full && keb_len != packed {
        return Err(format!(
            "slab keb length {keb_len} violates the proved kernel preconditions \
             nd * nd * bw = {full} (full) and tri(nd) * bw = {packed} (packed) (nd={nd}, bw={bw})"
        ));
    }
    let want = [
        ("ue", ue_len, "nd * bw", nd * bw),
        ("ve", ve_len, "nd * bw", nd * bw),
    ];
    for (name, got, formula, expect) in want {
        if got != expect {
            return Err(format!(
                "slab {name} length {got} violates the proved kernel precondition \
                 {formula} = {expect} (nd={nd}, bw={bw})"
            ));
        }
    }
    Ok(())
}

/// The multivector analog of [`check_slab_contract`]: a width-`nvec`
/// SpMM slab keeps the batch-interleaved `keb` (full or packed) but widens
/// the `ue`/`ve` panels to `nd·bw·nvec` (`nvec` contiguous column values
/// per lane).
pub fn check_mv_slab_contract(
    nd: usize,
    bw: usize,
    nvec: usize,
    keb_len: usize,
    ue_len: usize,
    ve_len: usize,
) -> Result<(), String> {
    if nvec == 0 {
        return Err("degenerate multivector slab: nvec=0".to_string());
    }
    check_slab_contract(nd, bw, keb_len, ue_len / nvec, ve_len / nvec)?;
    for (name, got) in [("ue", ue_len), ("ve", ve_len)] {
        if got % nvec != 0 {
            return Err(format!(
                "multivector slab {name} length {got} is not a multiple of nvec={nvec}"
            ));
        }
    }
    Ok(())
}

/// Walk one kernel body: collect facts, prove every lane access, reject
/// unmodeled unsafe constructs. Returns (accesses proved, loops walked).
#[allow(clippy::too_many_lines)]
fn interpret_kernel(
    qual: &str,
    file: &str,
    stripped: &str,
    body_start: usize,
    body_end: usize,
    instance: &Instance<'_>,
) -> Result<(usize, usize), Vec<AbsDiag>> {
    let body = &stripped[body_start..body_end];
    let toks = instantiate(&tokens(body), instance).map_err(|message| {
        vec![AbsDiag {
            file: file.to_string(),
            line: line_of(stripped, body_start),
            kernel: qual.to_string(),
            message,
        }]
    })?;
    // `L::load` / `L::store` of this instantiation's lane type.
    let lane = instance.iter().find_map(|&(name, arg)| match arg {
        Arg::Lane { w, .. } => Some((name, parse_int(w)?)),
        _ => None,
    });
    let mut ctx = Kctx {
        lens: BTreeMap::new(),
        floordivs: Vec::new(),
        divides: Vec::new(),
        upper: Vec::new(),
        defs: BTreeMap::new(),
        loops: Vec::new(),
    };
    let mut diags: Vec<AbsDiag> = Vec::new();
    let diag = |at: usize, message: String| AbsDiag {
        file: file.to_string(),
        line: line_of(stripped, body_start + at),
        kernel: qual.to_string(),
        message,
    };
    let mut accesses = 0usize;
    let mut loops = 0usize;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        if let Some((method, w)) = lane_access(&toks, i, lane) {
            match prove_access(&toks[i + 4..], method, w, 0, &ctx) {
                Ok(()) => accesses += 1,
                Err(e) => diags.push(diag(
                    toks[i].at,
                    format!(
                        "cannot prove `{}::{method}` ({w} lane(s)) in bounds: {e}",
                        lane.map_or("", |l| l.0)
                    ),
                )),
            }
            // As for `lanes::*`: keep scanning inside the argument list.
            i += 5;
            continue;
        }
        match toks[i].tok {
            Tok::Punct(b'{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                while ctx.loops.last().is_some_and(|fr| fr.depth > depth) {
                    ctx.loops.pop();
                }
                i += 1;
            }
            Tok::Ident("for") => {
                match parse_for_header(&toks[i..]) {
                    Ok((var, hi, brace_rel)) => {
                        loops += 1;
                        ctx.loops.push(LoopFrame {
                            var,
                            hi,
                            depth: depth + 1,
                        });
                        i += brace_rel; // the `{` itself is handled above
                    }
                    Err(e) => {
                        diags.push(diag(toks[i].at, format!("unsupported loop form: {e}")));
                        i += 1;
                    }
                }
            }
            Tok::Ident("let") => {
                collect_let_facts(&toks[i..], &mut ctx);
                i += 1;
            }
            Tok::Ident(name @ ("debug_assert_eq" | "assert_eq"))
                if toks.get(i + 1).is_some_and(|t| t.is_punct(b'!')) =>
            {
                let _ = name;
                collect_len_fact(&toks[i + 2..], &mut ctx);
                i += 2;
            }
            Tok::Ident(name @ ("debug_assert" | "assert"))
                if toks.get(i + 1).is_some_and(|t| t.is_punct(b'!')) =>
            {
                let _ = name;
                collect_bound_facts(&toks[i + 2..], &mut ctx);
                i += 2;
            }
            Tok::Ident("lanes")
                if toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(b':')) =>
            {
                let Some(helper) = toks.get(i + 3) else {
                    i += 1;
                    continue;
                };
                let Tok::Ident(hname) = helper.tok else {
                    i += 1;
                    continue;
                };
                let Some(&(_, lanes, slice_arg)) = LANE_HELPERS.iter().find(|h| h.0 == hname)
                else {
                    diags.push(diag(
                        toks[i].at,
                        format!("unknown lanes helper `lanes::{hname}`"),
                    ));
                    i += 4;
                    continue;
                };
                if !toks.get(i + 4).is_some_and(|t| t.is_punct(b'(')) {
                    i += 4;
                    continue;
                }
                match prove_access(&toks[i + 4..], hname, lanes, slice_arg, &ctx) {
                    Ok(()) => accesses += 1,
                    Err(e) => diags.push(diag(
                        toks[i].at,
                        format!("cannot prove `lanes::{hname}` in bounds: {e}"),
                    )),
                }
                // Continue scanning *inside* the argument list so nested
                // helper calls (e.g. `add1(ve, i, read1(ke, ..) * u)`) are
                // still visited.
                i += 5;
            }
            Tok::Ident(name) => {
                // Banned raw-memory constructs.
                let is_method = i >= 1 && toks[i - 1].is_punct(b'.');
                let called = toks.get(i + 1).is_some_and(|t| t.is_punct(b'('));
                if is_method && called && BANNED_METHODS.contains(&name) {
                    diags.push(diag(
                        toks[i].at,
                        format!("raw-memory method `.{name}(..)` in a prove-bounds kernel"),
                    ));
                } else if called && !is_method && BANNED_CALLS.contains(&name) {
                    diags.push(diag(
                        toks[i].at,
                        format!("raw-memory call `{name}(..)` in a prove-bounds kernel"),
                    ));
                } else if called && name.starts_with("_mm") {
                    let ok = VALUE_INTRINSIC_SUFFIXES
                        .iter()
                        .any(|suf| name.ends_with(suf));
                    if !ok {
                        diags.push(diag(
                            toks[i].at,
                            format!(
                                "unmodeled SIMD intrinsic `{name}` (memory, masked, aligned, \
                                 and gather forms must go through the `lanes::*` helpers)"
                            ),
                        ));
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    if diags.is_empty() {
        Ok((accesses, loops))
    } else {
        Err(diags)
    }
}

/// `P::load(` / `P::store(` at `toks[i]`, `P` this instantiation's lane
/// parameter: the accessor and the `W` lanes it touches.
fn lane_access<'a>(
    toks: &[Token<'a>],
    i: usize,
    lane: Option<(&str, i64)>,
) -> Option<(&'a str, i64)> {
    let (param, w) = lane?;
    let Tok::Ident(method) = toks.get(i + 3)?.tok else {
        return None;
    };
    let lanes = LANE_METHODS.iter().find(|m| m.0 == method)?.1.unwrap_or(w);
    (toks[i].is_ident(param)
        && toks[i + 1].is_punct(b':')
        && toks[i + 2].is_punct(b':')
        && toks.get(i + 4)?.is_punct(b'('))
    .then_some((method, lanes))
}

/// Parse `for VAR in LO..HI {`, returning (var, hi, relative index of the
/// `{`). `toks[0]` is the `for`.
fn parse_for_header(toks: &[Token<'_>]) -> Result<(String, Poly, usize), String> {
    let var = match toks.get(1).map(|t| t.tok) {
        Some(Tok::Ident(v)) => v.to_string(),
        other => return Err(format!("pattern loops are not modeled (got {other:?})")),
    };
    if !toks.get(2).is_some_and(|t| t.is_ident("in")) {
        return Err("expected `in`".to_string());
    }
    // Find the `..` at paren depth 0, then the `{`.
    let mut j = 3;
    let mut depth = 0isize;
    let mut dots_at = None;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct(b'(') => depth += 1,
            Tok::Punct(b')') => depth -= 1,
            Tok::Punct(b'.') if depth == 0 && toks.get(j + 1).is_some_and(|t| t.is_punct(b'.')) => {
                dots_at = Some(j);
                break;
            }
            Tok::Punct(b'{') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let dots = dots_at.ok_or_else(|| "only `lo..hi` range loops are modeled".to_string())?;
    let mut k = dots + 2;
    let mut depth = 0isize;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct(b'(') => depth += 1,
            Tok::Punct(b')') => depth -= 1,
            Tok::Punct(b'{') if depth == 0 => break,
            Tok::Punct(b'=') if depth == 0 => {
                return Err("inclusive ranges (`..=`) are not modeled".to_string())
            }
            _ => {}
        }
        k += 1;
    }
    if k >= toks.len() {
        return Err("no loop body brace".to_string());
    }
    let hi = parse_expr(&toks[dots + 2..k]).map_err(|e| format!("range bound: {e}"))?;
    // The lower bound only matters for nonnegativity, which usize gives
    // for free — parse it to reject unsupported syntax early.
    parse_expr(&toks[3..dots]).map_err(|e| format!("range bound: {e}"))?;
    Ok((var, hi, k))
}

/// `let NAME = s.len();` and `let NAME = X / K;` facts. `toks[0]` is the
/// `let`. Anything else is left to the generic scan.
fn collect_let_facts(toks: &[Token<'_>], ctx: &mut Kctx) {
    let mut j = 1;
    let mutable = toks.get(j).is_some_and(|t| t.is_ident("mut"));
    if mutable {
        j += 1;
    }
    let Some(Tok::Ident(name)) = toks.get(j).map(|t| t.tok) else {
        return;
    };
    if !toks.get(j + 1).is_some_and(|t| t.is_punct(b'=')) {
        return;
    }
    let rhs_start = j + 2;
    // Find the `;` at depth 0.
    let mut depth = 0isize;
    let mut end = rhs_start;
    while end < toks.len() {
        match toks[end].tok {
            Tok::Punct(b'(' | b'[') => depth += 1,
            Tok::Punct(b')' | b']') => depth -= 1,
            Tok::Punct(b';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    let rhs = &toks[rhs_start..end.min(toks.len())];
    // `let nd = ue.len();`
    if rhs.len() == 5
        && rhs[1].is_punct(b'.')
        && rhs[2].is_ident("len")
        && rhs[3].is_punct(b'(')
        && rhs[4].is_punct(b')')
    {
        if let Tok::Ident(slice) = rhs[0].tok {
            ctx.lens.insert(slice.to_string(), Poly::var(name));
            return;
        }
    }
    // `let chunks = X / K;` (floor division over usize).
    if let Some(slash) = rhs.iter().position(|t| t.is_punct(b'/')) {
        if let (Ok(x), Some(Tok::Int(ks))) =
            (parse_expr(&rhs[..slash]), rhs.get(slash + 1).map(|t| t.tok))
        {
            if rhs.len() == slash + 2 {
                if let Some(k) = parse_int(ks) {
                    if k > 0 {
                        // Definitions in force now are what `x` means here.
                        let x = ctx.defs.iter().fold(x, |x, (n, def)| x.subst(n, def));
                        ctx.floordivs.push((name.to_string(), x, k));
                    }
                }
            }
        }
        return;
    }
    // `let s = tri(i) + j;` — any other right-hand side that is index
    // arithmetic. A rebinding to something else, or a `let mut` (whose
    // value the initializer does not pin), drops the definition.
    match parse_expr(rhs) {
        Ok(def) if !mutable => ctx.defs.insert(name.to_string(), def),
        _ => ctx.defs.remove(name),
    };
}

/// `debug_assert_eq!(s.len(), EXPR)` (either order). `toks[0]` is the `(`.
fn collect_len_fact(toks: &[Token<'_>], ctx: &mut Kctx) {
    let Some(args) = split_token_args(toks) else {
        return;
    };
    if args.len() != 2 {
        return;
    }
    let as_len = |ts: &[Token<'_>]| -> Option<String> {
        if ts.len() == 5
            && ts[1].is_punct(b'.')
            && ts[2].is_ident("len")
            && ts[3].is_punct(b'(')
            && ts[4].is_punct(b')')
        {
            if let Tok::Ident(s) = ts[0].tok {
                return Some(s.to_string());
            }
        }
        None
    };
    for (a, b) in [(0usize, 1usize), (1, 0)] {
        if let (Some(slice), Ok(len)) = (as_len(args[a]), parse_expr(args[b])) {
            ctx.lens.insert(slice, len);
            return;
        }
    }
}

/// `debug_assert!(a % k == 0 && a <= n && ...)` facts. `toks[0]` is `(`.
fn collect_bound_facts(toks: &[Token<'_>], ctx: &mut Kctx) {
    let Some(args) = split_token_args(toks) else {
        return;
    };
    let Some(cond) = args.first() else {
        return;
    };
    // Split the condition on top-level `&&`.
    let mut parts: Vec<&[Token<'_>]> = Vec::new();
    let mut depth = 0isize;
    let mut start = 0usize;
    let mut j = 0usize;
    while j < cond.len() {
        match cond[j].tok {
            Tok::Punct(b'(' | b'[') => depth += 1,
            Tok::Punct(b')' | b']') => depth -= 1,
            Tok::Punct(b'&') if depth == 0 && cond.get(j + 1).is_some_and(|t| t.is_punct(b'&')) => {
                parts.push(&cond[start..j]);
                j += 2;
                start = j;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    parts.push(&cond[start..]);
    for p in parts {
        // `x % k == 0`
        if p.len() == 6 && p[1].is_punct(b'%') && p[3].is_punct(b'=') && p[4].is_punct(b'=') {
            if let (Tok::Ident(x), Tok::Int(ks), Tok::Int(zero)) = (p[0].tok, p[2].tok, p[5].tok) {
                if parse_int(zero) == Some(0) {
                    if let Some(k) = parse_int(ks) {
                        if k > 0 {
                            ctx.divides.push((k, x.to_string()));
                        }
                    }
                }
            }
        }
        // `x <= n`
        if p.len() == 4 && p[1].is_punct(b'<') && p[2].is_punct(b'=') {
            if let (Tok::Ident(x), Tok::Int(ns)) = (p[0].tok, p[3].tok) {
                if let Some(n) = parse_int(ns) {
                    ctx.upper.push((x.to_string(), n));
                }
            }
        }
    }
}

/// Split a parenthesized argument list into top-level token slices.
/// `toks[0]` must be the `(`.
fn split_token_args<'t, 'a>(toks: &'t [Token<'a>]) -> Option<Vec<&'t [Token<'a>]>> {
    if !toks.first().is_some_and(|t| t.is_punct(b'(')) {
        return None;
    }
    let mut depth = 1isize;
    let mut args = Vec::new();
    let mut start = 1usize;
    let mut j = 1usize;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct(b'(' | b'[') => depth += 1,
            Tok::Punct(b')' | b']') => {
                depth -= 1;
                if depth == 0 {
                    if j > start || !args.is_empty() {
                        args.push(&toks[start..j]);
                    }
                    return Some(args);
                }
            }
            Tok::Punct(b',') if depth == 1 => {
                args.push(&toks[start..j]);
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Prove one `lanes::helper(slice, idx, ...)` access in bounds.
/// `toks[0]` is the `(` of the argument list.
fn prove_access(
    toks: &[Token<'_>],
    helper: &str,
    lanes: i64,
    slice_arg: usize,
    ctx: &Kctx,
) -> Result<(), String> {
    let args = split_token_args(toks).ok_or("unbalanced argument list")?;
    if args.len() < slice_arg + 2 {
        return Err(format!("`{helper}` needs (.., slice, index, ..)"));
    }
    let slice = match args[slice_arg] {
        [Token {
            tok: Tok::Ident(s), ..
        }] => *s,
        _ => return Err("slice argument must be a plain identifier".to_string()),
    };
    let len = ctx
        .lens
        .get(slice)
        .ok_or_else(|| format!("no length fact for slice `{slice}`"))?;
    let mut idx = parse_expr(args[slice_arg + 1]).map_err(|e| format!("index expression: {e}"))?;
    for (name, def) in &ctx.defs {
        idx = idx.subst(name, def);
    }

    // Substitute every loop variable by its maximum (hi − 1), innermost
    // first so outer variables in inner bounds resolve. Soundness needs
    // the index monotone in each substituted variable.
    let mut worst = idx;
    for fr in ctx.loops.iter().rev() {
        if !worst.monotone_in(&fr.var) {
            return Err(format!("index not monotone in loop variable `{}`", fr.var));
        }
        worst = worst.subst(&fr.var, &fr.hi.sub(&Poly::constant(1)));
    }
    let mut p = len.sub(&worst).sub(&Poly::constant(lanes));
    // Definitions are equalities, so they also hold of the symbols a length
    // or a loop bound brought in (`let nd = 10;` under `ND = 10`).
    for (name, def) in &ctx.defs {
        p = p.subst(name, def);
    }
    if p.terms.keys().any(|vars| vars.iter().any(|v| v == HALF)) {
        p = p.doubled()?;
    }

    // Rewrite to all-nonnegative coefficients using the collected facts.
    for _round in 0..32 {
        if p.all_nonneg() {
            return Ok(());
        }
        if !rewrite_once(&mut p, ctx) {
            break;
        }
    }
    Err(format!(
        "residual `{p} ≥ 0` not provable from the stated preconditions"
    ))
}

/// One fact-rewrite step on `p` (lower-bounding transformations only, so
/// `p' ≥ 0 ⟹ p ≥ 0`). Returns false when no rewrite applies.
fn rewrite_once(p: &mut Poly, ctx: &Kctx) -> bool {
    // Floor-division: `q = ⌊x/k⌋` gives `k·q ≤ x`. A *negative* multiple
    // of q may be replaced by the same multiple of x/k (this lowers p).
    // With a `k | x` divisibility fact, `k·q == x` exactly and positive
    // multiples may be rewritten too.
    for (q, x, k) in &ctx.floordivs {
        let exact = match x.terms.iter().collect::<Vec<_>>()[..] {
            [(vars, &1)] if vars.len() == 1 => {
                ctx.divides.iter().any(|(dk, dx)| dk == k && *dx == vars[0])
            }
            _ => false,
        };
        let target = p.terms.iter().find_map(|(vars, &c)| {
            let occ = vars.iter().filter(|s| *s == q).count();
            if occ == 1 && c % k == 0 && (c < 0 || exact) {
                Some((vars.clone(), c))
            } else {
                None
            }
        });
        if let Some((vars, c)) = target {
            p.add_term(vars.clone(), -c);
            let mut rest = Poly::zero();
            let without: Vec<String> = {
                let mut v = vars.clone();
                let pos = v.iter().position(|s| s == q).expect("occurrence checked");
                v.remove(pos);
                v
            };
            rest.terms.insert(without, 1);
            let replacement = Poly::constant(c / k).mul(x).mul(&rest);
            *p = p.add(&replacement);
            return true;
        }
    }
    // Upper bounds: a negative multiple of `s` with `s ≤ n` may be
    // replaced by the same multiple of n.
    for (s, n) in &ctx.upper {
        let target = p.terms.iter().find_map(|(vars, &c)| {
            if c < 0 && vars.iter().any(|v| v == s) {
                Some((vars.clone(), c))
            } else {
                None
            }
        });
        if let Some((vars, c)) = target {
            p.add_term(vars.clone(), -c);
            let without: Vec<String> = {
                let mut v = vars.clone();
                let pos = v.iter().position(|x| x == s).expect("occurrence checked");
                v.remove(pos);
                v
            };
            let mut rest = Poly::zero();
            rest.terms.insert(without, 1);
            let replacement = Poly::constant(c * n).mul(&rest);
            *p = p.add(&replacement);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_AVX2: &str = r#"
// verify: prove-bounds
unsafe fn emv_avx2_impl(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ve.len(), nd);
    ve.fill(0.0);
    let chunks = nd / 4;
    for j in 0..nd {
        let u = lanes::read1(ue, j);
        let ub = _mm256_set1_pd(u);
        for c in 0..chunks {
            let k = lanes::load4(ke, j * nd + 4 * c);
            let v = lanes::load4(ve, 4 * c);
            lanes::store4(ve, 4 * c, _mm256_fmadd_pd(k, ub, v));
        }
        for i in 4 * chunks..nd {
            lanes::add1(ve, i, lanes::read1(ke, j * nd + i) * u);
        }
    }
}
"#;

    #[test]
    fn per_element_kernel_certifies() {
        let (certs, diags) = certify_source("crates/la/src/dense.rs", GOOD_AVX2);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].kernel, "dense::emv_avx2_impl");
        // read1 + 2×load4 + store4 + read1 + add1.
        assert_eq!(certs[0].accesses, 6);
        assert_eq!(certs[0].loops, 3);
    }

    const GOOD_BATCH: &str = r#"
// verify: prove-bounds
unsafe fn emv_batch_avx2_impl(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    debug_assert!(bw % 4 == 0 && bw <= 32);
    let chunks = bw / 4;
    for i in 0..nd {
        let mut acc = [_mm256_setzero_pd(); 8];
        for j in 0..nd {
            for c in 0..chunks {
                let k = lanes::load4(keb, (j * nd + i) * bw + 4 * c);
                let u = lanes::load4(ue, j * bw + 4 * c);
                acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
            }
        }
        for c in 0..chunks {
            lanes::store4(ve, i * bw + 4 * c, acc[c]);
        }
    }
}
"#;

    #[test]
    fn batched_kernel_certifies() {
        let (certs, diags) = certify_source("crates/la/src/dense.rs", GOOD_BATCH);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].accesses, 3);
    }

    const GOOD_BATCH_MV: &str = r#"
// verify: prove-bounds
unsafe fn emv_batch_mv_avx2_impl(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    debug_assert_eq!(keb.len(), nd * nd * bw);
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    debug_assert!(nvec % 4 == 0 && nvec <= 32);
    let chunks = nvec / 4;
    for k in 0..bw {
        for i in 0..nd {
            let mut acc = [_mm256_setzero_pd(); 8];
            for j in 0..nd {
                let ke = lanes::bcast4(keb, (j * nd + i) * bw + k);
                for c in 0..chunks {
                    let u = lanes::load4(ue, (j * bw + k) * nvec + 4 * c);
                    acc[c] = _mm256_fmadd_pd(ke, u, acc[c]);
                }
            }
            for c in 0..chunks {
                lanes::store4(ve, (i * bw + k) * nvec + 4 * c, acc[c]);
            }
        }
    }
}
"#;

    /// The multivector kernel shape: a `bcast4` of one `keb` scalar
    /// amortized over `nvec/4` column chunks, panels strided by `nvec`.
    #[test]
    fn multivector_kernel_certifies() {
        let (certs, diags) = certify_source("crates/la/src/dense.rs", GOOD_BATCH_MV);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(certs.len(), 1);
        // bcast4 + load4 + store4.
        assert_eq!(certs[0].accesses, 3);
    }

    #[test]
    fn multivector_off_by_one_is_rejected() {
        let broken = GOOD_BATCH_MV.replace(
            "(i * bw + k) * nvec + 4 * c",
            "(i * bw + k) * nvec + 4 * c + 1",
        );
        let (certs, diags) = certify_source("crates/la/src/dense.rs", &broken);
        assert!(certs.is_empty());
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("cannot prove `lanes::store4` in bounds")),
            "{diags:?}"
        );
    }

    #[test]
    fn mv_slab_contract_checks_widened_panels() {
        // nd=8, bw=4, nvec=8: keb unchanged, panels ×nvec.
        assert!(check_mv_slab_contract(8, 4, 8, 8 * 8 * 4, 8 * 4 * 8, 8 * 4 * 8).is_ok());
        let err = check_mv_slab_contract(8, 4, 8, 8 * 8 * 4, 8 * 4 * 8 - 8, 8 * 4 * 8).unwrap_err();
        assert!(
            err.contains("violates the proved kernel precondition"),
            "{err}"
        );
        let err = check_mv_slab_contract(8, 4, 3, 8 * 8 * 4, 8 * 4 * 3 + 1, 8 * 4 * 3).unwrap_err();
        assert!(err.contains("not a multiple of nvec"), "{err}");
        assert!(check_mv_slab_contract(8, 4, 0, 8 * 8 * 4, 0, 0).is_err());
    }

    #[test]
    fn off_by_one_kernel_is_rejected() {
        // The deliberately broken fixture: `+ 1` pushes the last lane out.
        let broken = GOOD_AVX2.replace("j * nd + 4 * c", "j * nd + 4 * c + 1");
        let (certs, diags) = certify_source("crates/la/src/dense.rs", &broken);
        assert!(certs.is_empty());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("cannot prove `lanes::load4` in bounds"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("residual"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn missing_modulus_fact_fails_the_batch_proof() {
        // Without `bw % 4 == 0` the store tail cannot be tight... the
        // load obligations still hold (floor division lower-bounds), but
        // removing the *length fact* must break the proof.
        let broken = GOOD_BATCH.replace("debug_assert_eq!(ue.len(), nd * bw);", "");
        let (certs, diags) = certify_source("crates/la/src/dense.rs", &broken);
        assert!(certs.is_empty());
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("no length fact for slice `ue`")),
            "{diags:?}"
        );
    }

    #[test]
    fn raw_pointer_constructs_are_rejected() {
        let src = r#"
// verify: prove-bounds
unsafe fn sneaky(ke: &[f64], ue: &[f64], ve: &mut [f64]) {
    let nd = ue.len();
    debug_assert_eq!(ke.len(), nd * nd);
    let p = ke.as_ptr();
    let x = *p.add(3);
    let y = *ke.get_unchecked(0);
    let v = _mm256_loadu_pd(p);
}
"#;
        let (certs, diags) = certify_source("crates/la/src/x.rs", src);
        assert!(certs.is_empty());
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`.as_ptr(..)`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`.add(..)`")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("`.get_unchecked(..)`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("unmodeled SIMD intrinsic `_mm256_loadu_pd`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn non_monotone_index_is_rejected() {
        let src = r#"
// verify: prove-bounds
unsafe fn downward(ke: &[f64], ue: &[f64], nd: usize) {
    debug_assert_eq!(ke.len(), nd * nd);
    debug_assert_eq!(ue.len(), nd);
    for j in 0..nd {
        let x = lanes::read1(ke, nd * nd - j);
    }
}
"#;
        let (_certs, diags) = certify_source("crates/la/src/x.rs", src);
        assert!(
            diags.iter().any(|d| d.message.contains("not monotone")),
            "{diags:?}"
        );
    }

    #[test]
    fn unmarked_fns_are_ignored() {
        let src = "unsafe fn free(p: *const f64) { let x = *p.add(1); }\n";
        let (certs, diags) = certify_source("crates/la/src/x.rs", src);
        assert!(certs.is_empty() && diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn slab_contract_matches_kernel_preconditions() {
        assert!(check_slab_contract(8, 4, 8 * 8 * 4, 8 * 4, 8 * 4).is_ok());
        assert!(check_slab_contract(8, 4, 36 * 4, 8 * 4, 8 * 4).is_ok());
        for bad in [8 * 8 * 4 - 1, 36 * 4 + 1, 50 * 4, 0] {
            let err = check_slab_contract(8, 4, bad, 8 * 4, 8 * 4).unwrap_err();
            assert!(err.contains("keb"), "{err}");
        }
        assert!(check_mv_slab_contract(8, 4, 8, 36 * 4, 8 * 4 * 8, 8 * 4 * 8).is_ok());
        assert!(check_slab_contract(0, 4, 0, 0, 0).is_err());
    }

    const GOOD_PACKED: &str = r#"
// verify: prove-bounds
unsafe fn emv_batch_avx2_impl<const PACKED: bool>(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize) {
    debug_assert_eq!(keb.len(), if PACKED { tri(nd) * bw } else { nd * nd * bw });
    debug_assert_eq!(ue.len(), nd * bw);
    debug_assert_eq!(ve.len(), nd * bw);
    debug_assert!(bw % 4 == 0 && bw <= 32);
    let chunks = bw / 4;
    for i in 0..nd {
        let mut acc = [_mm256_setzero_pd(); 8];
        for j in 0..i {
            let s = if PACKED { tri(i) + j } else { j * nd + i };
            for c in 0..chunks {
                let k = lanes::load4(keb, s * bw + 4 * c);
                let u = lanes::load4(ue, j * bw + 4 * c);
                acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
            }
        }
        for j in i..nd {
            let s = if PACKED { tri(j) + i } else { j * nd + i };
            for c in 0..chunks {
                let k = lanes::load4(keb, s * bw + 4 * c);
                let u = lanes::load4(ue, j * bw + 4 * c);
                acc[c] = _mm256_fmadd_pd(k, u, acc[c]);
            }
        }
        for c in 0..chunks {
            lanes::store4(ve, i * bw + 4 * c, acc[c]);
        }
    }
}
"#;

    /// A `const PACKED: bool` kernel is proved once per instantiation,
    /// each against its own slab length.
    #[test]
    fn layout_generic_kernel_certifies_per_instantiation() {
        let (certs, diags) = certify_source("crates/la/src/dense.rs", GOOD_PACKED);
        assert!(diags.is_empty(), "{diags:?}");
        let names: Vec<&str> = certs.iter().map(|c| c.kernel.as_str()).collect();
        assert_eq!(
            names,
            [
                "dense::emv_batch_avx2_impl::<PACKED=false>",
                "dense::emv_batch_avx2_impl::<PACKED=true>"
            ]
        );
        // 2 × (keb load4 + ue load4) + store4, in each instantiation.
        assert!(certs.iter().all(|c| c.accesses == 5 && c.loops == 6));
    }

    /// The packed proofs are tight: the last slot read is `tri(nd) − 1`,
    /// so one slot further, a slab one row short, the triangle of the
    /// wrong index, or the full-layout index into a packed slab all fail —
    /// and only in the instantiation they break.
    #[test]
    fn packed_index_errors_are_rejected() {
        for (from, to) in [
            ("tri(j) + i }", "tri(j) + i + 1 }"),
            ("tri(i) + j }", "tri(i) + j + 2 }"),
            ("tri(j) + i }", "tri(j) + j + 1 }"),
            ("tri(j) + i }", "j * nd + i }"),
            ("{ tri(nd) * bw }", "{ tri(nd - 1) * bw }"),
            ("{ tri(nd) * bw }", "{ nd * nd * bw / 2 }"),
        ] {
            let broken = GOOD_PACKED.replacen(from, to, 1);
            assert_ne!(broken, GOOD_PACKED, "fixture edit `{from}` did not apply");
            let (certs, diags) = certify_source("crates/la/src/dense.rs", &broken);
            let names: Vec<&str> = certs.iter().map(|c| c.kernel.as_str()).collect();
            assert_eq!(
                names,
                ["dense::emv_batch_avx2_impl::<PACKED=false>"],
                "`{to}`: {diags:?}"
            );
            assert!(
                diags
                    .iter()
                    .all(|d| d.kernel == "dense::emv_batch_avx2_impl::<PACKED=true>"),
                "`{to}`: {diags:?}"
            );
        }
        // The full-layout arm is checked just as independently.
        let broken = GOOD_PACKED.replacen("else { j * nd + i }", "else { j * nd + i + 1 }", 1);
        let (certs, _) = certify_source("crates/la/src/dense.rs", &broken);
        let names: Vec<&str> = certs.iter().map(|c| c.kernel.as_str()).collect();
        assert_eq!(names, ["dense::emv_batch_avx2_impl::<PACKED=true>"]);
    }

    /// The shape of the shipped batched body: generic over the lane type,
    /// the slab layout, the dimension and the multivector width, with
    /// `ND = 0` / `NVEC = 0` for "read at run time" and `NVEC = 1` for the
    /// single-vector product (a tile of batch lanes and a `Ke` load; other
    /// widths tile columns of one lane against a `Ke` broadcast); two lane
    /// types, a dispatcher naming the `ND` values, and the `NVEC` values
    /// passed through it, the fixed width by a named constant.
    const GOOD_GENERIC: &str = r#"
impl Lane for f64 {
    const W: usize = 1;
    unsafe fn load(s: &[f64], at: usize) -> Self { lanes::read1(s, at) }
    unsafe fn store(s: &mut [f64], at: usize, v: Self) { s[at] = v; }
    unsafe fn splat(s: &[f64], at: usize) -> Self { lanes::read1(s, at) }
}
impl Lane for std::arch::x86_64::__m512d {
    const W: usize = 8;
    unsafe fn load(s: &[f64], at: usize) -> Self { lanes::load8(s, at) }
    unsafe fn store(s: &mut [f64], at: usize, v: Self) { lanes::store8(s, at, v); }
    unsafe fn splat(s: &[f64], at: usize) -> Self { lanes::bcast8(s, at) }
}
// verify: prove-bounds
unsafe fn body<L: Lane, const PACKED: bool, const ND: usize, const NVEC: usize>(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    let nd = if ND == 0 { nd } else { ND };
    let nvec = if NVEC == 0 { nvec } else { NVEC };
    debug_assert_eq!(keb.len(), if PACKED { tri(nd) * bw } else { nd * nd * bw });
    debug_assert_eq!(ue.len(), nd * bw * nvec);
    debug_assert_eq!(ve.len(), nd * bw * nvec);
    let groups = if NVEC == 1 { 1 } else { bw };
    let tiles = if NVEC == 1 { bw } else { nvec } / L::W;
    if ND == 0 {
        if PACKED {
            for r in 0..nd {
                for g in 0..groups {
                    let mut acc = L::ZEROS;
                    let mut ur = L::ZEROS;
                    for t in 0..tiles {
                        ur[t] = L::load(ue, (r * bw + g) * nvec + L::W * t);
                    }
                    for c in 0..r {
                        let s = tri(r) + c;
                        for t in 0..tiles {
                            let k = if NVEC == 1 { L::load(keb, s * bw + L::W * t) } else { L::splat(keb, s * bw + g) };
                            let at = (c * bw + g) * nvec + L::W * t;
                            acc[t] = L::fmadd(k, L::load(ue, at), acc[t]);
                            L::store(ve, at, L::fmadd(k, ur[t], L::load(ve, at)));
                        }
                    }
                    let s = tri(r) + r;
                    for t in 0..tiles {
                        let k = if NVEC == 1 { L::load(keb, s * bw + L::W * t) } else { L::splat(keb, s * bw + g) };
                        L::store(ve, (r * bw + g) * nvec + L::W * t, L::fmadd(k, ur[t], acc[t]));
                    }
                }
            }
        } else {
            ve.fill(0.0);
            for j in 0..nd {
                for g in 0..groups {
                    let mut uj = L::ZEROS;
                    for t in 0..tiles {
                        uj[t] = L::load(ue, (j * bw + g) * nvec + L::W * t);
                    }
                    for i in 0..nd {
                        let s = j * nd + i;
                        for t in 0..tiles {
                            let k = if NVEC == 1 { L::load(keb, s * bw + L::W * t) } else { L::splat(keb, s * bw + g) };
                            let at = (i * bw + g) * nvec + L::W * t;
                            L::store(ve, at, L::fmadd(k, uj[t], L::load(ve, at)));
                        }
                    }
                }
            }
        }
    } else {
        for g in 0..groups {
            for t in 0..tiles {
                let mut u = [L::ZERO; ND];
                for j in 0..ND {
                    u[j] = L::load(ue, (j * bw + g) * nvec + L::W * t);
                }
                for i in 0..ND {
                    let mut acc = L::ZERO;
                    for j in 0..ND {
                        let k = if NVEC == 1 {
                            if !PACKED {
                                L::load(keb, (j * ND + i) * bw + L::W * t)
                            } else if j <= i {
                                L::load(keb, (tri(i) + j) * bw + L::W * t)
                            } else {
                                L::load(keb, (tri(j) + i) * bw + L::W * t)
                            }
                        } else if !PACKED {
                            L::splat(keb, (j * ND + i) * bw + g)
                        } else if j <= i {
                            L::splat(keb, (tri(i) + j) * bw + g)
                        } else {
                            L::splat(keb, (tri(j) + i) * bw + g)
                        };
                        acc = L::fmadd(k, u[j], acc);
                    }
                    L::store(ve, (i * bw + g) * nvec + L::W * t, acc);
                }
            }
        }
    }
}
unsafe fn on<L: Lane, const PACKED: bool, const NVEC: usize>(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    match nd {
        4 => body::<L, PACKED, 4, NVEC>(keb, ue, ve, nd, bw, nvec),
        10 => body::<L, PACKED, 10, NVEC>(keb, ue, ve, nd, bw, nvec),
        _ => body::<L, PACKED, 0, NVEC>(keb, ue, ve, nd, bw, nvec),
    }
}
pub const FIXED_NVEC_WIDTH: usize = 8;
unsafe fn entries<L: Lane>(keb: &[f64], ue: &[f64], ve: &mut [f64], nd: usize, bw: usize, nvec: usize) {
    on::<L, false, 1>(keb, ue, ve, nd, bw, 1);
    if nvec == FIXED_NVEC_WIDTH {
        on::<L, false, FIXED_NVEC_WIDTH>(keb, ue, ve, nd, bw, nvec)
    } else {
        on::<L, false, 0>(keb, ue, ve, nd, bw, nvec)
    }
}
"#;

    fn certified(src: &str) -> (Vec<String>, Vec<AbsDiag>) {
        let (certs, diags) = certify_source("crates/la/src/dense.rs", src);
        (certs.into_iter().map(|c| c.kernel).collect(), diags)
    }

    /// `src` with `from` replaced once: a fixture edit that must apply.
    fn edited(src: &str, from: &str, to: &str) -> String {
        let out = src.replacen(from, to, 1);
        assert_ne!(out, src, "fixture edit `{from}` did not apply");
        out
    }

    /// Certify a broken fixture and check it is rejected for exactly the
    /// instantiations `broken` names (`total` in all), each with a message
    /// containing `why`.
    fn rejected_exactly(src: &str, total: usize, broken: impl Fn(&str) -> bool, why: &str) {
        let (names, diags) = certified(src);
        assert!(names.iter().all(|k| !broken(k)), "{names:?}");
        assert!(
            diags
                .iter()
                .all(|d| broken(&d.kernel) && d.message.contains(why)),
            "{diags:?}"
        );
        let mut refused: Vec<&str> = diags.iter().map(|d| d.kernel.as_str()).collect();
        refused.dedup();
        assert!(!refused.is_empty());
        assert_eq!(
            names.len() + refused.len(),
            total,
            "{names:?} / {refused:?}"
        );
    }

    /// One certificate per lane type × layout × dimension × width the file
    /// instantiates, the run-time instantiations included, each
    /// interpreting only the arms its parameters compile.
    #[test]
    fn generic_kernel_certifies_per_lane_layout_dimension_and_width() {
        let (names, diags) = certified(GOOD_GENERIC);
        assert!(diags.is_empty(), "{diags:?}");
        let mut want = Vec::new();
        for lane in ["f64", "__m512d"] {
            for packed in [false, true] {
                for nd in [0, 4, 10] {
                    for nvec in [0, 1, 8] {
                        want.push(format!(
                            "dense::body::<L={lane}, PACKED={packed}, ND={nd}, NVEC={nvec}>"
                        ));
                    }
                }
            }
        }
        assert_eq!(names, want);
        let (certs, _) = certify_source("crates/la/src/dense.rs", GOOD_GENERIC);
        for c in &certs {
            let fixed = !c.kernel.contains("ND=0,");
            let packed = c.kernel.contains("PACKED=true");
            // Fixed: ue row, store, and one keb access per layout arm, over
            // (g, t, j, i, j). Run time, packed: the ue row, per entry keb,
            // ue and the ve load and store, and the diagonal's keb and
            // store, over (r, g, t, c, t, t). Run time, full: the ue row,
            // then keb and the ve load and store, over (j, g, t, i, t).
            let want = match (fixed, packed) {
                (true, false) => (3, 5),
                (false, true) => (7, 6),
                // Fixed packed, and run-time full.
                _ => (4, 5),
            };
            assert_eq!((c.accesses, c.loops), want, "{c:?}");
        }
    }

    /// A width passed by name is the value of the named constant: change
    /// the constant and the certified instantiations follow it.
    #[test]
    fn named_width_constant_is_instantiated_at_its_value() {
        let src = edited(
            GOOD_GENERIC,
            "FIXED_NVEC_WIDTH: usize = 8;",
            "FIXED_NVEC_WIDTH: usize = 16;",
        );
        let (names, diags) = certified(&src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(names.len(), 36);
        assert!(names.iter().all(|k| !k.ends_with("NVEC=8>")), "{names:?}");
        assert_eq!(names.iter().filter(|k| k.ends_with("NVEC=16>")).count(), 12);
    }

    /// An off-by-one slot in the unrolled triangle split walks one slot
    /// past a packed slab: rejected for the packed fixed-`ND`
    /// instantiations whose `Ke` operand that arm is, and nothing else.
    #[test]
    fn unrolled_triangle_off_by_one_is_rejected_where_it_breaks() {
        let packed_fixed = |k: &str| k.contains("PACKED=true") && !k.contains("ND=0,");
        for (from, to) in [
            (
                "(tri(j) + i) * bw + L::W * t",
                "(tri(j) + i + 1) * bw + L::W * t",
            ),
            (
                "(tri(i) + j) * bw + L::W * t",
                "(tri(i) + j + 1) * bw + L::W * t",
            ),
        ] {
            rejected_exactly(
                &edited(GOOD_GENERIC, from, to),
                36,
                |k| packed_fixed(k) && k.ends_with("NVEC=1>"),
                "cannot prove `L::load`",
            );
        }
        // The same slip in the broadcast arm: only the SpMM instantiations.
        rejected_exactly(
            &edited(
                GOOD_GENERIC,
                "(tri(j) + i) * bw + g",
                "(tri(j) + i + 1) * bw + g",
            ),
            36,
            |k| packed_fixed(k) && !k.ends_with("NVEC=1>"),
            "cannot prove `L::splat` (1 lane(s))",
        );
        // A dimension-dependent break: the full-layout column stride of a
        // *different* dimension overruns exactly the instantiations whose
        // slab is smaller than that.
        rejected_exactly(
            &edited(GOOD_GENERIC, "(j * ND + i) * bw", "(j * 10 + i) * bw"),
            36,
            |k| k.contains("PACKED=false, ND=4, NVEC=1>"),
            "cannot prove `L::load`",
        );
    }

    /// The run-time-`nd` walk is proved on its own: one slot too far in
    /// the full layout's column walk, or past the packed diagonal, is
    /// rejected for exactly the `ND = 0` instantiations of that layout, at
    /// every width and on every lane type.
    #[test]
    fn run_time_walk_off_by_one_is_rejected_where_it_breaks() {
        for (from, to, packed) in [
            ("let s = j * nd + i;", "let s = j * nd + i + 1;", false),
            ("let s = tri(r) + r;", "let s = tri(r) + r + 1;", true),
        ] {
            let layout = format!("PACKED={packed}, ND=0,");
            rejected_exactly(
                &edited(GOOD_GENERIC, from, to),
                36,
                |k| k.contains(&layout),
                "cannot prove `L::",
            );
        }
    }

    /// A column tile that steps `W` past the panel's `nvec` columns — one
    /// tile too many — is rejected for every SpMM instantiation, fixed or
    /// run-time width, and for none of the single-vector ones, whose tiles
    /// run over the batch.
    #[test]
    fn column_tile_past_nvec_is_rejected_where_it_breaks() {
        rejected_exactly(
            &edited(
                GOOD_GENERIC,
                "else { nvec } / L::W",
                "else { nvec + L::W } / L::W",
            ),
            36,
            |k| !k.ends_with("NVEC=1>"),
            "cannot prove `L::",
        );
    }

    /// A lane type whose accessors touch more lanes than they say would
    /// make every proof about the wrong width: the impl itself is
    /// rejected, and with it every instantiation — a `W` that disagrees
    /// with the loads, or a broadcast that reads a whole vector.
    #[test]
    fn lane_impl_width_mismatch_is_rejected() {
        for (from, to, why) in [
            (
                "const W: usize = 8;",
                "const W: usize = 4;",
                "declares W = 4 but its `load` forwards to `lanes::load8` (8 lane(s))",
            ),
            (
                "lanes::bcast8(s, at)",
                "lanes::load8(s, at)",
                "declares W = 8 but its `splat` forwards to `lanes::load8` (8 lane(s))",
            ),
        ] {
            let (names, diags) = certified(&edited(GOOD_GENERIC, from, to));
            assert!(names.is_empty(), "{names:?}");
            assert!(diags.iter().any(|d| d.message.contains(why)), "{diags:?}");
        }
    }

    const GOOD_GATHER: &str = r#"
// verify: prove-bounds
unsafe fn gather_panel_avx512(data: &[f64], gi: &[u32], ue: &mut [f64]) {
    let n = gi.len();
    debug_assert_eq!(ue.len(), n);
    let rows = n / 8;
    for r in 0..rows {
        lanes::store8(ue, 8 * r, lanes::gather8(data, gi, 8 * r));
    }
    for t in 8 * rows..n {
        ue[t] = data[gi[t] as usize];
    }
}
"#;

    /// The gather helper's obligation is on the *index row* it reads
    /// (`at + 8 <= gi.len()`); one slot further is a read past the table.
    #[test]
    fn gather_past_the_index_row_is_rejected() {
        let (names, diags) = certified(GOOD_GATHER);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(names, ["dense::gather_panel_avx512"]);
        let broken =
            GOOD_GATHER.replace("gather8(data, gi, 8 * r)", "gather8(data, gi, 8 * r + 1)");
        let (names, diags) = certified(&broken);
        assert!(names.is_empty());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("cannot prove `lanes::gather8` in bounds"),
            "{}",
            diags[0].message
        );
        // The obligation is about `gi`, not `data`: without a length fact
        // for the index table there is nothing to prove it from.
        let broken = GOOD_GATHER.replace("let n = gi.len();", "let n = data.len();");
        let (_, diags) = certified(&broken);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("no length fact for slice `gi`")),
            "{diags:?}"
        );
    }

    /// A `let mut` index is not pinned by its initializer, so it is never
    /// substituted — the access stays unprovable instead of being "proved"
    /// at the initial value.
    #[test]
    fn mutable_let_is_not_an_index_definition() {
        let src = r#"
// verify: prove-bounds
unsafe fn creeping(ke: &[f64], nd: usize) {
    debug_assert_eq!(ke.len(), nd);
    let mut at = 0;
    for j in 0..nd {
        let x = lanes::read1(ke, at);
        at += 2;
    }
}
"#;
        let (certs, diags) = certify_source("crates/la/src/x.rs", src);
        assert!(certs.is_empty());
        assert!(
            diags.iter().any(|d| d.message.contains("not provable")),
            "{diags:?}"
        );
    }

    #[test]
    fn triangular_numbers_are_exact_halves() {
        let nd = Poly::var("nd");
        // tri(nd) − tri(nd − 1) = nd.
        let step = Poly::tri(&nd).sub(&Poly::tri(&nd.sub(&Poly::constant(1))));
        assert_eq!(step.doubled().unwrap(), nd.add(&nd));
        assert!(Poly::tri(&nd).mul(&Poly::tri(&nd)).doubled().is_err());
    }

    #[test]
    fn poly_arithmetic_and_display() {
        let nd = Poly::var("nd");
        let p = nd.mul(&nd).sub(&Poly::var("nd")).add(&Poly::constant(-3));
        assert!(!p.all_nonneg());
        assert!(p.monotone_in("bw"));
        assert!(!p.sub(&nd.mul(&nd)).monotone_in("nd"));
        let s = format!("{p}");
        assert!(s.contains("nd·nd"), "{s}");
    }
}
