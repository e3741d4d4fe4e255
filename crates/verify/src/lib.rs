//! # hymv-verify — static analysis for the HYMV stack
//!
//! Where `hymv-check` observes the runtime (auditing real message logs,
//! perturbing real schedules), `hymv-verify` reasons about the **plans
//! and source** without executing the exchange, and its clean verdicts
//! are proofs for the analyzed configuration, not samples:
//!
//! * [`model`] — the **exchange-plan model checker**: builds the symbolic
//!   per-rank Algorithm-2 schedule from `GhostExchange` plan data and
//!   exhaustively explores its interleavings (explicit-state search with
//!   an ample-set partial-order reduction) to prove deadlock-freedom,
//!   send/recv matching, reserved-tag discipline, overlap ordering, and
//!   ghost-split soundness — emitting a minimal counterexample trace on
//!   failure. An `inconclusive` (state-cap) outcome is a first-class
//!   [`model::Verdict`] and a hard failure, never a silent sample.
//! * [`param`] — the **parameterized exchange-plan prover**: proves the
//!   same obligations for rank counts the explicit search cannot touch
//!   (p = 1024 in milliseconds) via neighborhood decomposition,
//!   symmetry-class canonicalization, and wait-for-graph acyclicity,
//!   over plans *derived statically* from the partition; at small p the
//!   explicit engine cross-checks it verdict-for-verdict (DESIGN.md
//!   §14).
//! * [`plan_bounds`] — the **block-plan index-bounds check**: every
//!   gather/scatter-table index of a built `BlockPlan` addresses a DA
//!   slot (the AVX-512 gather does no bounds check of its own).
//! * [`lint`] — the **workspace lint pass**: a comment/string-aware token
//!   scan rejecting raw tag literals at `Comm` call sites, blocking
//!   receives inside the scatter overlap window, `#[allow(unsafe_code)]`
//!   without a `// SAFETY:` comment, and wall-clock/ambient-RNG use
//!   inside the numerical kernels. Line-local and fast — it runs as the
//!   pre-pass of the interprocedural analysis below.
//! * [`effects`] (with [`callgraph`] and [`lexer`] underneath) — the
//!   **interprocedural phase-effect analysis**: a hand-rolled item parser
//!   builds the workspace call graph, a fixed-point pass infers a lattice
//!   of communication/runtime effects (`BlockingRecv`, `Waits`,
//!   `SendsTag`, `GhostRead`/`GhostWrite`, `LedgerAccess`, `WallClock`,
//!   `AmbientRng`, `Allocates`, `Unsafe`) per function, and the phase
//!   rules are checked against the inferred summaries — so a blocking
//!   receive hidden N calls deep inside a scatter overlap window is still
//!   found.
//! * [`collectives`] — the **collective-order pass** over the same call
//!   graph: proves all ranks post identical collective sequences (no
//!   collective-reaching call under a rank-dependent guard, no early
//!   return past pending collectives), with minimal witness call chains
//!   on violation and an inferred protocol report for every
//!   `// verify: collective-entry` phase (DESIGN.md §14.3).
//!
//! The `hymv-verify` binary drives the plan passes over fig4-style meshes
//! at a list of rank counts (explicit + parameterized below
//! `--explicit-max`, parameterized-only above), `hymv-verify effects`
//! runs the interprocedural analysis and the collective-order pass, and
//! `hymv-verify collectives` runs the latter alone; see `DESIGN.md`
//! §9/§12/§14 for the soundness arguments and their limits.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod collectives;
pub mod effects;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod param;
pub mod plan_bounds;

pub use callgraph::{CallGraph, CallSite, FnNode, Marker, Resolution};
pub use collectives::{
    analyze_collectives, CollectiveDiag, CollectiveEntrySeq, CollectivesReport, COLLECTIVE_SEEDS,
};
pub use effects::{analyze_effects, analyze_workspace_effects, effect, EffectSet, EffectsReport};
pub use lexer::strip_comments_and_strings;
pub use lint::{lint_source, lint_workspace, LintDiag};
pub use model::{
    check_ghost_split, check_overlap_order, check_plan_consistency, check_system,
    check_system_with_cap, verify_exchange, ModelResult, Op, PlanSummary, SendMode, System,
    Verdict, STATE_CAP,
};
pub use param::{
    check_system_parameterized, derive_plan_summaries, verify_exchange_parameterized,
    NeighborhoodClass, ParamResult,
};
pub use plan_bounds::{check_gidx_bounds, check_plan_bounds};
