//! # hymv-verify — static proofs over HYMV's plans
//!
//! Where `hymv-check` observes the runtime (auditing real message logs,
//! perturbing real schedules), `hymv-verify` reasons about the exchange
//! and block **plans** without executing the exchange, and its clean
//! verdicts are proofs for the analyzed configuration, not samples:
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
//!
//! The phase rules of Algorithm 2 — no blocking, allocation or ghost read
//! inside the scatter window, the same collectives on every rank — are
//! checked at run time by the protocol audit (`hymv-comm`, DESIGN.md §9);
//! the line-local ones (`SAFETY` comments, no wall clock or ledger access
//! in the kernel crates) by clippy.
//!
//! The `hymv-verify` binary drives the passes over fig4-style meshes at a
//! list of rank counts (explicit + parameterized below `--explicit-max`,
//! parameterized-only above); see `DESIGN.md` §14 for the soundness
//! arguments and their limits.

#![forbid(unsafe_code)]

pub mod model;
pub mod param;
pub mod plan_bounds;

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
