//! # hymv-check — correctness tooling for the HYMV stack
//!
//! Analysis passes over the reproduction's runtime and data structures,
//! usable as a library (from tests) and as the `hymv-check` CLI binary:
//!
//! * [`protocol`] — the **communication protocol auditor**. The
//!   `hymv-comm` runtime records every send, receive, collective, and rank
//!   exit as a typed event; at teardown the log is checked for unmatched
//!   sends, sends to exited ranks, unbalanced collectives, and
//!   reserved-tag traffic. On by default in debug builds (`RunConfig::audit`
//!   chooses otherwise); [`run_audited`] forces it on and returns
//!   the report for inspection.
//! * [`maps`] — the **map/DA invariant pass**. [`check_maps`],
//!   [`check_partition`], and [`check_exchange`] verify `E2L`
//!   bijectivity, the `[pre-ghost | owned | post-ghost]` DA ordering,
//!   partition range tiling, and the LNSM/GNGM transpose duality
//!   (structurally and with numerical scatter/gather probes).
//! * [`table`] and [`runner`] — the **certificate table**. Every bitwise
//!   certificate is a [`Row`]: a problem, a run (an SPMV/SpMM or a
//!   solve), a perturbation (schedule seed, thread count, transport-fault
//!   scenario, LFLR crash window, degrade-at-first-loss drop plan), seeds,
//!   and the verdict every perturbed case must reach (bit-equal, typed
//!   abort, or recovered). [`run_rows`] runs them all through one spawn
//!   path and one judge.
//!   [`run_perturbed`] is the schedule rows' check for any rank program:
//!   seeded legal reorderings of message delivery must not change a bit.

#![forbid(unsafe_code)]

pub mod biteq;
pub mod maps;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod table;

pub use biteq::BitEq;
pub use maps::{check_exchange, check_maps, check_partition};
pub use protocol::{run_audited, AuditMode, AuditReport, AuditViolation};
pub use report::PassReport;
pub use runner::{failures, run_perturbed, run_rows, Case};
pub use table::{
    select, table, CrashWindow, Driver, Perturbation, Physics, Problem, Row, Run, Scenario, Verdict,
};
