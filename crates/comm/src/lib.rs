//! # hymv-comm — an MPI-like message-passing substrate
//!
//! HYMV (the adaptive-matrix SPMV of Tran et al., IPDPS 2022) was evaluated
//! with MPI on TACC Frontera. This crate provides the distributed-memory
//! runtime the library is written against, as an *in-process* substrate:
//! every MPI **rank is an OS thread** with a blocking mailbox, and the API
//! mirrors the subset of MPI the paper's algorithms need —
//! non-blocking point-to-point sends/receives (for the LNSM scatter and GNGM
//! gather with computation/communication overlap), barriers, reductions,
//! gathers, and a sparse all-to-all used during map construction.
//!
//! ## Virtual time
//!
//! The reproduction host is a single-core machine, so `p` thread-ranks
//! time-share one core and raw wall-clock tells you nothing a real cluster
//! would show. Instead every rank keeps a [`Ledger`] of **virtual time**:
//!
//! * compute sections are measured with the per-thread CPU clock
//!   (`CLOCK_THREAD_CPUTIME_ID`), which is immune to time-sharing, and
//! * communication is costed with a classic α-β model — each message is
//!   stamped with `arrival = sender_vt + α + bytes/β` at send time, and a
//!   receive wait advances the receiver to `max(receiver_vt, arrival)`.
//!
//! This rewards exactly the behaviour the paper engineers for: computation
//! that overlaps a pending receive absorbs the message latency. Reported
//! experiment times are `max` over ranks of virtual time; the benches also
//! print raw wall time for transparency.
//!
//! ## Quick example
//!
//! ```
//! use hymv_comm::{Universe, Payload};
//!
//! // Ring shift across 4 ranks.
//! let results = Universe::run(4, |comm| {
//!     let next = (comm.rank() + 1) % comm.size();
//!     let prev = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.isend(next, 7, Payload::from_f64(vec![comm.rank() as f64]));
//!     let got = comm.recv(prev, 7).into_f64();
//!     got[0] as usize
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

// Unsafe is confined to audited, SAFETY-commented sites (`#[allow]`ed
// per item); everything else is checked.
#![deny(unsafe_code)]

mod audit;
mod comm;
mod fault;
mod ledger;
mod lflr;
mod payload;
mod reliable;
mod world;

pub use audit::{
    AuditEvent, AuditEventKind, AuditMode, AuditReport, AuditViolation, BlockingOp, CollectiveKind,
    CountingAlloc,
};
pub use comm::{Comm, IallreduceHandle, RecvHandle, ReduceOp, Reducible, SendHandle};
pub use fault::{CrashSpec, FaultKind, FaultPlan, FaultReport, RetryPolicy};
pub use ledger::{assert_thread_count, thread_cpu_time, CommStats, CostModel, Ledger, TagStats};
pub use lflr::{
    catch_revoked, Recovery, Revoked, TAG_CKPT, TAG_CKPT_RESTORE, TAG_HB_PONG, TAG_HB_PROBE,
};
pub use payload::Payload;
pub use reliable::{envelope_pack, envelope_unpack, EnvelopeError, ENVELOPE_MAGIC, TAG_RESEND};
pub use world::{RunConfig, Universe};

/// Tags at or above this value are reserved for internal collectives.
///
/// This is the **single authoritative definition** of the reserved range:
/// `assert_tag_valid` (the runtime guard, on in release builds too, and
/// the one check a raw or literal tag meets), the protocol auditor, and
/// `hymv-verify`'s exchange-plan proofs all read this constant — do not
/// copy the value anywhere else.
pub const RESERVED_TAG_BASE: u32 = 0xF000_0000;

/// Tags in `[CTRL_TAG_BASE, RESERVED_TAG_BASE)` carry the reliable
/// envelope layer's control traffic (retransmission requests). Like the
/// collective band above it, the range is closed to user code — control
/// messages ride the reliable fabric and are exempt from fault injection,
/// so a user message in this band would dodge the injector and confuse
/// the recovery protocol.
pub const CTRL_TAG_BASE: u32 = 0xE000_0000;

/// Returns true if a user-supplied tag is valid (below every reserved
/// range).
pub fn tag_is_valid(tag: u32) -> bool {
    tag < CTRL_TAG_BASE
}

/// The single checked guard every user-tag entry point goes through
/// (`isend`/`irecv`/`recv`/`recv_any`/`exchange_sparse`). A plain
/// `assert!`, so it fires in release builds too: a reserved-range tag
/// would silently collide with internal protocol traffic, which is never
/// recoverable.
pub(crate) fn assert_tag_valid(tag: u32) {
    assert!(
        tag_is_valid(tag),
        "tag {tag:#x} is in the reserved range (>= {CTRL_TAG_BASE:#x})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_validity() {
        assert!(tag_is_valid(0));
        assert!(tag_is_valid(12345));
        assert!(tag_is_valid(CTRL_TAG_BASE - 1));
        assert!(!tag_is_valid(CTRL_TAG_BASE));
        assert!(!tag_is_valid(TAG_RESEND));
        assert!(!tag_is_valid(RESERVED_TAG_BASE));
        assert!(!tag_is_valid(u32::MAX));
    }
}
