//! Algorithm 2, written once: scatter, independent EMVs, wait, dependent
//! EMVs, gather. Every operator's SPMV and SpMM is one [`apply`], generic
//! over where the element products come from (an [`ElementSource`]:
//! stored slabs, Algorithm 4's recomputed `Ke`, or Algorithm 3's device
//! panels in `hymv-gpu`) and when the independent elements run (the
//! [`Overlap`] policy); the panel width is the DAs' `nvec`. The policy
//! only reorders local work — both send the same envelopes in the same
//! per-link order, so a degraded rank stays wire-compatible with its
//! healthy neighbours.
//!
//! The overlapped independent set is the scatter window, marked here once
//! ([`Comm::overlap_window`]). Under the protocol audit the window checks
//! Algorithm 2's phase rules where they run: no blocking receive or
//! collective wait and no allocation inside it, and — the ghost slots
//! holding `GhostExchange::poison_ghosts`' tagged NaN until the scatter
//! lands — no ghost read either (DESIGN.md §9).

use hymv_comm::Comm;
use hymv_trace::Phase;

use crate::da::DistArray;
use crate::exchange::GhostExchange;

/// Where an apply's element products come from.
pub trait ElementSource {
    /// `v += K_set · u` over one element set: the independent elements, or
    /// the `dependent` ones that read ghost values. `u` and `v` share their
    /// width `nvec`.
    fn run_element_set(
        &mut self,
        comm: &mut Comm,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
    );
}

/// When the independent elements run relative to the ghost scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// Inside the scatter window (Algorithm 2) — unless the channel has
    /// degraded (persistent timeouts), when the apply runs `Blocking`.
    Overlapped,
    /// After the scatter completes: the ablation counterpart, and the
    /// degraded-channel schedule (no compute inside a flaky scatter window).
    Blocking,
}

/// One SPMV (`nvec = 1`) or SpMM `v = K·u` with `u`'s owned block already
/// set: `v` is zeroed, `u`'s ghosts refreshed, `flops` published, and the
/// exchange outcome noted so a degraded rank can re-arm.
pub fn apply(
    comm: &mut Comm,
    exchange: &GhostExchange,
    overlap: Overlap,
    src: &mut impl ElementSource,
    u: &mut DistArray,
    v: &mut DistArray,
    flops: u64,
) {
    let overlapped = overlap == Overlap::Overlapped && !comm.degraded();
    v.fill_zero();
    exchange.scatter_begin(comm, u);
    if comm.audited() {
        exchange.poison_ghosts(u);
    }
    if overlapped {
        comm.traced(Phase::IndepEmv, |comm| {
            comm.overlap_window(|comm| src.run_element_set(comm, false, u, v))
        });
    }
    exchange.scatter_end(comm, u);
    if !overlapped {
        comm.traced(Phase::IndepEmv, |comm| {
            src.run_element_set(comm, false, u, v)
        });
    }
    comm.traced(Phase::DepEmv, |comm| src.run_element_set(comm, true, u, v));
    exchange.gather_begin(comm, v);
    exchange.gather_end(comm, v);
    hymv_trace::counter_add("hymv_emv_flops_total", &[], flops);
    comm.note_exchange_outcome();
}
