//! The block-plan index-bounds check.
//!
//! Every SPMV gathers its input panels through a `BlockPlan`'s flattened
//! tables, on the AVX-512 lane with a hardware gather that does no bounds
//! check of its own. This pass reads the tables of a concrete plan and
//! checks that every index addresses a slot of the DA
//! ([`check_gidx_bounds`]); the scatter writes through the same tables.
//! The check is per-plan: it covers the `BlockPlan` actually built for
//! this mesh/partition/batch width.

use hymv_check::PassReport;
use hymv_core::{BlockPlan, BlockSet, HymvMaps};

/// Check every gather/scatter-table index of `set` is in-bounds for the DA
/// (`n_total × ndof` slots).
pub fn check_gidx_bounds(maps: &HymvMaps, set: &BlockSet, ndof: usize, which: &str) -> Vec<String> {
    let mut out = Vec::new();
    let limit = (maps.n_total() * ndof) as u32;
    for k in 0..set.n_blocks() {
        if let Some(&bad) = set.gather_indices(k).iter().find(|&&d| d >= limit) {
            out.push(format!(
                "{which} block {k}: gather/scatter index {bad} out of bounds (DA has {limit} dofs)"
            ));
        }
    }
    out
}

/// Check both subsets of one rank's [`BlockPlan`].
pub fn check_plan_bounds(maps: &HymvMaps, plan: &BlockPlan, ndof: usize) -> PassReport {
    let mut report = PassReport::new("block-plan index bounds");
    for (dependent, which) in [(false, "independent"), (true, "dependent")] {
        report.absorb(
            which,
            check_gidx_bounds(maps, plan.set(dependent), ndof, which),
        );
    }
    report
}
