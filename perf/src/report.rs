//! The metric tables (the code's copy of `BENCHMARK.json`, checked against
//! it by `--smoke`), the values behind every name, and the printed report.

use std::fmt::Write as _;

use crate::body::{Checks, RankOut, Samples};
use crate::layers::Ledger;
use crate::stats::{median, Summary};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// How long one run measures unless `--seconds` says otherwise
/// (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 25.0;

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("spmv_s", "s", "lower", 0.25),
    e2e("solve_s", "s", "lower", 0.25),
    e2e("time_to_solution_s", "s", "lower", 0.25),
    e2e("update_s", "s", "lower", 0.2),
    e2e("step_s", "s", "lower", 0.25),
    e2e("req_per_s", "1/s", "higher", 0.25),
    e2e("req_latency_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

pub const PER_LAYER: &[Layer] = &[
    layer("fem.compute_ke.us_per_elem", "us", "lower"),
    layer("fem.compute_ke.gflops", "GF/s", "higher"),
    layer("core.maps.build_s", "s", "lower"),
    layer("core.exchange.build_s", "s", "lower"),
    layer("core.block.plan_build_s", "s", "lower"),
    layer("la.dense.emv_batch.s", "s", "lower"),
    layer("la.dense.emv_batch.gflops", "GF/s", "higher"),
    layer("la.dense.emv_batch.gbps", "GB/s", "higher"),
    layer("la.dense.emv_batch.flops_per_byte", "flop/B", "higher"),
    layer("la.dense.emv_batch.bw_frac", "ratio", "higher"),
    layer("la.dense.emv_batch_mv.gflops", "GF/s", "higher"),
    layer("core.block.gather_ns_per_dof", "ns", "lower"),
    layer("core.block.scatter_ns_per_dof", "ns", "lower"),
    layer("core.block.run_indep_s", "s", "lower"),
    layer("core.block.run_dep_s", "s", "lower"),
    layer("core.block.dep_elem_frac", "ratio", "lower"),
    layer("core.block.slab_bytes", "B", "lower"),
    layer("core.operator.store_bytes", "B", "lower"),
    layer("core.operator.flops_per_apply", "count", "lower"),
    layer("core.block.refresh_us_per_elem", "us", "lower"),
    layer("core.operator.update_us_per_elem", "us", "lower"),
    layer("core.exchange.scatter_s", "s", "lower"),
    layer("core.exchange.gather_s", "s", "lower"),
    layer("core.exchange.msgs_per_spmv", "count", "lower"),
    layer("core.exchange.bytes_per_spmv", "B", "lower"),
    layer("core.exchange.neighbors", "count", "lower"),
    layer("core.operator.overlap_gain", "ratio", "higher"),
    layer("comm.modeled_wait_s_per_spmv", "s", "lower"),
    layer("comm.barrier_s", "s", "lower"),
    layer("comm.allreduce_s", "s", "lower"),
    layer("comm.pingpong_8b_s", "s", "lower"),
    layer("comm.pingpong_1mib_gbps", "GB/s", "higher"),
    layer("comm.vt_over_wall.setup", "ratio", "higher"),
    layer("comm.vt_over_wall.spmv", "ratio", "higher"),
    layer("comm.vt_over_wall.solve", "ratio", "higher"),
    layer("la.cg.iterations", "count", "lower"),
    layer("la.cg.s_per_iter", "s", "lower"),
    layer("la.cg.non_spmv_frac", "ratio", "lower"),
    layer("la.block_cg.iterations", "count", "lower"),
    layer("la.block_cg.s_per_iter", "s", "lower"),
    layer("core.operator.matvec_mv.col_s", "s", "lower"),
    layer("serve.batches", "count", "higher"),
    layer("serve.mean_width", "count", "higher"),
    layer("serve.overhead_frac", "ratio", "lower"),
    layer("serve.width8_speedup", "ratio", "higher"),
    layer("core.assembled.setup_s", "s", "lower"),
    layer("core.assembled.spmv_s", "s", "lower"),
    layer("ratio.assembled_over_hymv.setup", "ratio", "higher"),
    layer("ratio.assembled_over_hymv.spmv", "ratio", "higher"),
    layer("mesh.partition_s", "s", "lower"),
    layer("mesh.imbalance", "ratio", "lower"),
    layer("mesh.ghost_node_frac", "ratio", "lower"),
    layer("machine.triad_gbps", "GB/s", "higher"),
    layer("machine.triad2_gbps", "GB/s", "higher"),
    layer("trace.attributed_frac", "ratio", "higher"),
    layer("trace.overlap_efficiency", "ratio", "higher"),
    layer("trace.max_phase_imbalance", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// One reported metric: its samples (a single one for a scalar).
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Reported {
    /// The value of the result line: the median of the samples.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Every end-to-end metric of an untraced run, from rank 0's samples.
pub fn end_to_end(out: &RankOut) -> Vec<Reported> {
    END_TO_END
        .iter()
        .map(|m| Reported {
            name: m.name,
            unit: m.unit,
            samples: if m.name == "peak_rss_mib" {
                vec![out.peak_rss_mib]
            } else {
                out.samples.get(m.name).to_vec()
            },
        })
        .collect()
}

fn median_or_zero(s: &Samples, name: &str) -> f64 {
    let v = s.get(name);
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Layer metrics that are read off the untraced body's samples: Krylov
/// and service numbers, and virtual time against the wall clock.
pub fn derive_from_body(s: &Samples, ledger: &mut Ledger) {
    for name in [
        "comm.vt_over_wall.setup",
        "comm.vt_over_wall.spmv",
        "comm.vt_over_wall.solve",
    ] {
        ledger.insert(name, median_or_zero(s, name));
    }
    let solve_s = median_or_zero(s, "solve_s");
    let spmv_s = median_or_zero(s, "spmv_s");
    let cg_its = median_or_zero(s, "la.cg.iterations");
    ledger.insert("la.cg.iterations", cg_its);
    let (per_iter, non_spmv) = if cg_its > 0.0 {
        (solve_s / cg_its, 1.0 - cg_its * spmv_s / solve_s)
    } else {
        (0.0, 0.0)
    };
    ledger.insert("la.cg.s_per_iter", per_iter);
    ledger.insert("la.cg.non_spmv_frac", non_spmv);
    let block_its = median_or_zero(s, "la.block_cg.iterations");
    ledger.insert("la.block_cg.iterations", block_its);
    ledger.insert(
        "la.block_cg.s_per_iter",
        if block_its > 0.0 {
            solve_s / block_its
        } else {
            0.0
        },
    );
    let widths = s.get("serve.width");
    ledger.insert("serve.batches", widths.len() as f64);
    ledger.insert(
        "serve.mean_width",
        if widths.is_empty() {
            0.0
        } else {
            widths.iter().sum::<f64>() / widths.len() as f64
        },
    );
}

/// Every per-layer metric, in table order. Panics if the ledger misses
/// one: a name in the table without a measurement is a bug.
pub fn per_layer(ledger: &Ledger) -> Vec<Reported> {
    PER_LAYER
        .iter()
        .map(|m| Reported {
            name: m.name,
            unit: m.unit,
            samples: vec![*ledger
                .get(m.name)
                .unwrap_or_else(|| panic!("layer metric {} was not measured", m.name))],
        })
        .collect()
}

/// The human-readable table: name, unit, median, quartiles, the highest
/// percentile with at least ten samples beyond it, and the sample count.
pub fn table(title: &str, rows: &[Reported]) -> String {
    let mut out = String::new();
    writeln!(out, "## {title}").expect("writing to a String");
    writeln!(
        out,
        "{:<36} {:>7} {:>14} {:>14} {:>14} {:>14} {:>20} {:>6}",
        "metric", "unit", "median", "q1", "q3", "min", "tail", "n"
    )
    .expect("writing to a String");
    for r in rows {
        let s = Summary::of(&r.samples);
        let tail = s.tail.map_or_else(
            || "-".to_string(),
            |(p, v)| format!("p{}={:.6e}", p * 100.0, v),
        );
        writeln!(
            out,
            "{:<36} {:>7} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>20} {:>6}",
            r.name, r.unit, s.median, s.q1, s.q3, s.min, tail, s.n
        )
        .expect("writing to a String");
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values are printed with every digit `f64` carries.
pub fn result_line(checks: &Checks, rows: &[Reported]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
    .expect("writing to a String");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name,
            r.value(),
            r.unit
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(char::is_alphanumeric));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_is_valid_json_with_exactly_four_keys() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
            notes: vec![],
        };
        let rows = vec![Reported {
            name: "setup_s",
            unit: "s",
            samples: vec![0.25, 0.125, 0.5],
        }];
        let v = parse(&result_line(&checks, &rows)).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.25));
    }

    #[test]
    fn body_derivations_handle_missing_layers() {
        let mut s = Samples::default();
        for v in [1.0, 1.2, 0.8] {
            s.push("solve_s", v);
            s.push("spmv_s", 0.004);
            s.push("la.cg.iterations", 200.0);
        }
        let mut ledger = Ledger::new();
        derive_from_body(&s, &mut ledger);
        assert_eq!(ledger["la.cg.iterations"], 200.0);
        assert!((ledger["la.cg.s_per_iter"] - 0.005).abs() < 1e-15);
        assert!((ledger["la.cg.non_spmv_frac"] - 0.2).abs() < 1e-12);
        assert_eq!(ledger["la.block_cg.iterations"], 0.0);
        assert_eq!(ledger["serve.batches"], 0.0);
        assert_eq!(ledger["comm.vt_over_wall.setup"], 0.0);
    }
}
