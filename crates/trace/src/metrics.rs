//! The typed metrics registry: counters, gauges, and log2-bucketed
//! histograms keyed by `(name, sorted labels)`. `BTreeMap` storage makes
//! every iteration order — and therefore every export — deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric identity: name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: counters end in `_total`).
    pub name: String,
    /// Label pairs, kept sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so equal label sets compare equal
    /// regardless of argument order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// A copy of this key with one more label (re-sorted).
    pub fn with_label(&self, key: &str, value: &str) -> Self {
        let mut labels = self.labels.clone();
        labels.push((key.to_string(), value.to_string()));
        labels.sort();
        MetricKey {
            name: self.name.clone(),
            labels,
        }
    }

    /// Prometheus spelling: `name` or `name{k="v",...}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    fn render_with(&self, extra_key: &str, extra_value: &str) -> String {
        self.with_label(extra_key, extra_value).render()
    }
}

/// A log2-bucketed histogram over `u64` observations: bucket `i` counts
/// values needing exactly `i` bits (`0` lands in bucket 0), so bucket
/// `i`'s inclusive upper bound is `2^i - 1`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket counts, indexed by bit width of the value.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The registry: three typed maps. Per-rank instances live in the
/// thread-local tracer and are merged (with a `rank` label) into the
/// session sink at rank flush.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Monotone counters.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Log2-bucketed histograms.
    pub histograms: BTreeMap<MetricKey, Histogram>,
}

impl Metrics {
    /// An empty registry (const: used in static initializers).
    pub const fn new() -> Self {
        Metrics {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Add `v` to the counter at `key`.
    pub fn counter_add(&mut self, key: MetricKey, v: u64) {
        *self.counters.entry(key).or_insert(0) += v;
    }

    /// Set the gauge at `key`.
    pub fn gauge_set(&mut self, key: MetricKey, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Record an observation into the histogram at `key`.
    pub fn histogram_record(&mut self, key: MetricKey, v: u64) {
        self.histograms.entry(key).or_default().record(v);
    }

    /// Merge `other` into this registry, attaching `rank="<rank>"` to
    /// every incoming key. Counters and histograms fold; gauges overwrite.
    pub fn absorb_with_rank(&mut self, other: &Metrics, rank: usize) {
        let r = rank.to_string();
        for (k, v) in &other.counters {
            *self.counters.entry(k.with_label("rank", &r)).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.with_label("rank", &r), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.with_label("rank", &r))
                .or_default()
                .merge(h);
        }
    }

    /// Sum of every counter with `name`, across all label sets — the
    /// cross-rank aggregate.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Prometheus text exposition. `# HELP` / `# TYPE` headers are
    /// emitted once per metric name; keys iterate in `BTreeMap` order,
    /// so the output is deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (k, v) in &self.counters {
            if k.name != last_name {
                writeln!(out, "# HELP {} {}", k.name, help_for(&k.name)).expect("write to String");
                writeln!(out, "# TYPE {} counter", k.name).expect("write to String");
                last_name.clone_from(&k.name);
            }
            writeln!(out, "{} {v}", k.render()).expect("write to String");
        }
        last_name.clear();
        for (k, v) in &self.gauges {
            if k.name != last_name {
                writeln!(out, "# HELP {} {}", k.name, help_for(&k.name)).expect("write to String");
                writeln!(out, "# TYPE {} gauge", k.name).expect("write to String");
                last_name.clone_from(&k.name);
            }
            writeln!(out, "{} {v}", k.render()).expect("write to String");
        }
        last_name.clear();
        for (k, h) in &self.histograms {
            if k.name != last_name {
                writeln!(out, "# HELP {} {}", k.name, help_for(&k.name)).expect("write to String");
                writeln!(out, "# TYPE {} histogram", k.name).expect("write to String");
                last_name.clone_from(&k.name);
            }
            let mut cum = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cum += n;
                if *n > 0 {
                    let le = (1u128 << i) - 1;
                    writeln!(
                        out,
                        "{} {cum}",
                        MetricKey {
                            name: format!("{}_bucket", k.name),
                            labels: k.labels.clone(),
                        }
                        .render_with("le", &le.to_string())
                    )
                    .expect("write to String");
                }
            }
            writeln!(
                out,
                "{} {}",
                MetricKey {
                    name: format!("{}_bucket", k.name),
                    labels: k.labels.clone(),
                }
                .render_with("le", "+Inf"),
                h.count
            )
            .expect("write to String");
            writeln!(out, "{}_sum{} {}", k.name, render_label_suffix(k), h.sum)
                .expect("write to String");
            writeln!(
                out,
                "{}_count{} {}",
                k.name,
                render_label_suffix(k),
                h.count
            )
            .expect("write to String");
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// One-line `# HELP` text for the registry's known metric names; metrics
/// minted outside this table get a generic line (the exposition format
/// requires *a* HELP line, not a curated one).
pub fn help_for(name: &str) -> &'static str {
    match name {
        "hymv_emv_flops_total" => "Floating-point operations executed by EMV applies",
        "hymv_block_refresh_total" => "Element blocks recomputed by adaptive refresh",
        "hymv_block_demotions_total" => {
            "Block plans demoted from symmetric-packed to full slabs by an asymmetric update"
        }
        "hymv_solver_iterations_total" => "Krylov solver iterations completed",
        "hymv_serve_requests_total" => "Solve requests submitted to the service",
        "hymv_serve_batches_total" => "Batches dispatched by the solve service",
        "hymv_serve_batch_iters_total" => "Block-CG iterations summed over dispatched batches",
        "hymv_serve_failed_batches_total" => "Batches whose block solve returned a typed fault",
        "hymv_sends_confirmed_total" => "Reliable-envelope sends acknowledged",
        "hymv_retries_total" => "Reliable-envelope retransmissions",
        "hymv_timeouts_total" => "Reliable-envelope ack timeouts",
        "hymv_dups_suppressed_total" => "Duplicate deliveries suppressed by the envelope",
        "hymv_corrupt_detected_total" => "Checksum-rejected deliveries",
        "hymv_bytes_sent_total" => "Payload bytes sent, by message tag",
        "hymv_msgs_sent_total" => "Messages sent, by message tag",
        "hymv_bytes_recv_total" => "Payload bytes received, by message tag",
        "hymv_msgs_recv_total" => "Messages received, by message tag",
        "hymv_ckpt_bytes_total" => "Bytes shipped in LFLR buddy checkpoints",
        "hymv_ckpt_taken_total" => "LFLR buddy checkpoints taken",
        "hymv_restores_total" => "LFLR checkpoint restores performed",
        "hymv_recoveries_total" => "LFLR world repairs completed",
        "hymv_vt_seconds" => "Rank virtual time at flush",
        "hymv_compute_seconds" => "Rank measured compute seconds at flush",
        "hymv_comm_wait_seconds" => "Rank modeled communication-wait seconds at flush",
        "hymv_rank_utilization" => "Compute fraction of rank virtual time (USE utilization)",
        "hymv_serve_queue_depth" => "Requests waiting in the service queue",
        "hymv_msg_bytes" => "Per-message payload sizes in bytes",
        "hymv_serve_batch_width" => "Requests per dispatched batch (nvec)",
        "hymv_request_wait_us" => "Per-request queue wait, virtual microseconds",
        "hymv_request_solve_us" => "Per-request batch solve time, virtual microseconds",
        "hymv_request_e2e_us" => "Per-request submit-to-outcome latency, virtual microseconds",
        _ => "hymv metric (no curated help text)",
    }
}

fn render_label_suffix(k: &MetricKey) -> String {
    if k.labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = k
        .labels
        .iter()
        .map(|(key, v)| format!("{key}=\"{v}\""))
        .collect();
    format!("{{{}}}", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_labels() {
        let a = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "m{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(7); // bucket 3
        h.record(8); // bucket 4
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 16);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[4], 1);
    }

    #[test]
    fn absorb_adds_rank_label_and_folds_counters() {
        let mut rank0 = Metrics::new();
        rank0.counter_add(MetricKey::new("c_total", &[]), 2);
        let mut rank1 = Metrics::new();
        rank1.counter_add(MetricKey::new("c_total", &[]), 3);
        let mut merged = Metrics::new();
        merged.absorb_with_rank(&rank0, 0);
        merged.absorb_with_rank(&rank1, 1);
        assert_eq!(merged.counter_total("c_total"), 5);
        let prom = merged.to_prometheus();
        assert!(prom.contains("c_total{rank=\"0\"} 2"), "{prom}");
        assert!(prom.contains("c_total{rank=\"1\"} 3"), "{prom}");
    }

    #[test]
    fn prometheus_histogram_shape() {
        let mut m = Metrics::new();
        let key = MetricKey::new("hymv_msg_bytes", &[]);
        m.histogram_record(key.clone(), 100); // 7 bits -> le=127
        m.histogram_record(key, 100);
        let prom = m.to_prometheus();
        assert!(prom.contains("# TYPE hymv_msg_bytes histogram"), "{prom}");
        assert!(
            prom.contains("hymv_msg_bytes_bucket{le=\"127\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("hymv_msg_bytes_bucket{le=\"+Inf\"} 2"),
            "{prom}"
        );
        assert!(prom.contains("hymv_msg_bytes_sum 200"), "{prom}");
        assert!(prom.contains("hymv_msg_bytes_count 2"), "{prom}");
    }
}
