//! hymv-prof: traced profiling runs over the HYMV pipeline.
//!
//! The library half builds an `N³`-element Poisson problem, partitions it
//! over `P` thread-ranks, and runs a CG solve through the GPU operator
//! under an open [`TraceSession`] — every rank records virtual-time
//! spans over the Algorithm 2 phases and the device stream events land
//! on the same timebase. The harvest is a [`Profile`]: the merged
//! [`TraceReport`] plus solve facts, from which the callers (the
//! `hymv-prof` binary, the bench runner, tests) pull the Chrome trace,
//! the Prometheus dump, the ASCII Gantt, and the derived
//! overlap/imbalance analysis.

#![forbid(unsafe_code)]

pub mod diff;

use hymv_comm::{CrashSpec, FaultPlan, RunConfig, Universe};
use hymv_fem::PoissonKernel;
use hymv_gpu::{GpuModel, GpuScheme, HymvGpuOperator};
use hymv_la::{cg, Identity, LinOp};
use hymv_mesh::partition::partition_mesh;
use hymv_mesh::{ElementType, PartitionMethod, StructuredHexMesh};
use hymv_trace::{TraceAnalysis, TraceReport, TraceSession};

/// What to profile.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Elements per mesh edge (an `n³` structured hex mesh).
    pub n: usize,
    /// Thread-ranks.
    pub p: usize,
    /// Schedule-perturbation seed (fixes delivery order; the trace
    /// *structure* is identical across seeds).
    pub seed: u64,
    /// Device overlap scheme.
    pub scheme: GpuScheme,
    /// Device streams.
    pub streams: usize,
    /// CG relative tolerance.
    pub rtol: f64,
    /// CG iteration cap.
    pub max_iter: usize,
    /// Kill one rank's data plane mid-solve (`FaultPlan::with_crash`, seed
    /// 1): the run aborts and the flight recorder dumps its postmortem.
    pub crash: Option<CrashSpec>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            n: 12,
            p: 4,
            seed: 1,
            scheme: GpuScheme::OverlapGpu,
            streams: 4,
            rtol: 1e-8,
            max_iter: 200,
            crash: None,
        }
    }
}

/// The harvest of one traced solve.
#[derive(Debug)]
pub struct Profile {
    /// Merged multi-rank trace (CPU spans + GPU stream events).
    pub report: TraceReport,
    /// CG iterations performed.
    pub iterations: usize,
    /// Whether CG met `rtol`.
    pub converged: bool,
}

/// Run one traced Poisson CG solve: `n³` hex8 elements over `p` ranks,
/// GPU operator with the requested overlap scheme, unit right-hand side.
///
/// # Panics
/// Panics when the mesh cannot support `p` parts or the universe aborts.
pub fn profile_poisson_solve(opts: &ProfileOptions) -> Profile {
    let mesh = StructuredHexMesh::unit(opts.n, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, opts.p, PartitionMethod::Slabs);

    let cfg = RunConfig {
        perturb_seed: Some(opts.seed),
        fault: opts
            .crash
            .map(|c| FaultPlan::new(1).with_crash(c.rank, c.after_sends)),
        trace: true,
        ..RunConfig::default()
    };
    let session = TraceSession::begin();
    let (results, _audit) = Universe::run_configured(cfg, opts.p, |comm| {
        let part = &pm.parts[comm.rank()];
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let (mut op, _t) = HymvGpuOperator::setup(
            comm,
            part,
            &kernel,
            GpuModel::default(),
            opts.streams,
            opts.scheme,
            1,
        );
        let n_owned = op.n_owned();
        let b = vec![1.0; n_owned];
        let mut x = vec![0.0; n_owned];
        let res = cg(
            comm,
            &mut op,
            &mut Identity,
            &b,
            &mut x,
            opts.rtol,
            opts.max_iter,
        );
        (res.iterations, res.converged)
    });
    let report = session.finish();

    let (iterations, converged) = results[0];
    Profile {
        report,
        iterations,
        converged,
    }
}

/// One critical-path entry in the summary JSON.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CriticalEntry {
    /// Phase name.
    pub phase: String,
    /// Seconds spent by the critical rank in this phase.
    pub seconds: f64,
}

/// One per-phase aggregate row in the summary JSON.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: String,
    /// Total seconds across all ranks.
    pub total_s: f64,
    /// Maximum per-rank seconds.
    pub max_s: f64,
    /// Mean per-rank seconds.
    pub mean_s: f64,
    /// Load-imbalance factor `max / mean`.
    pub imbalance: f64,
}

/// The machine-readable summary the CLI writes (and CI asserts on).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ProfSummary {
    /// Mesh edge.
    pub n: usize,
    /// Ranks.
    pub p: usize,
    /// Perturbation seed.
    pub seed: u64,
    /// Overlap scheme, debug-rendered.
    pub scheme: String,
    /// CG iterations.
    pub iterations: usize,
    /// CG convergence.
    pub converged: bool,
    /// Spans recorded.
    pub n_spans: usize,
    /// Ranks observed in the trace.
    pub n_ranks: usize,
    /// Aggregate overlap efficiency (Σ indep / (Σ indep + Σ wait)).
    pub overlap_efficiency: f64,
    /// Per-rank overlap efficiency.
    pub per_rank_overlap: Vec<f64>,
    /// Largest per-phase `max/mean` imbalance factor.
    pub max_phase_imbalance: f64,
    /// Rank whose timeline ends last.
    pub critical_rank: usize,
    /// The critical rank's per-phase time, largest first.
    pub critical_path: Vec<CriticalEntry>,
    /// Per-phase aggregates.
    pub phases: Vec<PhaseRow>,
}

/// Assemble the summary from a profile and its analysis.
pub fn summarize(
    opts: &ProfileOptions,
    profile: &Profile,
    analysis: &TraceAnalysis,
) -> ProfSummary {
    ProfSummary {
        n: opts.n,
        p: opts.p,
        seed: opts.seed,
        scheme: format!("{:?}", opts.scheme),
        iterations: profile.iterations,
        converged: profile.converged,
        n_spans: profile.report.spans.len(),
        n_ranks: analysis.n_ranks,
        overlap_efficiency: analysis.overlap_efficiency,
        per_rank_overlap: analysis.per_rank_overlap.clone(),
        max_phase_imbalance: analysis.max_phase_imbalance,
        critical_rank: analysis.critical_rank,
        critical_path: analysis
            .critical_path
            .iter()
            .map(|(phase, seconds)| CriticalEntry {
                phase: phase.clone(),
                seconds: *seconds,
            })
            .collect(),
        phases: analysis
            .phases
            .iter()
            .map(|p| PhaseRow {
                phase: p.phase.clone(),
                total_s: p.total_s,
                max_s: p.max_s,
                mean_s: p.mean_s,
                imbalance: p.imbalance,
            })
            .collect(),
    }
}

/// Pretty-printed summary JSON.
pub fn summary_json(summary: &ProfSummary) -> String {
    serde_json::to_string_pretty(summary).expect("summary serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_solve_produces_merged_trace_and_finite_analysis() {
        let opts = ProfileOptions {
            n: 4,
            p: 2,
            ..ProfileOptions::default()
        };
        let profile = profile_poisson_solve(&opts);
        assert!(profile.converged, "CG must converge on the test mesh");
        assert!(!profile.report.spans.is_empty(), "spans recorded");
        // Both CPU tracks and GPU stream tracks are present.
        assert!(profile.report.spans.iter().any(|e| e.tid == 0));
        assert!(profile.report.spans.iter().any(|e| e.tid > 0));
        // Every rank contributed.
        for r in 0..opts.p {
            assert!(profile.report.spans.iter().any(|e| e.rank == r), "rank {r}");
        }

        let analysis = profile.report.analyze();
        assert_eq!(analysis.n_ranks, opts.p);
        assert!(analysis.overlap_efficiency.is_finite());
        assert!((0.0..=1.0).contains(&analysis.overlap_efficiency));
        assert!(analysis.max_phase_imbalance.is_finite());
        assert!(analysis.max_phase_imbalance >= 1.0);
        assert!(!analysis.phases.is_empty());

        let summary = summarize(&opts, &profile, &analysis);
        let json = summary_json(&summary);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["n_ranks"], 2);
        assert!(v["overlap_efficiency"]
            .as_f64()
            .expect("number")
            .is_finite());
        assert!(v.get("max_phase_imbalance").is_some());
        assert!(v.get("critical_path").is_some());
    }

    #[test]
    fn canonical_trace_is_bitwise_identical_across_8_seeds() {
        let base = ProfileOptions {
            n: 3,
            p: 2,
            max_iter: 20,
            ..ProfileOptions::default()
        };
        let reference = profile_poisson_solve(&base).report.canonical();
        assert!(reference.starts_with("canonical-trace v1\n"));
        for seed in [2u64, 3, 5, 7, 23, 101, 65537] {
            let opts = ProfileOptions {
                seed,
                ..base.clone()
            };
            let canonical = profile_poisson_solve(&opts).report.canonical();
            assert_eq!(reference, canonical, "seed {seed} diverged");
        }
    }

    #[test]
    fn merged_chrome_trace_matches_schema() {
        let opts = ProfileOptions {
            n: 3,
            p: 2,
            max_iter: 10,
            ..ProfileOptions::default()
        };
        let profile = profile_poisson_solve(&opts);
        let json = profile.report.to_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.as_array().expect("chrome trace is a JSON array");
        assert_eq!(events.len(), profile.report.spans.len());
        let mut saw_cpu = false;
        let mut saw_gpu = false;
        for e in events {
            // The complete-event schema chrome://tracing requires.
            assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
            assert!(e["name"].as_str().is_some_and(|s| !s.is_empty()), "{e:?}");
            assert!(e["cat"].as_str().is_some(), "{e:?}");
            let ts = e["ts"].as_f64().expect("ts is a number");
            let dur = e["dur"].as_f64().expect("dur is a number");
            assert!(ts.is_finite() && ts >= 0.0, "{e:?}");
            assert!(dur.is_finite() && dur >= 0.0, "{e:?}");
            let pid = e["pid"].as_f64().expect("pid is a number") as usize;
            let tid = e["tid"].as_f64().expect("tid is a number") as usize;
            assert!(pid < opts.p, "pid is the rank: {e:?}");
            saw_cpu |= tid == 0;
            saw_gpu |= tid > 0;
        }
        assert!(saw_cpu, "CPU track present");
        assert!(saw_gpu, "GPU stream tracks present");
    }
}
