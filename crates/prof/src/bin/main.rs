//! `hymv-prof` — trace a Poisson CG solve and report where the time went.
//!
//! ```text
//! hymv-prof [--n N] [--p P] [--seeds K|s1,s2,...]
//!           [--scheme blocking|overlap-cpu|overlap-gpu] [--streams S]
//!           [--out DIR] [--width W] [--crash RANK:AFTER]
//! hymv-prof diff A B [--threshold FRACTION] [--limit ROWS]
//! ```
//!
//! Runs a traced `N³`-element Poisson CG solve over `P` thread-ranks
//! through the GPU operator, prints the derived overlap/imbalance
//! analysis and an ASCII Gantt of the merged timeline, and writes three
//! artifacts into `--out` (default `HYMV_TRACE_OUT`, else the current
//! directory): `trace.json` (merged Chrome trace), `metrics.prom`
//! (Prometheus text), `summary.json` (the analysis). With more than one
//! seed the canonical (timestamp-free) traces are additionally certified
//! bitwise identical across seeds. Exits 0 on success, 1 on a
//! determinism violation or failed solve, 2 on bad usage.
//!
//! `--crash RANK:AFTER` kills rank `RANK`'s data plane after it has sent
//! `AFTER` enveloped messages: the solve aborts with a typed fault, and
//! the flight recorder dumps its postmortem (to `HYMV_FLIGHT_OUT`).
//!
//! `diff` compares two artifacts (`summary.json` or `metrics.prom`,
//! auto-detected) metric by metric, distilling each histogram series
//! into p50/p95/p99 shifts; with `--threshold` it exits 1 when any
//! shared metric's relative delta exceeds the fraction — the CI
//! regression gate over committed baselines.

use std::process::ExitCode;

use hymv_comm::CrashSpec;
use hymv_gpu::GpuScheme;
use hymv_prof::{profile_poisson_solve, summarize, summary_json, ProfileOptions};

struct Options {
    n: usize,
    p: usize,
    seeds: Vec<u64>,
    scheme: GpuScheme,
    streams: usize,
    out: Option<String>,
    width: usize,
    crash: Option<CrashSpec>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hymv-prof [--n N] [--p P] [--seeds K|s1,s2,...]\n\
         \x20                [--scheme blocking|overlap-cpu|overlap-gpu] [--streams S]\n\
         \x20                [--out DIR] [--width W] [--crash RANK:AFTER]\n\
         \x20      hymv-prof diff A B [--threshold FRACTION] [--limit ROWS]"
    );
    ExitCode::from(2)
}

/// `hymv-prof diff A B [--threshold FRACTION] [--limit ROWS]`: compare
/// two profiling artifacts; exit 1 when a shared metric moved by more
/// than the threshold fraction.
fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = f64::INFINITY;
    let mut limit = 20usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .and_then(|v| v.parse::<f64>().map_err(|e| format!("{flag}: {e}")))
        };
        match arg.as_str() {
            "--threshold" => match val("--threshold") {
                Ok(t) if t >= 0.0 => threshold = t,
                Ok(_) => {
                    eprintln!("hymv-prof: --threshold must be non-negative");
                    return usage();
                }
                Err(e) => {
                    eprintln!("hymv-prof: {e}");
                    return usage();
                }
            },
            "--limit" => match val("--limit") {
                Ok(l) if l >= 1.0 => limit = l as usize,
                _ => {
                    eprintln!("hymv-prof: --limit must be a positive integer");
                    return usage();
                }
            },
            _ => paths.push(arg.clone()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("hymv-prof: diff needs exactly two artifact paths");
        return usage();
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let (a, b) = match (read(a_path), read(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hymv-prof: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match hymv_prof::diff::diff_artifacts(&a, &b) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hymv-prof: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("diff {a_path} -> {b_path}");
    print!("{}", report.render(limit));
    if threshold.is_finite() && report.exceeds(threshold) {
        eprintln!(
            "hymv-prof: worst relative delta {:.4}% exceeds threshold {:.4}%",
            report.worst * 100.0,
            threshold * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Ok(k) = spec.parse::<usize>() {
        if !spec.contains(',') {
            if k == 0 {
                return Err("--seeds needs at least one seed".into());
            }
            return Ok((1..=k as u64).collect());
        }
    }
    spec.split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|e| format!("--seeds: {e}")))
        .collect()
}

fn parse_crash(spec: &str) -> Result<CrashSpec, String> {
    let (rank, after) = spec
        .split_once(':')
        .ok_or_else(|| format!("--crash: expected RANK:AFTER, got {spec:?}"))?;
    Ok(CrashSpec {
        rank: rank.parse().map_err(|e| format!("--crash rank: {e}"))?,
        after_sends: after.parse().map_err(|e| format!("--crash sends: {e}"))?,
    })
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        n: 12,
        p: 4,
        seeds: vec![1],
        scheme: GpuScheme::OverlapGpu,
        streams: 4,
        out: hymv_trace::env_out(),
        width: 72,
        crash: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => opts.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--p" => opts.p = val()?.parse().map_err(|e| format!("--p: {e}"))?,
            "--seeds" => opts.seeds = parse_seeds(&val()?)?,
            "--streams" => opts.streams = val()?.parse().map_err(|e| format!("--streams: {e}"))?,
            "--width" => opts.width = val()?.parse().map_err(|e| format!("--width: {e}"))?,
            "--out" => opts.out = Some(val()?),
            "--crash" => opts.crash = Some(parse_crash(&val()?)?),
            "--scheme" => {
                opts.scheme = match val()?.as_str() {
                    "blocking" => GpuScheme::Blocking,
                    "overlap-cpu" => GpuScheme::OverlapCpu,
                    "overlap-gpu" => GpuScheme::OverlapGpu,
                    other => return Err(format!("unknown scheme {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.n == 0 || opts.p == 0 || opts.streams == 0 || opts.width == 0 {
        return Err("--n, --p, --streams, --width must be positive".into());
    }
    if opts.seeds.is_empty() {
        return Err("--seeds needs at least one seed".into());
    }
    if opts.crash.is_some_and(|c| c.rank >= opts.p) {
        return Err("--crash: RANK must be below --p".into());
    }
    Ok(opts)
}

fn write_artifact(dir: &str, name: &str, content: &str) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{}/{name}", dir.trim_end_matches('/'));
    std::fs::write(&path, content).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("diff") {
        return run_diff(&argv[1..]);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hymv-prof: {e}");
            return usage();
        }
    };

    println!(
        "hymv-prof: {}^3 hex8 Poisson, {} ranks, {:?}, {} stream(s), {} seed(s)",
        opts.n,
        opts.p,
        opts.scheme,
        opts.streams,
        opts.seeds.len()
    );

    let base = ProfileOptions {
        n: opts.n,
        p: opts.p,
        seed: opts.seeds[0],
        scheme: opts.scheme,
        streams: opts.streams,
        crash: opts.crash,
        ..ProfileOptions::default()
    };
    let profile = profile_poisson_solve(&base);
    if !profile.converged {
        eprintln!(
            "hymv-prof: CG did not converge in {} iterations",
            profile.iterations
        );
        return ExitCode::FAILURE;
    }
    println!(
        "solve: converged in {} iterations, {} spans recorded",
        profile.iterations,
        profile.report.spans.len()
    );

    // Multi-seed: certify the canonical trace is schedule-independent.
    if opts.seeds.len() > 1 {
        let reference = profile.report.canonical();
        for &seed in &opts.seeds[1..] {
            let rerun = profile_poisson_solve(&ProfileOptions {
                seed,
                ..base.clone()
            });
            if rerun.report.canonical() != reference {
                eprintln!("hymv-prof: canonical trace diverged at seed {seed}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "determinism: canonical trace bitwise identical across {} seeds",
            opts.seeds.len()
        );
    }

    let analysis = profile.report.analyze();
    if !analysis.overlap_efficiency.is_finite() || !analysis.max_phase_imbalance.is_finite() {
        eprintln!(
            "hymv-prof: non-finite analysis (overlap {}, imbalance {})",
            analysis.overlap_efficiency, analysis.max_phase_imbalance
        );
        return ExitCode::FAILURE;
    }
    let summary = summarize(&base, &profile, &analysis);

    println!("\n{}", profile.report.render_gantt(opts.width));
    println!("overlap efficiency: {:.4}", analysis.overlap_efficiency);
    println!("max phase imbalance: {:.4}", analysis.max_phase_imbalance);
    println!("critical rank: {}", analysis.critical_rank);
    for entry in analysis.critical_path.iter().take(5) {
        println!("  {:<14} {:.6} s", entry.0, entry.1);
    }

    let dir = opts.out.unwrap_or_else(|| ".".into());
    let artifacts = [
        ("trace.json", profile.report.to_chrome_json()),
        ("metrics.prom", profile.report.to_prometheus()),
        ("summary.json", summary_json(&summary)),
    ];
    for (name, content) in &artifacts {
        match write_artifact(&dir, name, content) {
            Ok(path) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("hymv-prof: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
