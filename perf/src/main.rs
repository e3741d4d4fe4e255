//! `perf` — the layered benchmark of HYMV.
//!
//! One run measures one workload:
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` prints
//! a table of every metric and, as its last line, one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports the
//! end-to-end metrics of an untraced body; `--trace 1` runs the body
//! untraced and traced, writes the trace file, and reports the per-layer
//! ledger. `--all`, `--smoke` and `--repeat-check` run one child process
//! per workload. See README.md beside this package.

mod body;
mod json;
mod layers;
mod machine;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hymv_mesh::partition::partition_mesh;

use body::{Checks, Ctx};
use report::{Reported, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::NAMES;

/// Share of `--seconds` each of the two bodies of a traced run gets; the
/// layer loops take the rest.
const TRACED_BODY_SHARE: f64 = 0.2;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
    repeat_check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      perf --all [--seed N] [--seconds S] [--trace]\n\
         \x20      perf --smoke\n\
         \x20      perf --repeat-check [--seed N] [--seconds S]\n\
         workloads: {}",
        NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut o = Opts {
        workload: None,
        seed: 2022,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        all: false,
        repeat_check: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i)),
            "--seed" => o.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    usage();
                }
            }
            // `--trace 0|1` (one run) or bare `--trace` (with `--all`).
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    o.trace = false;
                }
                Some("1") => {
                    i += 1;
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--all" => o.all = true,
            "--repeat-check" => o.repeat_check = true,
            _ => usage(),
        }
        i += 1;
    }
    o
}

/// About 32 `HYMV_*` variables change the code path (batch width, fault
/// injection, audit, tracing…): a result measured under any of them is
/// not comparable, so the runner refuses to start.
fn refuse_hymv_env() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HYMV_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perf: refusing to run with {} set", set.join(", "));
        std::process::exit(2);
    }
}

/// Where the trace files go: beside the build, inside the checkout.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

/// The traced run: a short untraced body, the same body traced (trace
/// file, self times, the Algorithm-2 phase table of the existing
/// `TraceSession`), then the layer loops and the triad. Returns the
/// checks, the per-layer rows and the untraced body's samples.
fn traced_run(ctx: &Ctx, seconds: f64, partition_s: f64) -> (Checks, Vec<Reported>, body::Samples) {
    let budget = seconds * TRACED_BODY_SHARE;
    let mut untraced = body::run(ctx, budget, false).swap_remove(0);
    let session = hymv_trace::TraceSession::begin();
    let mut traced = body::run(ctx, budget, true);
    let analysis = session.finish().analyze();

    let dir = trace_dir();
    let path = dir.join(format!("{}.trace.json", ctx.spec.name));
    let per_rank: Vec<Vec<spans::Span>> = traced
        .iter_mut()
        .map(|r| std::mem::take(&mut r.spans))
        .collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(&per_rank)))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("# trace file: {}", path.display());

    println!("## self time by span name (rank 0, traced body)");
    for (span, s) in spans::self_time_by_name(&per_rank[0]) {
        println!("{span:<36} {s:>12.6} s");
    }
    println!("## Algorithm-2 phases (hymv-trace session, virtual seconds)");
    for ph in &analysis.phases {
        println!(
            "{:<20} total {:>10.6} max {:>10.6} mean {:>10.6} imbalance {:>6.3}",
            ph.phase, ph.total_s, ph.max_s, ph.mean_s, ph.imbalance
        );
    }

    let mut ledger = layers::run(ctx);
    report::derive_from_body(&untraced.samples, &mut ledger);
    let rep_wall = |s: &body::Samples| stats::median(s.get("rep_wall_s"));
    ledger.insert(
        "trace.attributed_frac",
        spans::attributed_frac(&per_rank[0]),
    );
    ledger.insert("trace.overlap_efficiency", analysis.overlap_efficiency);
    ledger.insert("trace.max_phase_imbalance", analysis.max_phase_imbalance);
    ledger.insert(
        "trace.overhead_frac",
        rep_wall(&traced[0].samples) / rep_wall(&untraced.samples) - 1.0,
    );
    ledger.insert("mesh.partition_s", partition_s);
    // Triad over the same footprint as one rank's slabs, alone and
    // on both cores at once; the kernel loop ran on `p` cores.
    let per_array = (ledger["core.block.slab_bytes"] as usize / ctx.spec.p / 3).max(1 << 20);
    let triad1 = machine::triad_gbps(1, per_array, 5);
    let triad2 = machine::triad_gbps(2, per_array, 5);
    ledger.insert("machine.triad_gbps", triad1);
    ledger.insert("machine.triad2_gbps", triad2);
    let triad_p = if ctx.spec.p == 1 { triad1 } else { triad2 };
    ledger.insert(
        "la.dense.emv_batch.bw_frac",
        ledger["la.dense.emv_batch.gbps"] / triad_p,
    );
    untraced.checks.absorb(traced[0].checks.clone());
    println!(
        "{}",
        report::table(
            "end-to-end (short untraced body)",
            &report::end_to_end(&untraced)
        )
    );
    (
        untraced.checks,
        report::per_layer(&ledger),
        untraced.samples,
    )
}

/// One workload, in this process. Returns whether every check passed.
fn run_single(name: &str, o: &Opts) -> bool {
    let Some(spec) = workloads::spec(name, o.smoke) else {
        usage()
    };
    let problem = workloads::problem(&spec, o.seed);
    let t0 = Instant::now();
    let pm = partition_mesh(&problem.mesh, spec.p, spec.method);
    let partition_s = t0.elapsed().as_secs_f64();
    let ctx = Ctx {
        spec: &spec,
        problem: &problem,
        pm: &pm,
        epoch: Instant::now(),
        min_reps: if o.smoke || o.trace { 2 } else { 3 },
    };
    let nd = problem.kernel.ndof_elem();
    println!(
        "# workload {} seed {} seconds {}",
        spec.name, o.seed, o.seconds
    );
    println!("# why: {}", spec.why);
    let tags: Vec<String> = machine::tags()
        .into_iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!(
        "# tags: {} ranks={} elems={} dofs={} ke_working_set_mib={:.1} (store + slabs)",
        tags.join(" "),
        spec.p,
        problem.mesh.n_elems(),
        problem.mesh.n_nodes() * problem.kernel.ndof_per_node(),
        2.0 * (problem.mesh.n_elems() * nd * nd * 8) as f64 / (1u64 << 20) as f64,
    );

    let (mut checks, mut rows, counted) = if o.trace {
        traced_run(&ctx, o.seconds, partition_s)
    } else {
        let out = body::run(&ctx, o.seconds, false).swap_remove(0);
        let rows = report::end_to_end(&out);
        (out.checks, rows, out.samples)
    };

    // A metric that is not a finite number is a failed measurement; the
    // result line must stay valid JSON, so it reads 0.
    for r in &mut rows {
        let ok = !r.samples.is_empty() && r.samples.iter().all(|v| v.is_finite());
        checks.check(ok, || format!("metric {} has no finite value", r.name));
        if !ok {
            r.samples = vec![0.0];
        }
    }
    let counts = |name: &str| {
        let v = counted.get(name);
        if v.is_empty() {
            "-".to_string()
        } else {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("{lo}..{hi}")
        }
    };
    println!(
        "# exact counts (min..max over solves): la.cg.iterations={} la.block_cg.iterations={}",
        counts("la.cg.iterations"),
        counts("la.block_cg.iterations")
    );
    let title = if o.trace { "per-layer" } else { "end-to-end" };
    println!("{}", report::table(title, &rows));
    for note in &checks.notes {
        println!("FAILED: {note}");
    }
    println!(
        "# fail_frac {} ({} of {} operations)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    println!("{}", report::result_line(&checks, &rows));
    checks.failed == 0
}

/// The parsed result line of a child run.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

/// Run one workload in a child process (its own address space, so
/// `peak_rss_mib` is the workload's alone), echo its report, parse its
/// result line.
fn run_child(name: &str, o: &Opts, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for l in &lines {
        println!("{l}");
    }
    let v = json::parse(last).map_err(|e| format!("result line of {name}: {e}"))?;
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or("result line is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line of {name} has keys {keys:?}"));
    }
    let correct = v
        .get("correct")
        .and_then(json::Value::as_bool)
        .ok_or("correct is not a bool")?;
    if correct != out.status.success() {
        return Err(format!(
            "{name}: exit status {} with correct={correct}",
            out.status
        ));
    }
    let attempted = v.get("attempted").and_then(json::Value::as_f64);
    if !attempted.is_some_and(|a| a >= 1.0 && a.fract() == 0.0) {
        return Err(format!("{name}: attempted is {attempted:?}"));
    }
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_obj)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(json::Value::as_f64);
            let unit = m.get("unit").and_then(json::Value::as_str);
            match (value, unit) {
                (Some(x), Some(u)) if x.is_finite() => Ok((k.clone(), x, u.to_string())),
                _ => Err(format!("{name}: metric {k} is malformed")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult { correct, metrics })
}

/// `--all`: every workload, untraced (and traced with `--trace`).
fn run_all(o: &Opts) -> bool {
    let mut ok = true;
    for name in NAMES {
        for trace in [false, true] {
            if trace && !o.trace {
                continue;
            }
            match run_child(name, o, trace) {
                Ok(r) => ok &= r.correct,
                Err(e) => {
                    println!("FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("# all workloads: {}", if ok { "correct" } else { "FAILED" });
    ok
}

/// `--repeat-check`: the untraced set twice, in opposite workload order;
/// every end-to-end median must agree within its own bound.
fn repeat_check(o: &Opts) -> bool {
    let mut sets: Vec<Vec<Option<ChildResult>>> = Vec::new();
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..NAMES.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut set: Vec<Option<ChildResult>> = NAMES.iter().map(|_| None).collect();
        for w in order {
            match run_child(NAMES[w], o, false) {
                Ok(r) => set[w] = Some(r),
                Err(e) => println!("FAILED: {e}"),
            }
        }
        sets.push(set);
    }
    let mut ok = true;
    println!("## repeat check: medians of two sets of runs, same commit");
    println!(
        "{:<26} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, name) in NAMES.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][w], &sets[1][w]) else {
            ok = false;
            continue;
        };
        ok &= a.correct && b.correct;
        for m in END_TO_END {
            let find = |r: &ChildResult| r.metrics.iter().find(|x| x.0 == m.name).map(|x| x.1);
            let (Some(x), Some(y)) = (find(a), find(b)) else {
                println!("FAILED: {name} did not report {}", m.name);
                ok = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let verdict = if diff <= m.bound {
                ""
            } else {
                "  <-- beyond bound"
            };
            ok &= diff <= m.bound;
            println!(
                "{name:<26} {:<20} {x:>14.6e} {y:>14.6e} {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("# repeat check: {}", if ok { "agree" } else { "FAILED" });
    ok
}

/// What `BENCHMARK.json` must say for the code's tables to match it.
fn check_benchmark_json(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let list = |key: &str| -> Result<&[json::Value], String> {
        v.get(key)
            .and_then(json::Value::as_arr)
            .ok_or(format!("{key} is not an array"))
    };
    let field = |o: &json::Value, k: &str| -> Result<String, String> {
        o.get(k)
            .and_then(json::Value::as_str)
            .map(str::to_string)
            .ok_or(format!("missing string {k}"))
    };
    let seconds = v.get("run_seconds").and_then(json::Value::as_f64);
    if seconds != Some(RUN_SECONDS) {
        return Err(format!(
            "run_seconds is {seconds:?}, the runner's default is {RUN_SECONDS}"
        ));
    }
    let workloads = list("workloads")?;
    if workloads.len() != NAMES.len() {
        return Err(format!(
            "{} workloads, expected {}",
            workloads.len(),
            NAMES.len()
        ));
    }
    for (w, name) in workloads.iter().zip(NAMES) {
        let spec = workloads::spec(name, false).expect("named workload");
        if field(w, "name")? != name || field(w, "why")? != spec.why {
            return Err(format!(
                "workload entry of {name} differs from the runner's"
            ));
        }
    }
    let e2e = list("end_to_end")?;
    if e2e.len() != END_TO_END.len() {
        return Err(format!(
            "{} end_to_end metrics, expected {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    for (j, m) in e2e.iter().zip(END_TO_END) {
        let bound = j.get("bound").and_then(json::Value::as_f64);
        if field(j, "name")? != m.name
            || field(j, "unit")? != m.unit
            || field(j, "better")? != m.better
            || bound != Some(m.bound)
        {
            return Err(format!(
                "end_to_end entry of {} differs from the runner's",
                m.name
            ));
        }
    }
    let layers = list("per_layer")?;
    if layers.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per_layer metrics, expected {}",
            layers.len(),
            PER_LAYER.len()
        ));
    }
    for (j, m) in layers.iter().zip(PER_LAYER) {
        if field(j, "name")? != m.name
            || field(j, "unit")? != m.unit
            || field(j, "better")? != m.better
        {
            return Err(format!(
                "per_layer entry of {} differs from the runner's",
                m.name
            ));
        }
    }
    Ok(())
}

/// `--smoke`: `BENCHMARK.json` against the code's tables, then every
/// workload at toy size, untraced and traced, each result line checked
/// for exactly the declared names and units.
fn smoke(o: &Opts) -> bool {
    let t0 = Instant::now();
    let mut ok = true;
    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the working directory: {e}"))
        .and_then(|t| check_benchmark_json(&t))
    {
        Ok(()) => println!("# BENCHMARK.json matches the runner's tables"),
        Err(e) => {
            println!("FAILED: BENCHMARK.json: {e}");
            ok = false;
        }
    }
    let toy = Opts {
        workload: None,
        seconds: 0.5,
        smoke: true,
        ..*o
    };
    for name in NAMES {
        for trace in [false, true] {
            let expected: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            match run_child(name, &toy, trace) {
                Ok(r) => {
                    let got: Vec<(&str, &str)> = r
                        .metrics
                        .iter()
                        .map(|m| (m.0.as_str(), m.2.as_str()))
                        .collect();
                    if got != expected {
                        println!("FAILED: {name} --trace {}: metric names or units differ from the tables", u8::from(trace));
                        ok = false;
                    }
                    if !trace && r.metrics.iter().any(|m| m.1 == 0.0) {
                        println!("FAILED: {name}: an end-to-end metric is zero");
                        ok = false;
                    }
                    ok &= r.correct;
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "# smoke: {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    ok
}

fn main() -> ExitCode {
    let o = parse_args();
    refuse_hymv_env();
    let modes = usize::from(o.workload.is_some())
        + usize::from(o.all)
        + usize::from(o.repeat_check)
        + usize::from(o.smoke && o.workload.is_none());
    if modes != 1 {
        usage();
    }
    let ok = if let Some(name) = &o.workload {
        run_single(name, &o)
    } else if o.all {
        run_all(&o)
    } else if o.repeat_check {
        repeat_check(&o)
    } else {
        smoke(&o)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
