//! `hymv-verify` — static analysis over HYMV exchange plans, block-plan
//! tables, and workspace source.
//!
//! ```text
//! hymv-verify [--n N] [--p P1,P2,...] [--elem hex8|hex20|hex27|tet4|tet10]
//!             [--method slabs|rcb|greedy] [--batch B] [--ndof D]
//!             [--explicit-max P] [--root PATH] [--skip-lint]
//! ```
//!
//! Builds an `N³`-element mesh, and for each rank count `P` runs the
//! static passes over that configuration's exchange plans:
//!
//! * **p ≤ --explicit-max** (default 16): each rank builds its real
//!   `GhostExchange` (the only step that touches the comm substrate), and
//!   the plan is checked **twice** — by the explicit-state model checker
//!   (BFS + partial-order reduction) and by the parameterized engine
//!   (neighborhood decomposition + symmetry classes + wait-for-graph
//!   acyclicity, DESIGN.md §14). The two verdicts must agree bit-for-bit,
//!   and the statically *derived* plans must equal the built ones — the
//!   small-p regime is the oracle that validates the large-p engine.
//! * **p > --explicit-max**: no comm substrate runs at all. Plans are
//!   derived statically from the partition (the same owner/run
//!   construction `GhostExchange::build` performs) and the parameterized
//!   engine proves deadlock-freedom, matching, reserved tags, overlap
//!   order, and ghost-split soundness in O(neighborhood classes), which
//!   is what makes `--p 1024` a seconds-scale proof.
//!
//! An `inconclusive` explicit-search outcome (state cap) is a **hard
//! failure**: a proof obligation never silently degrades into a sample.
//! The block-plan index-bounds check runs per rank at every `P`, and the
//! workspace lint runs once (skip with `--skip-lint`).
//!
//! The `effects` subcommand runs the interprocedural pipeline instead:
//!
//! ```text
//! hymv-verify effects [--root PATH]
//! ```
//!
//! 1. the line-local lint as a fast pre-pass, then
//! 2. the workspace call graph + fixed-point effect inference + phase
//!    rules (blocking receives/allocations/ghost reads reachable inside
//!    the scatter overlap window, ledger/wall-clock/RNG reachable from
//!    kernel entries, tag-literal flow through tag-generic parameters),
//! 3. the collective-order pass: no rank-divergent collective call chains
//!    anywhere in the workspace, with the inferred collective sequence of
//!    every `// verify: collective-entry` phase printed for review.
//!
//! `hymv-verify collectives [--root PATH]` runs pass 3 alone.
//!
//! Exits 0 if every pass is clean, 1 on violations, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use hymv_comm::Universe;
use hymv_core::{GhostExchange, HymvMaps};
use hymv_mesh::partition::partition_mesh;
use hymv_mesh::{unstructured_tet_mesh, ElementType, PartitionMethod, StructuredHexMesh};
use hymv_verify::{
    analyze_collectives, analyze_workspace_effects, check_plan_bounds, derive_plan_summaries,
    lint_workspace, verify_exchange, verify_exchange_parameterized, CallGraph, CollectivesReport,
    PlanSummary, Verdict,
};

struct Options {
    n: usize,
    ps: Vec<usize>,
    elem: ElementType,
    method: PartitionMethod,
    batch: usize,
    ndof: usize,
    explicit_max: usize,
    root: PathBuf,
    skip_lint: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hymv-verify [--n N] [--p P1,P2,...] [--elem hex8|hex20|hex27|tet4|tet10]\n\
         \x20                  [--method slabs|rcb|greedy] [--batch B] [--ndof D]\n\
         \x20                  [--explicit-max P] [--root PATH] [--skip-lint]\n\
         \x20      hymv-verify effects [--root PATH]\n\
         \x20      hymv-verify collectives [--root PATH]"
    );
    ExitCode::from(2)
}

/// Print one collective-order result; returns true if it failed.
fn report_collectives(r: &CollectivesReport) -> bool {
    if r.report.is_clean() {
        println!(
            "ok ({} fn(s) scanned, {} reach a collective, {} rank-dependent region(s))",
            r.fns_scanned, r.reaching_fns, r.rank_regions
        );
    } else {
        println!("FAILED ({} finding(s))", r.diags.len());
        for d in &r.diags {
            println!("  {}", d.message);
        }
    }
    for e in &r.entries {
        println!("  {} ({}:{}): {}", e.qual, e.file, e.line, e.sequence);
    }
    !r.report.is_clean()
}

/// The `collectives` subcommand: call graph + collective-order pass only.
fn run_collectives(root: &std::path::Path) -> ExitCode {
    print!("[1/1] collective-order pass .................. ");
    match CallGraph::load_workspace(root) {
        Ok(graph) => {
            let r = analyze_collectives(&graph);
            let failed = report_collectives(&r);
            for note in &graph.notes {
                println!("  note: {note}");
            }
            if failed {
                eprintln!("hymv-verify collectives: violations found");
                ExitCode::FAILURE
            } else {
                println!("hymv-verify collectives: clean");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            println!("FAILED\n  {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `effects` subcommand: lint pre-pass, interprocedural effect
/// inference + phase rules, and the collective-order pass.
fn run_effects(root: &std::path::Path) -> ExitCode {
    let mut failed = false;

    print!("[1/3] lint pre-pass .......................... ");
    match lint_workspace(root) {
        Ok(diags) if diags.is_empty() => println!("ok"),
        Ok(diags) => {
            failed = true;
            println!("FAILED ({} finding(s))", diags.len());
            for d in diags {
                println!("  {d}");
            }
        }
        Err(e) => {
            failed = true;
            println!("FAILED\n  {e}");
        }
    }

    print!("[2/3] interprocedural phase effects .......... ");
    let mut loaded_graph = None;
    match analyze_workspace_effects(root) {
        Ok((report, graph)) => {
            if report.diags.is_empty() {
                println!(
                    "ok ({} fn(s), {} call(s), {} file(s); {} unknown, {} indirect)",
                    report.stats.fns,
                    report.stats.calls,
                    report.stats.files,
                    report.stats.unknown,
                    report.stats.dynamic
                );
            } else {
                failed = true;
                println!("FAILED ({} finding(s))", report.diags.len());
                for d in &report.diags {
                    println!("  {d}");
                }
            }
            for note in &graph.notes {
                println!("  note: {note}");
            }
            loaded_graph = Some(graph);
        }
        Err(e) => {
            failed = true;
            println!("FAILED\n  {e}");
        }
    }

    print!("[3/3] collective-order pass .................. ");
    match loaded_graph {
        Some(graph) => {
            if report_collectives(&analyze_collectives(&graph)) {
                failed = true;
            }
        }
        None => {
            failed = true;
            println!("skipped (call graph unavailable)");
        }
    }

    if failed {
        eprintln!("hymv-verify effects: violations found");
        ExitCode::FAILURE
    } else {
        println!("hymv-verify effects: all passes clean");
        ExitCode::SUCCESS
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        n: 4,
        ps: vec![1, 2, 4, 8],
        elem: ElementType::Hex8,
        method: PartitionMethod::Slabs,
        batch: hymv_core::DEFAULT_BATCH_WIDTH,
        ndof: 1,
        explicit_max: 16,
        root: PathBuf::from("."),
        skip_lint: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => opts.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--p" => {
                opts.ps = val()?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| format!("--p: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--elem" => {
                opts.elem = match val()?.as_str() {
                    "hex8" => ElementType::Hex8,
                    "hex20" => ElementType::Hex20,
                    "hex27" => ElementType::Hex27,
                    "tet4" => ElementType::Tet4,
                    "tet10" => ElementType::Tet10,
                    other => return Err(format!("unknown element type {other}")),
                }
            }
            "--method" => {
                opts.method = match val()?.as_str() {
                    "slabs" => PartitionMethod::Slabs,
                    "rcb" => PartitionMethod::Rcb,
                    "greedy" => PartitionMethod::GreedyGraph,
                    other => return Err(format!("unknown partition method {other}")),
                }
            }
            "--batch" => {
                // Shared strict validation (same path as HYMV's batch-width parsing).
                opts.batch =
                    hymv_core::parse_batch_width(&val()?).map_err(|e| format!("--batch: {e}"))?
            }
            "--ndof" => opts.ndof = val()?.parse().map_err(|e| format!("--ndof: {e}"))?,
            "--explicit-max" => {
                opts.explicit_max = val()?.parse().map_err(|e| format!("--explicit-max: {e}"))?
            }
            "--root" => opts.root = PathBuf::from(val()?),
            "--skip-lint" => opts.skip_lint = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.n == 0 || opts.ndof == 0 {
        return Err("--n and --ndof must be positive".into());
    }
    if opts.ps.is_empty() || opts.ps.contains(&0) {
        return Err("--p needs a comma list of positive rank counts".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    if let Some(sub @ ("effects" | "collectives")) = std::env::args().nth(1).as_deref() {
        {
            let mut root = PathBuf::from(".");
            let mut args = std::env::args().skip(2);
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--root" => match args.next() {
                        Some(v) => root = PathBuf::from(v),
                        None => {
                            eprintln!("hymv-verify: --root needs a value");
                            return usage();
                        }
                    },
                    other => {
                        eprintln!("hymv-verify: unknown flag {other}");
                        return usage();
                    }
                }
            }
            return if sub == "effects" {
                run_effects(&root)
            } else {
                run_collectives(&root)
            };
        }
    }

    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hymv-verify: {e}");
            return usage();
        }
    };

    println!(
        "hymv-verify: {}^3 {:?} mesh ({:?}), np in {:?}, batch={}, ndof={}, explicit-max={}",
        opts.n, opts.elem, opts.method, opts.ps, opts.batch, opts.ndof, opts.explicit_max
    );
    let mesh = match opts.elem {
        ElementType::Tet4 | ElementType::Tet10 => unstructured_tet_mesh(opts.n, opts.elem, 0.0, 1),
        _ => StructuredHexMesh::unit(opts.n, opts.elem).build(),
    };
    let n_elems = mesh.n_elems();
    let mut failed = false;

    for &p in &opts.ps {
        if p > n_elems {
            eprintln!("hymv-verify: --p {p} exceeds the {n_elems}-element mesh; raise --n");
            return usage();
        }
        let pm = partition_mesh(&mesh, p, opts.method);

        if p <= opts.explicit_max {
            // Small-p oracle regime: build the real exchanges, check with
            // both engines, and demand bitwise verdict agreement plus
            // derived == built plan equality.
            let per_rank: Vec<(HymvMaps, PlanSummary)> = Universe::run(p, |comm| {
                let maps = HymvMaps::build(&pm.parts[comm.rank()]);
                let ex = GhostExchange::build(comm, &maps);
                let summary = PlanSummary::from_exchange(&ex);
                (maps, summary)
            });
            let (maps, plans): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();

            print!("np={p}: explicit exchange-plan model check ... ");
            let result = verify_exchange(&plans, &maps);
            if result.verdict == Verdict::Inconclusive {
                failed = true;
                println!(
                    "INCONCLUSIVE — state cap hit; a proof obligation never degrades into a \
                     sample, so this is a hard failure\n{}",
                    result.report
                );
            } else if result.report.is_clean() {
                println!(
                    "ok (deadlock-free, {} state(s) explored)",
                    result.states_explored
                );
            } else {
                failed = true;
                println!("FAILED\n{}", result.report);
            }

            print!("np={p}: parameterized engine cross-check ..... ");
            let param = verify_exchange_parameterized(&plans, &maps);
            let derived = derive_plan_summaries(&maps);
            if param.verdict != result.verdict {
                failed = true;
                println!(
                    "FAILED — verdict disagreement: explicit={}, parameterized={}\n{}",
                    result.verdict, param.verdict, param.report
                );
            } else if derived != plans {
                failed = true;
                println!(
                    "FAILED — statically derived plans differ from the built GhostExchange plans"
                );
                for (r, (d, b)) in derived.iter().zip(&plans).enumerate() {
                    if d != b {
                        println!("  rank {r}: derived {d:?}\n          built   {b:?}");
                    }
                }
            } else if param.report.is_clean() == result.report.is_clean() {
                println!(
                    "ok (verdicts agree: {}; derived plans == built plans; {} class(es))",
                    param.verdict,
                    param.classes.len()
                );
            } else {
                failed = true;
                println!(
                    "FAILED — report cleanliness disagreement\nexplicit:\n{}\nparameterized:\n{}",
                    result.report, param.report
                );
            }
            run_plan_bounds(&maps, &opts, &mut failed, p);
        } else {
            // Large-p regime: fully static. No Universe, no comm — plans
            // are derived from the partition and proved parameterized.
            let maps: Vec<HymvMaps> = pm.parts.iter().map(HymvMaps::build).collect();
            let plans = derive_plan_summaries(&maps);

            print!("np={p}: parameterized exchange proof ......... ");
            let param = verify_exchange_parameterized(&plans, &maps);
            match param.verdict {
                Verdict::Proved if param.report.is_clean() => {
                    println!(
                        "ok (proved for all {p} rank(s): {} neighborhood class(es), {} wait-for \
                         edge(s) acyclic)",
                        param.classes.len(),
                        param.wfg_edges
                    );
                }
                _ => {
                    failed = true;
                    println!("FAILED ({})\n{}", param.verdict, param.report);
                }
            }
            run_plan_bounds(&maps, &opts, &mut failed, p);
        }
    }

    print!("workspace lint ............................... ");
    if opts.skip_lint {
        println!("skipped (--skip-lint)");
    } else {
        match lint_workspace(&opts.root) {
            Ok(diags) if diags.is_empty() => println!("ok"),
            Ok(diags) => {
                failed = true;
                println!("FAILED ({} finding(s))", diags.len());
                for d in diags {
                    println!("  {d}");
                }
            }
            Err(e) => {
                failed = true;
                println!("FAILED\n  {e}");
            }
        }
    }

    if failed {
        eprintln!("hymv-verify: violations found");
        ExitCode::FAILURE
    } else {
        println!("hymv-verify: all passes clean");
        ExitCode::SUCCESS
    }
}

/// Per-rank block-plan index-bounds checks (runs at every `p`).
fn run_plan_bounds(maps: &[HymvMaps], opts: &Options, failed: &mut bool, p: usize) {
    print!("np={p}: block-plan index bounds .............. ");
    let mut dirty = Vec::new();
    for (rank, m) in maps.iter().enumerate() {
        let plan = hymv_core::BlockPlan::build(m, opts.ndof, opts.batch);
        let report = check_plan_bounds(m, &plan, opts.ndof);
        if !report.is_clean() {
            dirty.push((rank, report));
        }
    }
    if dirty.is_empty() {
        println!("ok ({} rank plan(s) in bounds)", maps.len());
    } else {
        *failed = true;
        println!("FAILED");
        for (rank, report) in dirty {
            println!("rank {rank}: {report}");
        }
    }
}
