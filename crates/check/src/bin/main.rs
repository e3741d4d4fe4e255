//! `hymv-check` — run the full analysis suite against a meshed problem.
//!
//! ```text
//! hymv-check [--n N] [--p P] [--elem hex8|hex20|hex27|tet4|tet10]
//!            [--method slabs|rcb|greedy] [--seeds K|s1,s2,...]
//!            [--batch B] [--nvec V]
//! ```
//!
//! Builds an `N³`-element structured mesh, partitions it over `P` ranks,
//! and runs the three passes: map/DA invariants, LNSM/GNGM exchange
//! duality, and the schedule-perturbation determinism certificate for the
//! HYMV SPMV (with the protocol auditor forced on throughout). Exits 0 if
//! every invariant holds, 1 otherwise, 2 on bad usage.

use std::process::ExitCode;

use hymv_check::{check_exchange, check_partition, parse_seeds, seeds_from_env};
use hymv_mesh::partition::partition_mesh;
use hymv_mesh::{unstructured_tet_mesh, ElementType, PartitionMethod, StructuredHexMesh};

struct Options {
    n: usize,
    p: usize,
    elem: ElementType,
    method: PartitionMethod,
    seeds: Vec<u64>,
    /// EMV batch width to pin (`None` keeps the operator's default).
    batch: Option<usize>,
    /// Multivector width: `> 1` certifies the SpMM engine (coalesced
    /// multivector exchange) instead of the single-vector SPMV.
    nvec: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hymv-check [--n N] [--p P] [--elem hex8|hex20|hex27|tet4|tet10]\n\
         \x20                 [--method slabs|rcb|greedy] [--seeds K|s1,s2,...]\n\
         \x20                 [--batch B] [--nvec V]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        n: 4,
        p: 4,
        elem: ElementType::Hex8,
        method: PartitionMethod::Slabs,
        seeds: seeds_from_env(8),
        batch: None,
        nvec: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => opts.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--p" => opts.p = val()?.parse().map_err(|e| format!("--p: {e}"))?,
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
            "--seeds" => opts.seeds = parse_seeds(Some(&val()?), 8),
            "--batch" => {
                // Shared strict validation: 0, >MAX, and non-numeric
                // values are hard errors.
                opts.batch = Some(
                    hymv_core::parse_batch_width(&val()?).map_err(|e| format!("--batch: {e}"))?,
                )
            }
            "--nvec" => {
                // Shared strict validation (same path as HYMV_EMV_NVEC):
                // 0, >MAX, and non-numeric values are hard errors.
                opts.nvec =
                    Some(hymv_core::parse_nvec_width(&val()?).map_err(|e| format!("--nvec: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.n == 0 || opts.p == 0 {
        return Err("--n and --p must be positive".into());
    }
    if opts.seeds.is_empty() {
        return Err("--seeds needs at least one seed".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hymv-check: {e}");
            return usage();
        }
    };

    let n_seeds = opts.seeds.len();
    let batch_desc = opts.batch.map_or_else(|| "env".into(), |b| b.to_string());
    let nvec_desc = opts.nvec.map_or_else(|| "1".into(), |v| v.to_string());
    println!(
        "hymv-check: {}^3 {:?} mesh, {} ranks ({:?}), {} perturbation seed(s), batch={batch_desc}, nvec={nvec_desc}",
        opts.n, opts.elem, opts.p, opts.method, n_seeds
    );
    let mesh = match opts.elem {
        ElementType::Tet4 | ElementType::Tet10 => unstructured_tet_mesh(opts.n, opts.elem, 0.0, 1),
        _ => StructuredHexMesh::unit(opts.n, opts.elem).build(),
    };
    let pm = partition_mesh(&mesh, opts.p, opts.method);
    let mut failed = false;

    print!("[1/3] map/DA invariant pass ............ ");
    let report = check_partition(&pm);
    if report.is_clean() {
        println!("ok");
    } else {
        failed = true;
        println!("FAILED\n{report}");
    }

    print!("[2/3] LNSM/GNGM transpose duality ...... ");
    let report = check_exchange(&pm);
    if report.is_clean() {
        println!("ok");
    } else {
        failed = true;
        println!("FAILED\n{report}");
    }

    match opts.nvec {
        Some(v) if v > 1 => print!("[3/3] SpMM schedule-determinism ........ "),
        _ => print!("[3/3] SPMV schedule-determinism ........ "),
    }
    // run_perturbed panics with a diagnostic on the first divergent seed;
    // catch it so the CLI reports a failure instead of a backtrace.
    let pm_ref = &pm;
    let seeds = opts.seeds;
    let batch = opts.batch;
    let nvec = opts.nvec;
    let outcome = std::panic::catch_unwind(move || match nvec {
        Some(v) if v > 1 => hymv_check::certify_spmm_determinism(pm_ref, batch, v, &seeds),
        _ => hymv_check::certify_spmv_determinism_with(pm_ref, batch, &seeds),
    });
    match outcome {
        Ok(_) => println!("ok ({n_seeds} seeds, bitwise identical)"),
        Err(e) => {
            failed = true;
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            println!("FAILED\n{msg}");
        }
    }

    if failed {
        eprintln!("hymv-check: violations found");
        ExitCode::FAILURE
    } else {
        println!("hymv-check: all passes clean");
        ExitCode::SUCCESS
    }
}
