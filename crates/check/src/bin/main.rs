//! `hymv-check` — run the certificate table.
//!
//! ```text
//! hymv-check [--only PAT[,PAT...]] [--seeds K|s1,s2,...] [--list]
//! ```
//!
//! Runs every row of [`hymv_check::table`] (or those whose name or
//! `/`-prefix is a `PAT`): the map/DA and LNSM/GNGM invariant passes once
//! per problem, then each row's perturbed cases against its unperturbed
//! baseline, one line per case. `--seeds` replaces every selected row's
//! own seeds; `--list` prints the selected rows without running them.
//! Stdout holds the case lines only (`ci.sh` diffs them against a golden
//! file); the closing count goes to stderr. Exits 0 if every pass and case
//! held, 1 otherwise, 2 on bad usage.

use std::process::ExitCode;

use hymv_check::{failures, run_rows, select};

/// Counts each rank thread's allocations, so an allocation inside the
/// scatter window of an audited case fails it (window-allocation).
#[global_allocator]
static ALLOC: hymv_comm::CountingAlloc = hymv_comm::CountingAlloc;

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "hymv-check: {err}\n\
         usage: hymv-check [--only PAT[,PAT...]] [--seeds K|s1,s2,...] [--list]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut only = Vec::new();
    let mut seeds = None;
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = match flag.as_str() {
            "--list" => {
                list = true;
                continue;
            }
            "--only" | "--seeds" => match args.next() {
                Some(v) => v,
                None => return usage(&format!("{flag} needs a value")),
            },
            other => return usage(&format!("unknown flag {other}")),
        };
        if flag == "--only" {
            only.extend(val.split(',').map(|s| s.trim().to_string()));
        } else {
            match parse_seeds(&val) {
                Ok(s) => seeds = Some(s),
                Err(e) => return usage(&e),
            }
        }
    }
    let pats: Vec<&str> = only.iter().map(String::as_str).collect();
    let rows = select(&pats);
    if rows.is_empty() {
        return usage(&format!("no row matches --only {}", only.join(",")));
    }
    if list {
        for r in &rows {
            println!("{r:?}");
        }
        return ExitCode::SUCCESS;
    }
    let cases = run_rows(&rows, seeds.as_deref());
    if let Some(failed) = failures(&cases) {
        eprintln!("hymv-check: violations found\n{failed}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "hymv-check: {} case(s) of {} row(s) held",
        cases.len(),
        rows.len()
    );
    ExitCode::SUCCESS
}

/// Parse a `--seeds` value: a lone positive integer is a *count*
/// (`"12"` → `1..=12`), a comma list is taken verbatim. Anything else —
/// an empty list, a zero count, a negative or non-numeric entry — is an
/// error, never a silent fallback to seeds nobody asked for.
fn parse_seeds(raw: &str) -> Result<Vec<u64>, String> {
    let raw = raw.trim();
    let bad = |e: std::num::ParseIntError| format!("--seeds {raw:?}: {e}");
    if raw.contains(',') {
        return raw
            .split(',')
            .map(|s| s.trim().parse().map_err(bad))
            .collect();
    }
    match raw.parse::<u64>().map_err(bad)? {
        0 => Err("--seeds needs at least one seed".into()),
        n => Ok((1..=n).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_count_and_list() {
        assert_eq!(parse_seeds("5"), Ok(vec![1, 2, 3, 4, 5]));
        assert_eq!(parse_seeds("7, 1234 ,99"), Ok(vec![7, 1234, 99]));
    }

    #[test]
    fn seed_list_with_a_non_number_is_refused() {
        assert!(parse_seeds("1,x").is_err());
    }

    #[test]
    fn non_numeric_seed_count_is_refused() {
        assert!(parse_seeds("abc").is_err());
    }

    #[test]
    fn negative_seed_count_is_refused() {
        assert!(parse_seeds("-3").is_err());
    }

    #[test]
    fn empty_or_zero_seeds_are_refused() {
        assert!(parse_seeds("").is_err());
        assert!(parse_seeds("0").is_err());
        assert!(parse_seeds("1,").is_err());
    }
}
