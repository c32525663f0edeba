#![forbid(unsafe_code)]
//! `perf` — run named benchmark suites and emit `BENCH_<suite>.json`.
//!
//! ```sh
//! cargo run --release --bin perf -- --list
//! cargo run --release --bin perf -- sweep-fig3
//! cargo run --release --bin perf -- all --quick
//! AUGUR_OUT=out cargo run --release --bin perf -- event-queue
//! ```
//!
//! Suites (the authoritative list is `augur_perf::suites::NAMES`, also
//! printed by `--list`): `event-queue`, `rate-trace`, `belief-update`,
//! `belief-fork`, `sweep-fig3`, `sweep-replay`, `prior-reuse`,
//! `topo-route`, or `all`.
//! `--quick` shrinks every workload to CI-smoke size.
//!
//! Each suite writes `BENCH_<suite>.json` under `AUGUR_OUT` (default
//! `experiments/`). Wall times in the JSON are advisory; the
//! `work_per_batch` counters are deterministic and must be identical
//! across reruns — CI runs every suite twice and diffs them.

use augur_perf::{out_dir, suites, SuiteReport};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: perf <{}|all> [--quick]\n\
         \x20      perf --list\n\
         \x20 writes BENCH_<suite>.json under AUGUR_OUT (default experiments/)",
        suites::NAMES.join("|")
    );
    exit(2)
}

struct Options {
    suites: Vec<String>,
    quick: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options {
        suites: Vec::new(),
        quick: false,
    };
    for arg in args {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--list" => {
                for name in suites::NAMES {
                    println!("{name}");
                }
                exit(0)
            }
            "all" => opts
                .suites
                .extend(suites::NAMES.iter().map(|s| s.to_string())),
            name if !name.starts_with('-') => opts.suites.push(name.to_string()),
            flag => {
                eprintln!("unknown flag {flag:?}");
                usage()
            }
        }
    }
    if opts.suites.is_empty() {
        eprintln!("name at least one suite (or `all`)");
        usage()
    }
    opts
}

fn print_summary(report: &SuiteReport) {
    println!("SUITE {} ({})", report.suite, report.mode);
    for m in &report.results {
        let work = m
            .work_per_batch
            .named()
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  {:<14} median {:>12.6}s/iter  (p10 {:.6}, p90 {:.6}; {} batches × {} iters)  \
             work: {work}",
            m.name,
            m.secs_per_iter.median,
            m.secs_per_iter.p10,
            m.secs_per_iter.p90,
            m.config.batches,
            m.config.iters_per_batch,
        );
    }
    for (name, value) in &report.derived {
        println!("  {name} = {value:.3}");
    }
}

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    let dir = out_dir();
    for name in &opts.suites {
        let report = match suites::run(name, opts.quick) {
            Some(r) => r,
            None => {
                eprintln!("unknown suite {name:?}");
                usage()
            }
        };
        print_summary(&report);
        let path = report.write(&dir).expect("write BENCH json");
        println!("  wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_suite_names_and_quick() {
        let opts = parse_args(args(&["event-queue", "rate-trace", "--quick"]));
        assert_eq!(opts.suites, vec!["event-queue", "rate-trace"]);
        assert!(opts.quick);
    }

    #[test]
    fn all_expands_to_the_registry() {
        let opts = parse_args(args(&["all"]));
        assert_eq!(opts.suites.len(), suites::NAMES.len());
        assert!(!opts.quick);
    }
}
