#![forbid(unsafe_code)]
//! `sweep` — run a shipped or hand-written spec-file parameter sweep
//! from the command line.
//!
//! ```sh
//! cargo run --release --bin sweep -- fig3
//! cargo run --release --bin sweep -- fig3 --duration 60 --branches 2000 --workers 1
//! cargo run --release --bin sweep -- --spec my_experiment.toml --check
//! cargo run --release --bin sweep -- scaling --jsonl
//! ```
//!
//! `sweep <name>` is shorthand for `sweep --spec
//! experiments/specs/<name>.toml`, found from any working directory:
//! the files under `experiments/specs/` are the only definition of the
//! shipped experiments (`fig1`, `fig3`, `tab1`, `txt1`, `txt2`,
//! `scaling`, `smoke`, `coexist-fairness`, `coexist-vs-tcp`, `ext-aqm`,
//! `replay-cellular`, `dumbbell-cross`, `parking-lot` and
//! `ext-scaling-flows`). `--check` parses, validates, and expands the
//! grid without running it.
//!
//! `--duration`, `--branches`, and `--replicates` override the grid
//! (see [`SweepGrid::set_duration`] and its siblings), and are rejected
//! when the grid has nothing to apply them to (a silently ignored
//! parameter would yield a sweep that does not match what was asked
//! for). Spec-file read, parse and validation failures exit with code
//! 2 — distinct from a run failure — and name the offending file, line,
//! and column.
//!
//! Every run's seed derives from `(base seed, run index)`, so the CSV is
//! byte-identical for any `--workers` value — `--workers 1` is the
//! reference execution.

use augur_bench::out_dir;
use augur_scenario::{load_grid, shipped_spec_path, SweepGrid, SweepRunner};
use augur_sim::Dur;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::exit;

struct Options {
    /// The spec file: `--spec <file>`, or a shipped name's file.
    spec: Option<PathBuf>,
    check: bool,
    workers: Option<usize>,
    duration: Option<u64>,
    branches: Option<usize>,
    replicates: Option<usize>,
    jsonl: bool,
    trace_events: Option<PathBuf>,
    belief_snapshots: Option<f64>,
    progress: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep <name>        (runs {})\n\
         \x20      sweep --spec <file.toml>\n\
         \x20 options: [--check] [--workers N] [--duration SECS] [--branches B] \
         [--replicates K] [--jsonl] [--trace-events [DIR]] [--belief-snapshots SECS] \
         [--progress]\n\
         \x20   --workers N: worker threads, at least 1; values above the \
         expanded run count are clamped to it (extra workers would idle)\n\
         \x20   --trace-events [DIR]: record each run's structured event log as \
         DIR/run-<index>.jsonl (default DIR: <out>/<name>_events)\n\
         \x20   --belief-snapshots SECS: emit posterior snapshots every SECS of sim \
         time into the event logs (implies --trace-events output)\n\
         \x20   --progress: completed-run ticker on stderr (report bytes unchanged)",
        shipped_spec_path("<name>").display()
    );
    exit(2)
}

fn parse_args() -> Options {
    parse_from(std::env::args().skip(1))
}

fn parse_from(args: impl Iterator<Item = String>) -> Options {
    let mut args = args.peekable();
    let mut opts = Options {
        spec: None,
        check: false,
        workers: None,
        duration: None,
        branches: None,
        replicates: None,
        jsonl: false,
        trace_events: None,
        belief_snapshots: None,
        progress: false,
    };
    // A shipped name comes first, positionally; `--spec` names any file.
    if matches!(args.peek(), Some(p) if !p.starts_with("--")) {
        opts.spec = Some(shipped_spec_path(&args.next().unwrap()));
    }
    while let Some(flag) = args.next() {
        // `--trace-events` takes an optional directory: consume the next
        // argument only when it does not look like another flag.
        if flag == "--trace-events" {
            let dir = match args.peek() {
                Some(v) if !v.starts_with("--") => PathBuf::from(args.next().unwrap()),
                _ => PathBuf::new(), // empty = default <out>/<name>_events
            };
            opts.trace_events = Some(dir);
            continue;
        }
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        fn numeric<T: std::str::FromStr>(name: &str, raw: String) -> T {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("bad value {raw:?} for {name}");
                usage()
            })
        }
        match flag.as_str() {
            "--spec" => {
                let path = PathBuf::from(value("--spec"));
                if opts.spec.replace(path).is_some() {
                    eprintln!("give exactly one of a name or --spec");
                    usage()
                }
            }
            "--check" => opts.check = true,
            "--workers" => {
                let n: usize = numeric("--workers", value("--workers"));
                if n == 0 {
                    eprintln!("--workers must be at least 1");
                    usage()
                }
                opts.workers = Some(n);
            }
            "--duration" => opts.duration = Some(numeric("--duration", value("--duration"))),
            "--branches" => opts.branches = Some(numeric("--branches", value("--branches"))),
            "--replicates" => {
                opts.replicates = Some(numeric("--replicates", value("--replicates")))
            }
            "--jsonl" => opts.jsonl = true,
            "--belief-snapshots" => {
                let secs: f64 = numeric("--belief-snapshots", value("--belief-snapshots"));
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--belief-snapshots must be a positive number of seconds");
                    usage()
                }
                opts.belief_snapshots = Some(secs);
            }
            "--progress" => opts.progress = true,
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage()
            }
        }
    }
    opts
}

/// Apply `--duration` / `--branches` / `--replicates` to the grid,
/// rejecting any override the grid cannot consume.
fn apply_overrides(grid: &mut SweepGrid, opts: &Options, label: &str) {
    if let Some(secs) = opts.duration {
        grid.set_duration(Dur::from_secs(secs));
    }
    // AUGUR_BRANCHES is ambient; only an explicit --branches on a grid
    // with no branch cap is a hard authoring error.
    let env_branches = std::env::var("AUGUR_BRANCHES")
        .ok()
        .and_then(|s| s.parse().ok());
    if let Some(b) = opts.branches.or(env_branches) {
        if !grid.set_max_branches(b) && opts.branches.is_some() {
            eprintln!("{label} does not take --branches (no exact-belief sender in the grid)");
            usage()
        }
    }
    if let Some(k) = opts.replicates {
        if !grid.set_replicates(k) {
            eprintln!("{label} does not take --replicates (no seeds axis in the grid)");
            usage()
        }
    }
}

fn main() {
    let opts = parse_args();
    let Some(path) = &opts.spec else { usage() };
    let mut grid = match load_grid(path) {
        Ok(grid) => grid,
        Err(e) => {
            // Read/parse/validation failure: exit 2, distinct from a run
            // failure, naming the file and position. IO errors carry no
            // position (and already name the path).
            if e.line == 0 {
                eprintln!("{}", e.message);
            } else {
                eprintln!("{}:{e}", path.display());
            }
            exit(2)
        }
    };
    let label = format!("spec {}", path.display());
    apply_overrides(&mut grid, &opts, &label);
    // Observability flags arm the base spec before expansion, so every
    // expanded run inherits them (a spec file's [observe] table arms the
    // same fields without any flag).
    if opts.trace_events.is_some() {
        grid.base.observe.trace_events = true;
    }
    if let Some(secs) = opts.belief_snapshots {
        grid.base.observe.snapshot_every = Some(Dur::from_secs_f64(secs));
    }

    // Expansion applies every axis to the base spec, so it catches the
    // grid-level authoring errors the decoder cannot see in isolation
    // (an alpha axis over a TCP sender, a peer axis without a coexist
    // workload, …). Run it under a silenced panic hook whether or not
    // --check was asked for: an invalid grid is always an exit-2
    // authoring error, never a run failure.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let expanded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| grid.expand()));
    std::panic::set_hook(prev_hook);
    let runs = match expanded {
        Ok(runs) => runs,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("grid expansion panicked");
            eprintln!("{label}: invalid grid: {msg}");
            exit(2)
        }
    };

    if opts.check {
        println!(
            "OK {label}: scenario {:?}, {} runs ({}), base seed {:#x}",
            grid.base.name,
            runs.len(),
            if grid.axes.is_empty() {
                "no axes".to_string()
            } else {
                grid.axes
                    .iter()
                    .map(|a| format!("{}×{}", a.name(), a.len()))
                    .collect::<Vec<_>>()
                    .join(" ")
            },
            grid.base.base_seed
        );
        return;
    }
    // Clamp the worker count to the run count: a sweep never benefits
    // from more threads than runs, and silently spawning idle workers
    // would misreport the execution shape.
    let configured = match opts.workers {
        Some(n) => SweepRunner::with_workers(n),
        None => SweepRunner::parallel(),
    };
    let workers = configured.effective_workers(runs.len());
    if opts.workers.is_some_and(|n| n > workers) {
        eprintln!(
            "note: --workers {} exceeds the {} expanded runs; using {workers}",
            opts.workers.unwrap(),
            runs.len()
        );
    }
    // The ticker replaces the per-run lines — both are stderr-only, but
    // interleaving a carriage-return ticker with full lines is noise.
    let runner = if opts.progress {
        SweepRunner::with_workers(workers).progress()
    } else {
        SweepRunner::with_workers(workers).verbose()
    };
    println!(
        "SWEEP {}: {} runs ({}), {} workers, base seed {:#x}",
        grid.base.name,
        runs.len(),
        grid.axes
            .iter()
            .map(|a| format!("{}×{}", a.name(), a.len()))
            .collect::<Vec<_>>()
            .join(" "),
        runner.workers,
        grid.base.base_seed
    );

    let observing = grid.base.observe.active();
    let (report, event_logs) = if observing {
        let (report, events) = runner.run_observed(&runs);
        (report, Some(events))
    } else {
        (runner.run(&runs), None)
    };
    println!("\n{}", report.render_text());

    let csv_path = out_dir().join(format!("{}_sweep.csv", grid.base.name));
    let file = fs::File::create(&csv_path).expect("create sweep csv");
    report
        .write_csv(BufWriter::new(file))
        .expect("write sweep csv");
    println!("  wrote {}", csv_path.display());
    if opts.jsonl {
        let path = out_dir().join(format!("{}_sweep.jsonl", grid.base.name));
        let file = fs::File::create(&path).expect("create sweep jsonl");
        report
            .write_jsonl(BufWriter::new(file))
            .expect("write sweep jsonl");
        println!("  wrote {}", path.display());
    }
    if let Some(event_logs) = event_logs {
        let dir = match &opts.trace_events {
            Some(d) if !d.as_os_str().is_empty() => d.clone(),
            _ => out_dir().join(format!("{}_events", grid.base.name)),
        };
        fs::create_dir_all(&dir).expect("create events dir");
        for (i, events) in event_logs.iter().enumerate() {
            let path = dir.join(format!("run-{i}.jsonl"));
            fs::write(&path, augur_obs::to_jsonl(events)).expect("write event log");
        }
        println!(
            "  wrote {} event logs ({} events) to {}",
            event_logs.len(),
            event_logs.iter().map(Vec::len).sum::<usize>(),
            dir.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Options {
        parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_positional_preset_and_workers() {
        let opts = parse(&["fig3", "--workers", "8", "--duration", "30"]);
        assert_eq!(opts.spec, Some(shipped_spec_path("fig3")));
        assert!(
            opts.spec.as_ref().unwrap().is_file(),
            "fig3 is a shipped spec"
        );
        assert_eq!(opts.workers, Some(8));
        assert_eq!(opts.duration, Some(30));
    }

    #[test]
    fn parses_spec_and_flags() {
        let opts = parse(&["--spec", "x.toml", "--check", "--jsonl"]);
        assert_eq!(opts.spec, Some(PathBuf::from("x.toml")));
        assert!(opts.check);
        assert!(opts.jsonl);
        assert_eq!(opts.workers, None);
    }

    #[test]
    fn workers_clamp_to_run_count() {
        // The clamp main() applies: requested workers never exceed the
        // expanded run count (and never fall below one).
        let runner = SweepRunner::with_workers(64);
        assert_eq!(runner.effective_workers(4), 4);
        assert_eq!(runner.effective_workers(64), 64);
        assert_eq!(runner.effective_workers(1000), 64);
        assert_eq!(runner.effective_workers(0), 1);
    }
}
