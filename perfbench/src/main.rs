//! `augur-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload fig3|coexist|many-flow|all] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! Run from the repository root. Each workload repeats measurement rounds
//! over its grid for `--seconds` (at least two rounds), checks every
//! pass's report rows, and prints its metrics; the last stdout line is one
//! JSON object. See `perfbench/README.md` for the metrics and workloads.

mod agents;
mod calib;
mod layers;
mod probe;
mod runs;
mod stats;

use augur_scenario::{SweepReport, SweepRunner};
use layers::Metric;
use runs::{Pass, ProgramPass, Workload, WORKLOADS};
use stats::{median, quartile_spread};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Rounds every measurement makes, however short `--seconds` is: two
/// identical program passes are the least that checks a pass repeats
/// exactly.
const MIN_ROUNDS: usize = 2;
/// Stand-alone set-ups timed per round.
const SETUPS_PER_ROUND: usize = 20;
const REFERENCE_DIR: &str = "perfbench/reference";
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: None,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value:?} (fig3, coexist, many-flow, all)"
                ))?]
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload's measurement reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// The committed rows and work counts of a workload at its default seed.
struct Reference {
    rows: Vec<String>,
    counts: Vec<(String, String)>,
}

fn reference_paths(w: &Workload) -> (PathBuf, PathBuf) {
    let dir = Path::new(REFERENCE_DIR);
    (
        dir.join(format!("{}.csv", w.name)),
        dir.join(format!("{}.counts", w.name)),
    )
}

impl Reference {
    fn load(w: &Workload) -> Option<Reference> {
        let (rows, counts) = reference_paths(w);
        let rows = std::fs::read_to_string(rows).ok()?;
        let counts = std::fs::read_to_string(counts).ok()?;
        Some(Reference {
            rows: rows.lines().skip(1).map(str::to_string).collect(),
            counts: counts
                .lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }
}

/// CSV data rows of a report (header dropped).
fn rows(report: &SweepReport) -> Vec<String> {
    report
        .to_csv_string()
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

/// Rows with the per-run seed blanked: what a seed changes beyond its own
/// column.
fn outcome_rows(report: &SweepReport) -> Vec<String> {
    let mut r = report.clone();
    for run in &mut r.runs {
        run.seed = 0;
    }
    rows(&r)
}

/// The `name value` pairs whose value differs from the reference's, as
/// `name old -> new`.
fn count_changes(r: &Reference, current: &[(String, String)]) -> Vec<String> {
    current
        .iter()
        .filter_map(|(k, v)| {
            let (_, old) = r.counts.iter().find(|(rk, _)| rk == k)?;
            (old != v).then(|| format!("{k} {old} -> {v}"))
        })
        .collect()
}

fn report_changes(what: &str, changes: &[String]) {
    let listed = if changes.is_empty() {
        "identical".to_string()
    } else {
        changes.join(", ")
    };
    println!("{what} vs reference: {listed}");
}

/// Wake latency of a list of wake times: (p50 µs, tail µs, tail
/// percentile, sample count).
fn wake_stats(wake_ns: &[u32]) -> (f64, f64, f64, usize) {
    let mut v = wake_ns.to_vec();
    v.sort_unstable();
    let pct = stats::tail_pct(v.len());
    (
        stats::percentile(&v, 50.0) as f64 * 1e-3,
        stats::percentile(&v, pct) as f64 * 1e-3,
        pct,
        v.len(),
    )
}

/// Fold one round's wake times into `best`, keeping each wake's fastest
/// so far. A wake does the same work in every round (every pass is
/// checked against the first), so its fastest time is its cost with the
/// host's contention, which only ever adds time, filtered out. Returns
/// false if the round timed another number of wakes than the first.
fn keep_best(best: &mut Vec<u32>, round: &[u32]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(round);
        return true;
    }
    if best.len() != round.len() {
        return false;
    }
    for (b, &r) in best.iter_mut().zip(round) {
        if r < *b {
            *b = r;
        }
    }
    true
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_host() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A source checkout that is not a git repository has no commit; do
    // not let git report some enclosing repository's.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    println!(
        "host: nproc {nproc}, workers 1, {}, commit {commit}",
        command_line("rustc", &["-V"])
    );
}

/// Check one pass's runs against the first program pass (`first`), and
/// at the default seed against the committed reference. Returns the
/// number of runs checked and the failing ones, described.
fn check_pass(
    label: &str,
    report: &SweepReport,
    first: &SweepReport,
    reference: Option<&Reference>,
) -> (u64, Vec<String>) {
    let pass_rows = rows(report);
    let first_rows = rows(first);
    let mut failures = Vec::new();
    for (i, run) in report.runs.iter().enumerate() {
        let mut bad = Vec::new();
        if run.status.label() != "ok" {
            bad.push(format!("status {}", run.status.label()));
        }
        if first_rows.get(i) != Some(&pass_rows[i]) {
            bad.push("row differs from the first program pass".to_string());
        }
        if first.runs.get(i).map(|r| r.work) != Some(run.work) {
            bad.push("work counters differ from the first program pass".to_string());
        }
        if reference.is_some_and(|r| r.rows.get(i) != Some(&pass_rows[i])) {
            bad.push("row differs from the committed reference".to_string());
        }
        if !bad.is_empty() {
            failures.push(format!("{label} run {i}: {}", bad.join(", ")));
        }
    }
    (report.runs.len() as u64, failures)
}

/// Measure one workload. Each round makes a program pass (`sweep_s`,
/// the rows), an untraced copy pass (`wake_us_*`), stand-alone set-ups
/// (`setup_s`) and, with `trace`, a traced copy pass (per-layer metrics).
/// `sweep_s` is the (trimmed) mean pass, `setup_s` the median set-up, and
/// `wake_us_*` percentiles of each wake's fastest time over the rounds.
/// All are scaled by the host's speed, which interleaved calls of a
/// fixed kernel gauge (`calib`).
fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let default_seed = w.default_seed();
    let reference = Reference::load(w);
    let start = Instant::now();
    let mut problems: Vec<String> = Vec::new();
    let mut program: Vec<ProgramPass> = Vec::new();
    let mut copies: Vec<SweepReport> = Vec::new();
    let mut traced: Vec<(Pass, Result<Vec<Metric>, String>)> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    // Each round's median set-up over the kernel call made just before.
    let mut setup_per_gauge: Vec<f64> = Vec::new();
    let mut best_wake: Vec<u32> = Vec::new();
    let mut wakes: Vec<(f64, f64, f64, usize)> = Vec::new();
    let mut rss = 0.0;
    // Made after the first program pass, so that its table is not in
    // `peak_rss_mib`.
    let mut cal: Option<calib::Calibrator> = None;
    loop {
        let round = Instant::now();
        let cal_from = cal.as_ref().map_or(0, |c| c.samples.len());
        let p = runs::program_pass(w, seed, || {
            if let Some(c) = cal.as_mut() {
                c.sample()
            }
        });
        let cal = cal.get_or_insert_with(|| {
            // The process peak after the first program pass, before any
            // benchmark-side copy ran: the program's own memory.
            rss = peak_rss_mib();
            calib::Calibrator::new()
        });
        program.push(p);
        let mut p = runs::pass(w, seed, false);
        let wake_ns = std::mem::take(&mut p.record.wake_ns);
        wakes.push(wake_stats(&wake_ns));
        if !keep_best(&mut best_wake, &wake_ns) {
            problems.push(format!("copy pass {}: another wake count", copies.len()));
        }
        copies.push(p.report);
        // This call also gauges the host for the set-ups right after it.
        cal.sample();
        let gauge = cal.samples[cal.samples.len() - 1];
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.5}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let (p50, tail, _, _) = wakes[wakes.len() - 1];
        println!(
            "round {}: runs_s [{}] calibration_s [{}] wake_us p50 {p50:.4} tail {tail:.4}",
            program.len() - 1,
            list(&program[program.len() - 1].run_s),
            list(&cal.samples[cal_from..])
        );
        let round_setup: Vec<f64> = (0..SETUPS_PER_ROUND)
            .map(|_| runs::time_setup(w, seed))
            .collect();
        setup_per_gauge.push(median(&round_setup) / gauge);
        setup.extend(round_setup);
        if trace {
            let p = runs::pass(w, seed, true);
            let layers = layers::per_layer(&p.record, p.sweep_s);
            // Only the latest traced pass keeps its spans for the file.
            if let Some((prev, _)) = traced.last_mut() {
                prev.record.spans = Vec::new();
            }
            traced.push((p, layers));
        }
        // Stop before a round that would overrun `--seconds`, so a run
        // lasts about `--seconds` however long one round takes.
        let elapsed = start.elapsed().as_secs_f64();
        if program.len() >= MIN_ROUNDS && elapsed + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }

    let cal = cal.expect("at least one round ran");
    let first = &program[0].report;
    let reference_at_seed = reference.as_ref().filter(|_| seed == default_seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let passes = program
        .iter()
        .enumerate()
        .map(|(k, p)| (format!("program pass {k}"), &p.report))
        .chain(
            copies
                .iter()
                .enumerate()
                .map(|(k, r)| (format!("copy pass {k}"), r)),
        )
        .chain(
            traced
                .iter()
                .enumerate()
                .map(|(k, (p, _))| (format!("traced pass {k}"), &p.report)),
        );
    for (label, report) in passes {
        let (n, failures) = check_pass(&label, report, first, reference_at_seed);
        attempted += n;
        failed += failures.len() as u64;
        problems.extend(failures);
    }
    let work = first.total_work();
    let work_counts: Vec<(String, String)> = work
        .named()
        .iter()
        .map(|(k, v)| (format!("work.{k}"), v.to_string()))
        .collect();
    match &reference {
        None => problems.push(format!(
            "no reference rows under {REFERENCE_DIR}; run with --write-reference"
        )),
        Some(r) if seed != default_seed => {
            // The seed must reach the outcome. It is dead if every row
            // (seed column aside) and every work total equal the default
            // seed's; two live seeds can share rows on coexist, where
            // each run has only a few distinct outcomes.
            let mut reference_rows = r.rows.clone();
            for row in &mut reference_rows {
                let mut cols: Vec<&str> = row.split(',').collect();
                if cols.len() > 5 {
                    cols[5] = "0";
                }
                *row = cols.join(",");
            }
            let same_work = count_changes(r, &work_counts).is_empty();
            if same_work && outcome_rows(first) == reference_rows {
                problems.push(format!(
                    "seed {seed} is dead: rows and work equal the default seed's"
                ));
            }
        }
        Some(_) => {}
    }

    println!(
        "work per pass: {}",
        work.named()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(r) = reference_at_seed {
        report_changes("work", &count_changes(r, &work_counts));
    }

    let sweep: Vec<f64> = program.iter().map(|p| p.sweep_s).collect();
    let p50: Vec<f64> = wakes.iter().map(|w| w.0).collect();
    let tail: Vec<f64> = wakes.iter().map(|w| w.1).collect();
    let (best_p50, best_tail, tail_pct, wake_n) = wake_stats(&best_wake);
    println!(
        "rounds: {} (program pass, untraced copy pass, {SETUPS_PER_ROUND} set-ups{}); {} runs per pass",
        program.len(),
        if trace { ", traced copy pass" } else { "" },
        first.runs.len()
    );

    let spread = |name: &str, xs: &[f64]| {
        println!(
            "{name}: median {:.4e}, spread {:.4} (quartile distance / median) over {} samples",
            median(xs),
            quartile_spread(xs),
            xs.len()
        );
    };
    spread("raw setup_s per set-up", &setup);
    spread("raw sweep_s per pass", &sweep);
    spread("raw wake_us_p50 per pass", &p50);
    spread("raw wake_us_p99 per pass", &tail);
    spread("calibration_s per call", &cal.samples);
    // The host's speed, gauged by the calibration kernel, scales every
    // timed metric to the reference speed, each by the calibration
    // statistic that matches it. The host switches between a fast and a
    // slow state many times a second. A pass spans many switches, so its
    // mean is matched by the calibration's mean (both trimmed of a tenth
    // each side, against stray stalls). A round's set-ups take well under
    // a millisecond and fall in one state, the one the kernel call just
    // before them saw. A wake's fastest time is matched by the fastest
    // call.
    let scale_mean = calib::REFERENCE_S / stats::trimmed_mean(&cal.samples);
    let scale_best = calib::REFERENCE_S / cal.best();
    println!(
        "raw: trimmed mean pass {:.4} s; best of {} rounds: wake_us_p50 {best_p50:.4}, wake_us_p99 {best_tail:.4}; calibration trimmed mean {:.6} s, best {:.6} s; scale: mean {scale_mean:.4}, best {scale_best:.4}",
        stats::trimmed_mean(&sweep),
        program.len(),
        stats::trimmed_mean(&cal.samples),
        cal.best()
    );
    println!("wake samples: {wake_n} per pass; wake_us_p99 is p{tail_pct:.2}");
    println!("peak_rss_mib: one reading per run (process peak after the first program pass)");

    let metrics = if !trace {
        let m = |name, unit, value| Metric {
            name,
            unit,
            value,
            exact: false,
        };
        vec![
            m(
                "setup_s",
                "s",
                median(&setup_per_gauge) * calib::REFERENCE_S,
            ),
            m("sweep_s", "s", stats::trimmed_mean(&sweep) * scale_mean),
            m("wake_us_p50", "us", best_p50 * scale_best),
            m("wake_us_p99", "us", best_tail * scale_best),
            m("peak_rss_mib", "MiB", rss),
        ]
    } else {
        let mut all: Vec<Vec<Metric>> = Vec::new();
        for (k, (_, layers)) in traced.iter().enumerate() {
            match layers {
                Ok(m) => all.push(m.clone()),
                Err(e) => problems.push(format!("traced pass {k}: {e}")),
            }
        }
        let mut metrics: Vec<Metric> = Vec::new();
        if let Some(firsts) = all.first() {
            for (j, m) in firsts.iter().enumerate() {
                let values: Vec<f64> = all.iter().map(|ms| ms[j].value).collect();
                if m.exact && values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                    problems.push(format!("{} differs between traced passes", m.name));
                }
                metrics.push(Metric {
                    value: if m.exact { m.value } else { median(&values) },
                    ..*m
                });
            }
        }
        let traced_sweep: Vec<f64> = traced.iter().map(|(p, _)| p.sweep_s).collect();
        let overhead = median(&traced_sweep) / median(&sweep) - 1.0;
        let c = |name, unit, value: u64| Metric {
            name,
            unit,
            value: value as f64,
            exact: true,
        };
        metrics.push(Metric {
            name: "bench.trace_overhead_frac",
            unit: "ratio",
            value: overhead,
            exact: false,
        });
        metrics.push(c("bench.wake_samples", "count", wake_n as u64));
        metrics.push(Metric {
            name: "bench.wake_tail_pct",
            unit: "%",
            value: tail_pct,
            exact: true,
        });
        let names = [
            "work.events_processed",
            "work.packets_forwarded",
            "work.hypothesis_updates",
            "work.particle_resamples",
            "work.rate_integrations",
            "work.networks_built",
            "work.state_clones",
            "work.structures_built",
            "work.flow_wakes",
        ];
        for (name, (_, v)) in names.iter().zip(work.named()) {
            metrics.push(c(name, "count", v));
        }
        if w.name == "many-flow" {
            for m in &metrics {
                let belief_layer =
                    m.name.starts_with("planner.") || m.name.starts_with("inference.");
                if belief_layer && m.exact && m.value != 0.0 {
                    problems.push(format!(
                        "{} is {} on a belief-free workload",
                        m.name, m.value
                    ));
                }
            }
        }
        if let Some(r) = reference_at_seed {
            let counts: Vec<(String, String)> = metrics
                .iter()
                .filter(|m| {
                    m.exact && !m.name.starts_with("work.") && !m.name.starts_with("bench.")
                })
                .map(|m| (m.name.to_string(), m.value.to_string()))
                .collect();
            report_changes("per-layer counts", &count_changes(r, &counts));
        }
        if let Some((p, _)) = traced.last() {
            if let Err(e) = write_spans(w, &p.record.spans) {
                problems.push(format!("writing spans: {e}"));
            }
        }
        metrics
    };

    println!(
        "failed_frac: {} ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    );
    for p in &problems {
        println!("problem: {p}");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        correct: problems.is_empty(),
    }
}

/// Write one traced pass's spans, one per line. Belief-free peer wakes
/// (millions on many-flow) are left out of the file; `agents.*` carries
/// their count and self time.
fn write_spans(w: &Workload, spans: &[probe::Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("{}.spans.tsv", w.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "span\tparent\trun\tname\tlayer\tstart_ns\tend_ns")?;
    let opt = |v: u32| {
        if v == u32::MAX {
            "-".to_string()
        } else {
            v.to_string()
        }
    };
    let mut written = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if s.name == probe::Name::PeerWake {
            continue;
        }
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
            opt(s.parent),
            opt(s.run),
            s.name.label(),
            s.name.layer(),
            s.start_ns,
            s.end_ns
        )?;
        written += 1;
    }
    out.flush()?;
    println!(
        "spans: {written} of {} written to {} (peer wakes left out)",
        spans.len(),
        path.display()
    );
    Ok(())
}

fn json(outcomes: &[(&str, &Outcome)], prefix: bool) -> String {
    let mut metrics = String::new();
    for (w, o) in outcomes {
        for m in &o.metrics {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let name = if prefix {
                format!("{w}.{}", m.name)
            } else {
                m.name.to_string()
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcomes.iter().all(|(_, o)| o.correct),
        outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        outcomes.iter().map(|(_, o)| o.failed).sum::<u64>(),
    )
}

/// Regenerate the committed reference for `w` at its default seed: the
/// program's own `SweepRunner` rows, checked against a program pass and
/// an untraced and a traced copy pass, plus the work counts; then check
/// that another seed changes the rows.
fn write_reference(w: &Workload) -> Result<(), String> {
    let seed = w.default_seed();
    let program = SweepRunner::serial().run(&w.runs(seed));
    let serial = runs::program_pass(w, seed, || {}).report;
    let untraced = runs::pass(w, seed, false).report;
    let traced = runs::pass(w, seed, true);
    let passes = [
        ("program", &serial),
        ("untraced copy", &untraced),
        ("traced copy", &traced.report),
    ];
    for (label, report) in passes {
        if rows(report) != rows(&program) {
            return Err(format!(
                "{}: {label} pass rows differ from SweepRunner's",
                w.name
            ));
        }
        for (a, b) in report.runs.iter().zip(&program.runs) {
            if a.work != b.work {
                return Err(format!(
                    "{}: {label} pass run {} work differs from SweepRunner's",
                    w.name, a.index
                ));
            }
        }
    }
    let other_seed = seed.wrapping_add(1);
    let other = runs::program_pass(w, other_seed, || {}).report;
    if outcome_rows(&other) == outcome_rows(&serial) {
        return Err(format!(
            "{}: seeds {seed} and {other_seed} give the same rows",
            w.name
        ));
    }
    let layers = layers::per_layer(&traced.record, traced.sweep_s)?;
    let mut counts = String::new();
    for (k, v) in serial.total_work().named() {
        let _ = writeln!(counts, "work.{k} {v}");
    }
    for m in layers.iter().filter(|m| m.exact) {
        let _ = writeln!(counts, "{} {}", m.name, m.value);
    }
    let (rows_path, counts_path) = reference_paths(w);
    std::fs::create_dir_all(REFERENCE_DIR).map_err(|e| e.to_string())?;
    std::fs::write(&rows_path, program.to_csv_string()).map_err(|e| e.to_string())?;
    std::fs::write(&counts_path, counts).map_err(|e| e.to_string())?;
    println!(
        "{}: wrote {} and {} (seed {seed}, {} runs)",
        w.name,
        rows_path.display(),
        counts_path.display(),
        program.runs.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("experiments/specs").is_dir() {
        eprintln!("perfbench: run from the repository root (experiments/specs not found)");
        return ExitCode::from(2);
    }
    if args.write_reference {
        for w in &args.workloads {
            if let Err(e) = write_reference(w) {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    print_host();
    let mut outcomes = Vec::new();
    for w in &args.workloads {
        let seed = args.seed.unwrap_or_else(|| w.default_seed());
        println!(
            "== {} ({}, {} s simulated per run, seed {seed}, {} mode)",
            w.name,
            w.spec,
            w.duration_s,
            if args.trace { "traced" } else { "untraced" }
        );
        let o = measure(w, seed, args.seconds, args.trace);
        for m in &o.metrics {
            println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        outcomes.push((w.name.to_string(), o));
    }
    let all: Vec<(&str, &Outcome)> = outcomes.iter().map(|(w, o)| (w.as_str(), o)).collect();
    if all.len() > 1 {
        for one in &all {
            println!("{}: {}", one.0, json(&[*one], false));
        }
    }
    println!("{}", json(&all, all.len() > 1));
    ExitCode::SUCCESS
}
