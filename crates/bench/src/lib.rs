#![forbid(unsafe_code)]
//! `augur-bench` — the experiment harness.
//!
//! One binary per paper artifact:
//!
//! | binary                | artifact |
//! |-----------------------|----------|
//! | `fig1_bufferbloat`    | Figure 1: TCP RTT blow-up on an LTE-like path |
//! | `tab1_convergence`    | Figure 2's parameter table: prior → posterior |
//! | `fig3_alpha_sweep`    | Figure 3: sequence number vs time across α |
//! | `txt1_simple_link`    | §4: single sender on an unknown link |
//! | `txt2_latency_penalty`| §4: latency penalty drains the buffer first |
//! | `ext_fairness`        | §3.5: two ISenders sharing a bottleneck (`coexist-fairness` spec) |
//! | `ext_vs_tcp`          | §3.5: ISender vs AIMD / TCP Reno / CUBIC (`coexist-vs-tcp` spec) |
//! | `ext_scaling`         | §5: exact enumeration vs particle filter |
//! | `ext_aqm`             | §3.5: AQM (RED/CoDel) vs deep FIFO under TCP |
//!
//! Each binary loads its experiment from the shipped spec files under
//! `experiments/specs/` ([`shipped`]), prints its figure as an ASCII
//! chart, writes CSV under `experiments/`, and prints the paper's shape
//! claims as [`check`]s. A binary whose checks did not all pass exits
//! with status 1 ([`exit_on_failed_checks`]).

use augur_scenario::{load_shipped, SweepGrid};
use augur_trace::Series;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where experiment CSVs land (override with `AUGUR_OUT`).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("AUGUR_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("experiments"));
    fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Write series to `<out_dir>/<name>.csv` (wide format) and report the
/// path on stdout.
pub fn save_csv(name: &str, series: &[&Series]) {
    let path = out_dir().join(format!("{name}.csv"));
    let file = fs::File::create(&path).expect("create csv");
    augur_trace::write_wide(std::io::BufWriter::new(file), series).expect("write csv");
    println!("  wrote {}", path.display());
}

/// The shipped experiment `experiments/specs/<name>.toml`.
///
/// # Panics
/// Panics with the spec error if the file is missing or invalid.
pub fn shipped(name: &str) -> SweepGrid {
    load_shipped(name).unwrap_or_else(|e| panic!("shipped spec {name:?}: {e}"))
}

/// Checks that failed so far in this process.
static FAILED_CHECKS: AtomicUsize = AtomicUsize::new(0);

/// Print a one-line pass/fail check, and record a failure.
pub fn check(name: &str, ok: bool, detail: impl std::fmt::Display) {
    println!("  [{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        FAILED_CHECKS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Exit with status 1 if any [`check`] failed. Call at the end of
/// `main`.
pub fn exit_on_failed_checks() {
    let failed = FAILED_CHECKS.load(Ordering::Relaxed);
    if failed > 0 {
        eprintln!("{failed} check(s) failed");
        std::process::exit(1);
    }
}
