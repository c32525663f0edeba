#![forbid(unsafe_code)]
//! EXT-C — the paper's scalability remark (§3.2): "This
//! rejection-sampling approach is limited computationally; we have found
//! that maintaining more than a few million possible discrete channel
//! configurations is impractical. A more sophisticated and scalable
//! scheme would use the approximate techniques of Bayesian inference …"
//!
//! We sweep the hypothesis count of the exact engine across four decades
//! and compare against the particle filter at a fixed 1,000-particle
//! budget, measuring wall time per simulated second and the
//! posterior-mean error on the link rate. The sweep is the shipped
//! `experiments/specs/scaling.toml` grid — engine × prior size under the
//! scripted 2 s ping workload — with a fourth prior size and seed
//! replicates added, executed *serially* so the wall-clock comparison
//! is not distorted by core contention; this binary adds the scaling
//! shape checks.

use augur_bench::{check, exit_on_failed_checks, out_dir, shipped};
use augur_scenario::{Axis, RunStatus, RunSummary, SweepRunner};
use std::fs;
use std::io::BufWriter;

/// Seed replicates per (engine, prior size) cell: particle survival at
/// large priors is seed luck, so each cell is measured a few times and
/// aggregated over the survivors.
const REPLICATES: usize = 3;

/// Mean wall and rate error over a cell's surviving replicates, if any.
fn survivors(cell: &[RunSummary]) -> Option<(f64, f64)> {
    let ok: Vec<&RunSummary> = cell.iter().filter(|r| r.status == RunStatus::Ok).collect();
    if ok.is_empty() {
        return None;
    }
    let n = ok.len() as f64;
    Some((
        ok.iter().map(|r| r.wall_s).sum::<f64>() / n,
        ok.iter().map(|r| r.rate_err_bps).sum::<f64>() / n,
    ))
}

fn main() {
    println!("EXT-C: exact enumeration vs particle filter, 30 s of inference\n");
    let sizes = vec![101usize, 1_001, 10_001, 100_001];
    let mut grid = shipped("scaling");
    for axis in &mut grid.axes {
        if let Axis::PriorSize(v) = axis {
            v.clone_from(&sizes);
        }
    }
    let grid = grid.axis(Axis::Seeds(REPLICATES));
    let runs = grid.expand();
    let report = SweepRunner::serial().run(&runs);
    // Group replicates by what each run actually was — the spec carries
    // the engine and prior size, so axis ordering cannot mislabel cells.
    let cell_of = |sender: &str, n: usize| -> Vec<RunSummary> {
        runs.iter()
            .zip(&report.runs)
            .filter(|(run, _)| run.spec.sender.label() == sender && run.spec.prior.size() == n)
            .map(|(_, summary)| summary.clone())
            .collect()
    };
    let exact: Vec<Vec<RunSummary>> = sizes.iter().map(|&n| cell_of("isender-exact", n)).collect();
    let particle: Vec<Vec<RunSummary>> = sizes
        .iter()
        .map(|&n| cell_of("isender-particle", n))
        .collect();
    assert!(
        exact.iter().chain(&particle).all(|c| c.len() == REPLICATES),
        "every (engine, prior size) cell must have its replicates"
    );
    let duration_s = report.runs[0].duration_s;

    println!(
        "  {:>12} {:>14} {:>16} {:>12}",
        "hypotheses", "wall (s)", "us per hyp-sec", "rate err bps"
    );
    let mut exact_walls = Vec::new();
    for (n, cell) in sizes.iter().zip(&exact) {
        let (wall, err) = survivors(cell).expect("exact engine never degenerates here");
        println!(
            "  {:>12} {:>14.3} {:>16.2} {:>12.1}",
            n,
            wall,
            wall * 1e6 / (*n as f64 * duration_s),
            err
        );
        exact_walls.push((wall, err));
    }

    println!("\n  particle filter, fixed 1,000-particle budget (mean over surviving replicates):");
    println!(
        "  {:>12} {:>14} {:>12} {:>10}",
        "prior size", "wall (s)", "rate err", "outcome"
    );
    let mut particle_cells = Vec::new();
    for (n, cell) in sizes.iter().zip(&particle) {
        match survivors(cell) {
            Some((wall, err)) => {
                let ok = cell.iter().filter(|r| r.status == RunStatus::Ok).count();
                println!(
                    "  {:>12} {:>14.3} {:>12.1} {:>7}/{REPLICATES} ok",
                    n, wall, err, ok
                );
                particle_cells.push(Some((wall, err)));
            }
            // With exact-time matching, a particle survives only if it
            // sits on the true grid point; 1,000 particles over a prior
            // much larger than the budget lose coverage — a measured
            // limitation of the bootstrap filter the paper's "belief
            // compression" remark anticipates.
            None => {
                println!("  {n:>12} {:>14} {:>12} {:>10}", "-", "-", "degenerate");
                particle_cells.push(None);
            }
        }
    }

    let path = out_dir().join("ext_scaling_sweep.csv");
    let file = fs::File::create(&path).expect("create csv");
    report
        .write_csv(BufWriter::new(file))
        .expect("write sweep csv");
    println!("\n  wrote {}", path.display());

    println!("\nShape checks:");
    let (n0, w0) = (sizes[0], exact_walls[0].0);
    let (n2, w2) = (sizes[2], exact_walls[2].0);
    let scale = (w2 / w0) / (n2 as f64 / n0 as f64);
    check(
        "exact cost grows ~linearly while the population survives",
        (0.2..5.0).contains(&scale),
        format!("{n0}→{n2} hypotheses: {w0:.3}s→{w2:.3}s (per-hyp ratio {scale:.2})"),
    );
    let per_hyp_sec = w2 / (n2 as f64 * duration_s);
    check(
        "extrapolated: millions of hypotheses are impractical (paper §3.2)",
        per_hyp_sec * 2e6 > 0.5,
        format!(
            "~{:.1}s of wall per simulated second at 2M hypotheses",
            per_hyp_sec * 2e6
        ),
    );
    check(
        "exact posterior locates the link rate",
        exact_walls.iter().all(|(_, err)| *err < 1_000.0),
        "posterior means within 1 kbps of truth",
    );
    let ok_walls: Vec<f64> = particle_cells
        .iter()
        .filter_map(|c| c.map(|(w, _)| w))
        .collect();
    check(
        "particle cost flat across prior sizes (where it survives)",
        ok_walls.len() >= 2
            && ok_walls.iter().cloned().fold(f64::MIN, f64::max)
                < 5.0 * ok_walls.iter().cloned().fold(f64::MAX, f64::min).max(1e-4),
        format!("walls: {ok_walls:?}"),
    );
    let accurate = particle_cells
        .iter()
        .filter_map(|c| c.map(|(_, err)| err))
        .all(|err| err < 1_000.0);
    check(
        "particle filter accurate where coverage suffices",
        accurate,
        "posterior means within 1 kbps of truth",
    );
    check(
        "bootstrap filter degenerates when prior >> particle budget",
        particle
            .iter()
            .any(|cell| cell.iter().all(|r| r.status == RunStatus::BeliefDied)),
        "exact-match likelihood needs coverage (motivates belief compression)",
    );
    exit_on_failed_checks();
}
