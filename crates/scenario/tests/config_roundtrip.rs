//! The config layer's external contract:
//!
//! 1. the rate traces shipped under `experiments/traces/` load, start at
//!    0 and loop at their documented lengths (the spec files themselves
//!    are pinned grid by grid in `shipped_specs.rs`);
//! 2. shipped and hand-written spec files run deterministically at any
//!    worker count;
//! 3. spec files can reach configurations the shipped ones don't, like
//!    N > 2 coexistence peers or model-topology axes.

use augur_scenario::{
    experiments_dir, load_grid, parse_grid, shipped_spec_path, traces, SweepRunner, WorkloadSpec,
};
use augur_sim::{BitRate, Dur};

#[test]
fn shipped_trace_files_loop_at_their_documented_lengths() {
    let dir = experiments_dir().join("traces");
    // (stem, loop length, sample cadence, first rate)
    let expected = [
        (
            "lte-fade",
            Dur::from_secs(60),
            Dur::from_millis(500),
            4_000_000,
        ),
        (
            "lte-scatter",
            Dur::from_secs(45),
            Dur::from_millis(250),
            2_000_000,
        ),
    ];
    for (stem, length, cadence, first_bps) in expected {
        let path = dir.join(format!("{stem}.csv"));
        let csv = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing shipped trace {} ({e})", path.display()));
        let samples = traces::parse_trace_csv(&csv).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(
            samples[0],
            (Dur::ZERO, BitRate::from_bps(first_bps)),
            "{stem}"
        );
        assert_eq!(samples.last().unwrap().0, length, "{stem}: loop length");
        assert!(
            samples
                .iter()
                .enumerate()
                .all(|(i, (t, _))| *t == Dur::from_micros(cadence.as_micros() * i as u64)),
            "{stem}: one sample every {cadence}"
        );
    }
    // And nothing extra is shipped.
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    stems.sort();
    assert_eq!(stems, ["lte-fade.csv", "lte-scatter.csv"]);
}

#[test]
fn replay_spec_runs_deterministically_across_worker_counts() {
    let mut grid = load_grid(&shipped_spec_path("replay-cellular")).unwrap();
    grid.set_duration(Dur::from_secs(10));
    let runs = grid.expand();
    assert_eq!(runs.len(), 12);
    let serial = SweepRunner::serial().run(&runs);
    let parallel = SweepRunner::with_workers(4).run(&runs);
    assert_eq!(
        serial.to_csv_string(),
        parallel.to_csv_string(),
        "worker count leaked into the trace-replay sweep"
    );
    // Every run moves traffic, and the trace label lands in the coords.
    for r in &serial.runs {
        assert!(r.sends > 0, "{}: no sends", r.point);
        assert!(
            r.point.contains("rate_trace=lte-fade") || r.point.contains("rate_trace=lte-scatter"),
            "unexpected point {}",
            r.point
        );
    }
}

#[test]
fn three_flow_coexist_spec_runs_deterministically() {
    // A configuration only spec files can express today: the primary
    // ISender against TWO AIMD peers (three flows on one bottleneck).
    let shipped = std::fs::read_to_string(shipped_spec_path("coexist-fairness")).unwrap();
    let toml = shipped.replace(
        "peers = [\n  { kind = \"isender\", alpha = 1.0 },\n]",
        "peers = [\n  { kind = \"aimd\", timeout_s = 8.0 },\n  { kind = \"aimd\", timeout_s = 8.0 },\n]",
    );
    let mut grid = parse_grid(&toml).unwrap();
    grid.set_duration(Dur::from_secs(20));
    match &grid.base.sender {
        augur_scenario::SenderSpec::IsenderExact { .. } => {}
        other => panic!("unexpected sender {other:?}"),
    }
    match &grid.base.workload {
        WorkloadSpec::Coexist(cx) => assert_eq!(cx.peers.len(), 2),
        other => panic!("unexpected workload {other:?}"),
    }
    grid.axes = vec![augur_scenario::Axis::Seeds(2)];
    let runs = grid.expand();
    let serial = SweepRunner::serial().run(&runs);
    let parallel = SweepRunner::with_workers(3).run(&runs);
    assert_eq!(
        serial.to_csv_string(),
        parallel.to_csv_string(),
        "worker count leaked into a 3-flow coexistence sweep"
    );
    for r in &serial.runs {
        assert_eq!(r.peer, "aimd+aimd", "peer label joins all peers");
        assert!(
            r.jain.is_nan() || (0.0..=1.0).contains(&r.jain),
            "jain index in range over 3 flows: {}",
            r.jain
        );
        // goodput_b aggregates both peers; with three active flows the
        // peers together should move at least something.
        assert!(r.goodput_b_bps >= 0.0);
    }
}

#[test]
fn spec_files_can_sweep_model_topology_axes() {
    // Axes no shipped spec combines: link-rate × buffer-capacity over a
    // fast scripted workload, written as a spec file would be.
    let src = r#"
[scenario]
name = "custom-matrix"
duration_s = 10.0
base_seed = 7

[topology]
kind = "model"
link_bps = 12000
cross_bps = 8400
cross_active = false
gate = { kind = "always-on" }
loss_ppm = 0
buffer_bits = 96000
initial_fullness_bits = 0
packet_bits = 12000

[prior]
kind = "fine-link-rate"
n = 11
lo_bps = 8000
hi_bps = 16000

[sender]
kind = "isender-exact"
alpha = 1.0
latency_penalty = 0.0
max_branches = 4096

[workload]
kind = "scripted-ping"
interval_s = 2.0

[[axis]]
kind = "link-rate"
values = [10000, 12000]

[[axis]]
kind = "seeds"
count = 2
"#;
    let grid = parse_grid(src).unwrap();
    assert_eq!(grid.len(), 4);
    let report = SweepRunner::serial().run(&grid.expand());
    assert_eq!(report.runs.len(), 4);
    assert!(report.runs.iter().all(|r| r.sends > 0));
}
