//! The named benchmark suites the `perf` CLI runs.
//!
//! Every suite is deterministic: workloads are seeded, sized by the
//! quick/full mode only, and their [`Measurement::work_per_batch`]
//! counters are byte-identical across reruns (the CI `perf-smoke` job
//! enforces this). Wall times are the advisory half of the report.
//!
//! [`Measurement::work_per_batch`]: crate::harness::Measurement

use crate::harness::{BenchConfig, Bencher, Measurement};
use crate::report::SuiteReport;
use augur_core::{
    build_many_flow_bottleneck, coexist_belief, decide, run_multi_agent, AimdSender,
    DiscountedThroughput, PlannerConfig, RunTrace, SenderAgent,
};
use augur_elements::{DropRecord, RateProcess, TraceEnd};
use augur_inference::Observation;
use augur_inference::{BeliefConfig, ModelPrior};
use augur_scenario::{
    execute_run, experiments_dir, load_shipped, spec_belief_in, traces, Axis, ObserveSpec,
    PriorCache, PriorSpec, RunSpec, ScenarioSpec, SenderSpec, SweepGrid, SweepRunner, TopologySpec,
    WorkloadSpec,
};
use augur_sim::perf;
use augur_sim::{BitRate, Bits, Dur, EventQueue, FlowId, Packet, Ppm, SimRng, Time, WorkCounters};
use std::hint::black_box;

/// Every suite name, in the order `perf all` runs them.
pub const NAMES: [&str; 11] = [
    "event-queue",
    "rate-trace",
    "belief-update",
    "belief-fork",
    "sweep-fig3",
    "sweep-replay",
    "prior-reuse",
    "topo-route",
    "many-flow",
    "obs-overhead",
    "planner-decide",
];

/// Run a named suite. `quick` shrinks workloads to CI-smoke size.
pub fn run(name: &str, quick: bool) -> Option<SuiteReport> {
    Some(match name {
        "event-queue" => event_queue(quick),
        "rate-trace" => rate_trace(quick),
        "belief-update" => belief_update(quick),
        "belief-fork" => belief_fork(quick),
        "sweep-fig3" => sweep_fig3(quick),
        "sweep-replay" => sweep_replay(quick),
        "prior-reuse" => prior_reuse(quick),
        "topo-route" => topo_route(quick),
        "many-flow" => many_flow(quick),
        "obs-overhead" => obs_overhead(quick),
        "planner-decide" => planner_decide(quick),
        _ => return None,
    })
}

/// A shipped spec (`experiments/specs/<name>.toml`), which the sweep
/// suites shrink with the [`SweepGrid`] override methods.
fn shipped(name: &str) -> SweepGrid {
    load_shipped(name).unwrap_or_else(|e| panic!("shipped spec {name:?}: {e}"))
}

fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn bencher(quick: bool) -> Bencher {
    Bencher::new(if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::full()
    })
}

/// Event-queue churn: interleaved pushes and pops through the
/// deterministic min-heap, wave-shaped so the heap repeatedly grows and
/// drains the way a busy multi-flow simulation drives it.
fn event_queue(quick: bool) -> SuiteReport {
    let n: u64 = if quick { 20_000 } else { 500_000 };
    let b = Bencher::new(bencher(quick).config.iters(if quick { 2 } else { 5 }));
    let mut report = SuiteReport::new("event-queue", mode(quick));
    report.results.push(b.measure("churn", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(0xE0);
        let mut now = Time::ZERO;
        let mut acc = 0u64;
        let mut i = 0u64;
        while i < n {
            for _ in 0..64.min(n - i) {
                let at = now + Dur::from_micros(rng.uniform_u64(0, 1_000_000));
                q.push(at, i);
                i += 1;
            }
            while let Some((t, e)) = q.pop() {
                now = t;
                acc ^= e;
            }
        }
        black_box(acc);
        WorkCounters::default()
    }));
    report
}

/// `RateProcess::Trace` service integration: piecewise-exact
/// `service_end` over the shipped LTE-like fade trace (loop policy), at
/// start offsets that exercise mid-segment starts, boundary crossings,
/// and whole-cycle fast-forwarding — plus the binary-searched `rate_at`
/// lookup on its own.
fn rate_trace(quick: bool) -> SuiteReport {
    let n: u64 = if quick { 50_000 } else { 1_000_000 };
    let path = experiments_dir().join("traces/lte-fade.csv");
    let csv = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let process = RateProcess::Trace {
        label: "lte-fade".into(),
        samples: traces::parse_trace_csv(&csv).unwrap_or_else(|e| panic!("{}:{e}", path.display())),
        end: TraceEnd::Loop,
    };
    let b = Bencher::new(bencher(quick).config.iters(if quick { 2 } else { 5 }));
    let mut report = SuiteReport::new("rate-trace", mode(quick));
    report.results.push(b.measure("service-end", {
        let process = process.clone();
        move || {
            let mut acc = 0u64;
            for i in 0..n {
                let start = Time::from_micros(i.wrapping_mul(37_137) % 120_000_000);
                let bits = Bits::new(12_000 + (i % 5) * 3_000);
                acc ^= process.service_end(start, bits).as_micros();
            }
            black_box(acc);
            WorkCounters::default()
        }
    }));
    report.results.push(b.measure("rate-at", move || {
        let mut acc = 0u64;
        for i in 0..n {
            let t = Time::from_micros(i.wrapping_mul(91_997) % 240_000_000);
            acc ^= process.rate_at(t).as_bps();
        }
        black_box(acc);
        WorkCounters::default()
    }));
    report
}

/// One scripted-ping run spec over the fine link-rate prior — the
/// workload that isolates belief-update cost (EXT-C's regime).
fn belief_run(sender: SenderSpec, duration: Dur) -> RunSpec {
    let spec = ScenarioSpec {
        name: "perf-belief".into(),
        topology: TopologySpec::Model(augur_elements::ModelParams::paper_ground_truth()),
        prior: PriorSpec::FineLinkRate {
            n: 201,
            lo_bps: 8_000,
            hi_bps: 16_000,
        },
        sender,
        workload: WorkloadSpec::ScriptedPing {
            interval: Dur::from_millis(250),
        },
        duration,
        base_seed: 0xBE11EF,
        observe: ObserveSpec::default(),
    };
    RunSpec {
        index: 0,
        seed: SimRng::derive_seed(spec.base_seed, 0),
        spec,
        coords: Vec::new(),
    }
}

/// Exact-vs-particle belief update: the same scripted workload driven
/// through the exact enumeration engine and the bootstrap particle
/// filter. `hypothesis_updates` counts trajectories advanced on each
/// side; `particle_resamples` shows on the particle side only.
fn belief_update(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 5 } else { 30 });
    let exact = belief_run(
        SenderSpec::IsenderExact {
            alpha: 1.0,
            latency_penalty: 0.0,
            max_branches: 2_000,
        },
        duration,
    );
    let particle = belief_run(
        SenderSpec::IsenderParticle {
            alpha: 1.0,
            latency_penalty: 0.0,
            n_particles: 256,
        },
        duration,
    );
    let b = bencher(quick);
    let mut report = SuiteReport::new("belief-update", mode(quick));
    report.results.push(b.measure("exact", move || {
        black_box(execute_run(&exact));
        WorkCounters::default()
    }));
    report.results.push(b.measure("particle", move || {
        black_box(execute_run(&particle));
        WorkCounters::default()
    }));
    report
}

/// Fork throughput of the structure-shared `Network` representation.
/// `state-clone` clones one Figure-2 network repeatedly — each clone
/// copies only per-element state and bumps the shared-structure refcount,
/// so `state_clones` is the pinned counter and `structures_built` must
/// stay zero inside the loop. `structure-build` runs the full builder
/// each time (validation, routing, decomposition) and pins
/// `structures_built`. `belief-fork` clones a prototype exact belief and
/// drives it through no-ACK windows that force choice forks: every fork
/// is a state-only hypothesis clone, which is exactly the operation the
/// split representation exists to make cheap.
fn belief_fork(quick: bool) -> SuiteReport {
    let clones: u64 = if quick { 256 } else { 8_192 };
    let builds: u64 = if quick { 32 } else { 256 };
    let reps: u64 = if quick { 4 } else { 16 };
    let secs: u64 = if quick { 6 } else { 10 };
    let b = bencher(quick);
    let mut report = SuiteReport::new("belief-fork", mode(quick));
    let proto = augur_elements::build_model(augur_elements::ModelParams::paper_ground_truth()).net;
    report.results.push(b.measure("state-clone", {
        let proto = proto.clone();
        move || {
            let before = perf::snapshot();
            for _ in 0..clones {
                black_box(proto.clone());
            }
            perf::snapshot().since(&before)
        }
    }));
    report.results.push(b.measure("structure-build", move || {
        let before = perf::snapshot();
        for _ in 0..builds {
            black_box(augur_elements::build_model(
                augur_elements::ModelParams::paper_ground_truth(),
            ));
        }
        perf::snapshot().since(&before)
    }));
    report.results.push(b.measure("belief-fork", move || {
        let before = perf::snapshot();
        let proto = ModelPrior::small().belief(BeliefConfig {
            max_branches: 64,
            ..BeliefConfig::default()
        });
        for _ in 0..reps {
            let mut belief = proto.clone();
            for s in 1..=secs {
                let t = Time::from_secs(s);
                belief.inject(Packet::new(
                    FlowId::SELF,
                    s - 1,
                    Bits::from_bytes(1_500),
                    Time::from_secs(s - 1),
                ));
                // No ACKs: lossless hypotheses die, lossy ones fold the
                // missing ACK into their weights, and the intermittent
                // gate keeps forking epoch decisions up to the cap.
                belief
                    .advance(t, &[])
                    .expect("lossy hypotheses survive no-ACK windows");
            }
            black_box(belief.branch_count());
        }
        perf::snapshot().since(&before)
    }));
    report
}

/// End-to-end `fig3` sweep throughput, and the measured prior-prototype
/// reuse win. `serial` executes the whole replicate sweep through
/// [`SweepRunner`] — the real workload, with its full counter
/// fingerprint. `cold` vs `shared` then isolate the startup cost the
/// [`augur_scenario::PriorCache`] removes: both construct every run's
/// belief engine, `cold` enumerating the paper prior's ~4,800 hypothesis
/// networks from scratch per run (the pre-cache behavior) and `shared`
/// enumerating once and cloning prototypes. Run *execution* is identical
/// either way — a cloned prototype is bit-identical to a fresh build —
/// so construction is exactly where the sweeps differ, and measuring it
/// directly keeps the ratio clear of the per-run belief-update work that
/// dominates end-to-end wall time on long horizons.
fn sweep_fig3(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 1 } else { 2 });
    let branches = if quick { 64 } else { 256 };
    // Replicate each α three times: all twelve runs share one prior, so
    // the shared path enumerates it once where cold enumerates it per
    // run — the CI-pinned 12× `networks_built` gap.
    let mut grid = shipped("fig3");
    grid.set_duration(duration);
    grid.set_max_branches(branches);
    let runs = grid.axis(Axis::Seeds(3)).expand();
    let b = bencher(quick);
    let mut report = SuiteReport::new("sweep-fig3", mode(quick));
    report.results.push(b.measure("serial", {
        let runs = runs.clone();
        move || SweepRunner::serial().run(&runs).total_work()
    }));
    measure_construction_cold_vs_shared(&mut report, quick, runs, branches);
    report
}

/// Construct every run's belief engine twice: `cold` enumerates the
/// run's prior from scratch each time (an empty
/// [`augur_scenario::PriorCache`] — the pre-cache behavior), `shared`
/// builds the cache once per iteration and clones its prototypes.
/// Derives the advisory wall-time speedup and the deterministic count
/// of prior enumerations the cache removed.
fn measure_construction_cold_vs_shared(
    report: &mut SuiteReport,
    quick: bool,
    runs: Vec<RunSpec>,
    branches: usize,
) {
    // Extra batches: the advisory speedup is a ratio of paired samples,
    // so both sides get enough pairs to shrug off a noisy batch.
    let b = Bencher::new(bencher(quick).config.batches(if quick { 7 } else { 10 }));
    let (cold_m, shared_m) = b.measure_interleaved(
        "cold",
        {
            let runs = runs.clone();
            let empty = PriorCache::empty();
            move || {
                for run in &runs {
                    black_box(spec_belief_in(&run.spec, branches, &empty));
                }
                WorkCounters::default()
            }
        },
        "shared",
        move || {
            let cache = PriorCache::for_runs(&runs);
            for run in &runs {
                black_box(spec_belief_in(&run.spec, branches, &cache));
            }
            WorkCounters::default()
        },
    );
    derive_reuse(report, cold_m, shared_m);
}

/// Measure a run list end to end, twice: `cold` executes each run
/// standalone (every run re-enumerates its prior from scratch — the
/// pre-cache behavior), `shared` executes the same list through
/// [`SweepRunner`] and its [`augur_scenario::PriorCache`]. Derives the
/// advisory wall-time speedup and the deterministic count of prior
/// enumerations the cache removed.
fn measure_cold_vs_shared(report: &mut SuiteReport, b: &Bencher, runs: Vec<RunSpec>) {
    let (cold_m, shared_m) = b.measure_interleaved(
        "cold",
        {
            let runs = runs.clone();
            move || {
                for run in &runs {
                    black_box(execute_run(run));
                }
                WorkCounters::default()
            }
        },
        "shared",
        move || SweepRunner::serial().run(&runs).total_work(),
    );
    derive_reuse(report, cold_m, shared_m);
}

/// Push a `cold`/`shared` measurement pair and derive the reuse
/// headline numbers. Both measurements ran with interleaved batches
/// (machine noise is bursty, so cold/shared are sampled as
/// adjacent-in-time pairs instead of two back-to-back blocks that would
/// hand slow drift entirely to one side), so the speedup is the median
/// of the paired per-batch ratios: each pair ran under near-identical
/// machine conditions, so a load burst inflates both sides of its pair
/// and cancels in the ratio, where a ratio of overall medians would
/// swallow the burst whole.
fn derive_reuse(report: &mut SuiteReport, cold_m: Measurement, shared_m: Measurement) {
    let paired: Vec<f64> = cold_m
        .batch_secs
        .iter()
        .zip(&shared_m.batch_secs)
        .map(|(c, s)| c / s)
        .collect();
    let saved =
        cold_m.work_per_batch.networks_built as f64 - shared_m.work_per_batch.networks_built as f64;
    report.results.push(cold_m);
    report.results.push(shared_m);
    report.derive("prior_reuse_speedup", median(&paired));
    report.derive("networks_built_saved", saved);
}

/// Median of a non-empty slice (mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The headline measurement of the sweep-level compute-reuse item: a
/// replicate sweep of short particle-sender runs over the paper's
/// ~4,800-hypothesis prior. The particle filter samples its population
/// from a *borrowed* prior, so with the cache each run clones only
/// `n_particles` networks where the cold path builds the full grid —
/// prior enumeration dominates short runs, and the sweep-level reuse
/// shows up directly as end-to-end wall-time speedup. (Exact-belief
/// sweeps like `sweep-fig3` keep the same `networks_built` saving, but
/// each run still clones the full hypothesis set it will mutate, so
/// their wall-time win is small.)
fn prior_reuse(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 1 } else { 3 });
    let replicates = if quick { 8 } else { 16 };
    let mut base = ScenarioSpec::paper_baseline("prior-reuse");
    base.duration = duration;
    base.sender = SenderSpec::IsenderParticle {
        alpha: 1.0,
        latency_penalty: 0.0,
        n_particles: 64,
    };
    let runs = SweepGrid::new(base).axis(Axis::Seeds(replicates)).expand();
    let b = bencher(quick);
    let mut report = SuiteReport::new("prior-reuse", mode(quick));
    measure_cold_vs_shared(&mut report, &b, runs);
    report
}

/// End-to-end `replay-cellular` sweep throughput: TCP Reno/CUBIC over
/// the LTE-like path replaying both shipped rate traces across three
/// queue disciplines — the trace-integration hot path under a real
/// workload.
fn sweep_replay(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 5 } else { 20 });
    let mut grid = shipped("replay-cellular");
    grid.set_duration(duration);
    let runs = grid.expand();
    let n_runs = runs.len();
    let b = bencher(quick);
    let mut report = SuiteReport::new("sweep-replay", mode(quick));
    report.results.push(b.measure("serial", move || {
        SweepRunner::serial().run(&runs).total_work()
    }));
    let serial = report.find("serial").expect("measured");
    report.derive("runs_per_sec", n_runs as f64 / serial.secs_per_iter.median);
    report
}

/// Multi-bottleneck topology routing: compile throughput of the largest
/// shipped builder (a k=4 fat-tree, 36 switches/hosts and 96 links) and
/// end-to-end forwarding work of both shipped graph specs, whose
/// packets route through per-link diverter chains. `packets_forwarded`
/// is the pinned counter — any change to the compiled element layout or
/// the routing fast path moves it.
fn topo_route(quick: bool) -> SuiteReport {
    let compiles = if quick { 20 } else { 200 };
    let duration = Dur::from_secs(if quick { 5 } else { 30 });
    let branches = if quick { 256 } else { 2_000 };
    let b = bencher(quick);
    let mut report = SuiteReport::new("topo-route", mode(quick));
    report.results.push(b.measure("fat-tree-compile", move || {
        let before = perf::snapshot();
        for _ in 0..compiles {
            let topo = augur_topo::fat_tree(
                4,
                &[(0, 15), (1, 2), (4, 6), (8, 9)],
                BitRate::from_bps(96_000),
                Dur::from_millis(1),
                Bits::new(96_000),
                Bits::from_bytes(1_500),
            );
            black_box(augur_topo::compile(&topo).expect("shipped builder compiles"));
        }
        perf::snapshot().since(&before)
    }));
    for name in ["dumbbell-cross", "parking-lot"] {
        let mut grid = shipped(name);
        grid.set_duration(duration);
        grid.set_max_branches(branches);
        grid.set_replicates(2);
        let runs = grid.expand();
        report
            .results
            .push(b.measure(name, move || SweepRunner::serial().run(&runs).total_work()));
    }
    let forwarded: u64 = ["dumbbell-cross", "parking-lot"]
        .iter()
        .map(|n| {
            report
                .find(n)
                .expect("measured")
                .work_per_batch
                .packets_forwarded
        })
        .sum();
    let secs: f64 = ["dumbbell-cross", "parking-lot"]
        .iter()
        .map(|n| report.find(n).expect("measured").secs_per_iter.median)
        .sum();
    report.derive("forwards_per_sec", forwarded as f64 / secs);
    report
}

/// One [`augur_core::FlowDriver`] population run: N AIMD agents over the
/// shared many-flow bottleneck for `duration` of simulated time.
fn many_flow_drive(n: usize, duration: Dur) -> Vec<RunTrace> {
    let mut truth = build_many_flow_bottleneck(
        BitRate::from_bps(12_000_000),
        Bits::new(480_000),
        Ppm::ZERO,
        n,
        0xF10,
    );
    let mut store: Vec<AimdSender> = (0..n)
        .map(|_| AimdSender::new(Dur::from_secs(8)).with_packet_size(Bits::from_bytes(1_500)))
        .collect();
    let mut agents: Vec<&mut dyn SenderAgent> = store
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    run_multi_agent(&mut truth, &mut agents, Time::ZERO + duration)
        .expect("belief-free agents cannot die")
}

/// Heap bytes a finished trace retains, excluding the struct itself —
/// the per-flow memory the driver hands back to its caller.
fn trace_heap_bytes(t: &RunTrace) -> usize {
    use std::mem::size_of;
    t.sends.capacity() * size_of::<(u64, Time)>()
        + t.acks.capacity() * size_of::<Observation>()
        + t.drops.capacity() * size_of::<DropRecord>()
        + t.cross_deliveries.capacity() * size_of::<(u64, Time, u64)>()
        + t.wakes.capacity() * size_of::<augur_core::WakeRecord>()
}

/// The many-flow scaling suite: the heap-scheduled [`augur_core::FlowDriver`]
/// driving N ∈ {100, 1k, 10k} AIMD agents over one shared 12 Mbit/s
/// bottleneck. `flow_wakes` is the pinned counter — one per agent
/// dispatch, so any change to the wake heap's scheduling (spurious
/// wakes, missed timers) moves it. Derives the advisory dispatch
/// throughput at N=10k and the deterministic per-flow trace memory of a
/// full N=10k run.
fn many_flow(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 3 } else { 10 });
    let b = bencher(quick);
    let mut report = SuiteReport::new("many-flow", mode(quick));
    for (name, n) in [
        ("drive-100", 100usize),
        ("drive-1k", 1_000),
        ("drive-10k", 10_000),
    ] {
        report.results.push(b.measure(name, move || {
            let before = perf::snapshot();
            black_box(many_flow_drive(n, duration));
            perf::snapshot().since(&before)
        }));
    }
    let at_10k = report.find("drive-10k").expect("measured");
    report.derive(
        "wakes_per_sec",
        at_10k.work_per_batch.flow_wakes as f64 / at_10k.secs_per_iter.median,
    );
    // One standalone N=10k run for the memory half: same seed as the
    // measurement, so the derived value is deterministic.
    let traces = many_flow_drive(10_000, duration);
    let bytes: usize = traces.iter().map(trace_heap_bytes).sum();
    report.derive("per_flow_trace_bytes", bytes as f64 / traces.len() as f64);
    report
}

/// Observability overhead: the smoke run list executed with the sink
/// disarmed (`off` — the no-op fast path every non-observed run takes)
/// and fully armed (`on` — event tracing plus 1 s posterior snapshots;
/// the logs are collected, counted, and dropped). The wall-time ratio
/// is advisory; the hard guarantee is zero counter drift — arming the
/// sink must leave every work counter identical, pinned here by
/// `assert_eq!` on the per-batch counters and re-checked across
/// processes by the CI obs job.
fn obs_overhead(quick: bool) -> SuiteReport {
    let duration = Dur::from_secs(if quick { 5 } else { 20 });
    let mut grid = shipped("smoke");
    grid.set_duration(duration);
    grid.set_replicates(if quick { 2 } else { 4 });
    let runs_off = grid.expand();
    let mut grid_on = grid;
    grid_on.base.observe = ObserveSpec {
        trace_events: true,
        snapshot_every: Some(Dur::from_secs(1)),
    };
    let runs_on = grid_on.expand();
    let b = bencher(quick);
    let mut report = SuiteReport::new("obs-overhead", mode(quick));
    let (off_m, on_m) = b.measure_interleaved(
        "off",
        move || SweepRunner::serial().run(&runs_off).total_work(),
        "on",
        move || {
            let (sweep, events) = SweepRunner::serial().run_observed(&runs_on);
            black_box(events.iter().map(Vec::len).sum::<usize>());
            sweep.total_work()
        },
    );
    assert_eq!(
        off_m.work_per_batch, on_m.work_per_batch,
        "arming observability perturbed the work counters"
    );
    // Paired per-batch ratios, like `derive_reuse`: interleaved batches
    // let machine noise cancel inside each pair.
    let paired: Vec<f64> = on_m
        .batch_secs
        .iter()
        .zip(&off_m.batch_secs)
        .map(|(on, off)| on / off)
        .collect();
    report.results.push(off_m);
    report.results.push(on_m);
    report.derive("obs_overhead_ratio", median(&paired));
    report
}

/// The planner on its own: one `decide` over the 63-branch
/// coexistence prior (24 kbit/s link, 96 kbit buffer: 7 competitor
/// rates × 9 queue fills) at t=0, the decision a `coexist` ISender makes
/// on its first wake. Every branch rolls out its idle baseline and nine
/// send candidates, so `state_clones` is 10 per branch and
/// `events_processed` counts the rollout events; both are pinned.
fn planner_decide(quick: bool) -> SuiteReport {
    let decides: u64 = if quick { 20 } else { 200 };
    let belief = coexist_belief(24_000, 96_000, 50_000);
    let cfg = PlannerConfig::default();
    let utility = DiscountedThroughput::with_alpha(1.0);
    let b = bencher(quick);
    let mut report = SuiteReport::new("planner-decide", mode(quick));
    // The harness captures on-thread work itself.
    report.results.push(b.measure("coexist-prior", move || {
        for _ in 0..decides {
            black_box(decide(
                &belief,
                &cfg,
                &utility,
                FlowId::SELF,
                0,
                Bits::from_bytes(1_500),
            ));
        }
        WorkCounters::default()
    }));
    let m = report.find("coexist-prior").expect("measured");
    report.derive("decides_per_sec", decides as f64 / m.secs_per_iter.median);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_suite_is_rejected() {
        // Running a suite executes it, so the full registry is exercised
        // by the CI perf-smoke job; here we only pin the failure mode.
        assert!(run("no-such-suite", true).is_none());
    }

    #[test]
    fn quick_micro_suites_have_deterministic_counters() {
        // Two back-to-back executions of a suite must produce identical
        // work counters — the property the CI perf-smoke job checks
        // across processes, pinned here in-process for the micro suites
        // and the many-flow driver suite (whose `flow_wakes` counter is
        // the wake-heap scheduling fingerprint).
        for name in ["event-queue", "rate-trace", "many-flow"] {
            let a = run(name, true).unwrap();
            let b = run(name, true).unwrap();
            for (ma, mb) in a.results.iter().zip(&b.results) {
                assert_eq!(ma.name, mb.name);
                assert_eq!(
                    ma.work_per_batch, mb.work_per_batch,
                    "suite {name} measurement {} drifted",
                    ma.name
                );
            }
        }
    }

    #[test]
    fn planner_decide_pins_its_rollout_work() {
        let report = run("planner-decide", true).unwrap();
        let work = report.find("coexist-prior").unwrap().work_per_batch;
        // 20 decides per batch; each clones every one of the 63 branches
        // once for idle and once per send candidate.
        assert_eq!(work.state_clones, 20 * 63 * 10);
        assert_eq!(work.events_processed, 20 * 7_933);
    }

    #[test]
    fn event_queue_counts_every_pop() {
        let report = run("event-queue", true).unwrap();
        let churn = report.find("churn").unwrap();
        // 20_000 pushes per iteration, 2 iterations per batch, every
        // pushed event popped exactly once.
        assert_eq!(churn.work_per_batch.events_processed, 2 * 20_000);
    }

    #[test]
    fn rate_trace_counts_integrations() {
        let report = run("rate-trace", true).unwrap();
        let service = report.find("service-end").unwrap();
        assert_eq!(service.work_per_batch.rate_integrations, 2 * 50_000);
        // The pure lookup performs no integration.
        let lookup = report.find("rate-at").unwrap();
        assert_eq!(lookup.work_per_batch.rate_integrations, 0);
    }
}
