//! The workloads and the two kinds of measurement pass over a grid.
//!
//! A *program pass* is what `SweepRunner::serial` does: `PriorCache::for_runs`
//! once, then `execute_run_traced_in` for every run. It gives `sweep_s` and
//! the rows every check is made on. A *copy pass* executes the same runs
//! through the program's `FlowDriver` with the agents of `crate::agents`,
//! so each `on_wake` can be timed (`wake_us_*`) and, traced, split by
//! layer. Its runs restate the scenario runner's run paths for the three
//! workload kinds and fill the same `RunSummary` fields; `main` fails a
//! run whose copy row or per-run work differs from the program pass's.

use crate::agents::{utility_of, CoexistKnobs, Cycle, Restarting, Timed};
use crate::probe::{self, Name};
use augur_core::{
    build_many_flow_bottleneck, build_shared_bottleneck, jain_index, run_closed_loop,
    run_multi_agent, AimdSender, GroundTruth, ISender, ISenderConfig, MultiFlowTruth,
    RestartingSender, RunTrace, SenderAgent,
};
use augur_elements::DropReason;
use augur_inference::{BeliefError, Observation};
use augur_scenario::spec::ManyFlowSpec;
use augur_scenario::{
    execute_run_traced_in, load_grid, spec_belief_in, spec_ground_truth, PeerSpec, PriorCache,
    RunSpec, RunStatus, RunSummary, ScenarioSpec, SenderSpec, SweepReport, TcpPeerAgent,
    WorkloadSpec,
};
use augur_sim::perf::{self, WorkCounters};
use augur_sim::{Dur, SimRng, Time};
use augur_tcp::{Cubic, Reno, TcpConfig};
use augur_trace::percentile_of_sorted;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// The truth RNG's seed sub-stream, as in the scenario runner.
const STREAM_TRUTH: u64 = 0;

/// One benchmark workload: a shipped spec at a benchmark-chosen length.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: &'static str,
    /// Simulated seconds per run. Chosen so one pass takes a few seconds
    /// of host time and a run of the benchmark holds several rounds.
    pub duration_s: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig3",
        spec: "experiments/specs/fig3.toml",
        duration_s: 300,
    },
    Workload {
        name: "coexist",
        spec: "experiments/specs/coexist-fairness.toml",
        duration_s: 60,
    },
    Workload {
        name: "many-flow",
        spec: "experiments/specs/ext-scaling-flows.toml",
        duration_s: 60,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The spec's own `base_seed`: the default seed and the one the
    /// committed reference rows were made at.
    pub fn default_seed(&self) -> u64 {
        self.grid_at(None).base.base_seed
    }

    fn grid_at(&self, seed: Option<u64>) -> augur_scenario::SweepGrid {
        let mut grid = load_grid(Path::new(self.spec))
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", self.spec));
        grid.base.duration = Dur::from_secs(self.duration_s);
        if let Some(seed) = seed {
            grid.base.base_seed = seed;
        }
        grid
    }

    /// The expanded run list at `seed`.
    pub fn runs(&self, seed: u64) -> Vec<RunSpec> {
        self.grid_at(Some(seed)).expand()
    }
}

/// What one program pass produced.
pub struct ProgramPass {
    pub sweep_s: f64,
    /// Host seconds of each run, in grid order.
    pub run_s: Vec<f64>,
    pub report: SweepReport,
}

/// Run the grid as `SweepRunner::serial` does, timing the runs alone
/// (`time_setup` times set-up). `between` runs untimed after each run.
pub fn program_pass(w: &Workload, seed: u64, mut between: impl FnMut()) -> ProgramPass {
    let runs = w.runs(seed);
    let priors = PriorCache::for_runs(&runs);
    let mut run_s = Vec::with_capacity(runs.len());
    let summaries: Vec<RunSummary> = runs
        .iter()
        .map(|run| {
            let t = Instant::now();
            let summary = execute_run_traced_in(run, &priors).0;
            run_s.push(t.elapsed().as_secs_f64());
            between();
            summary
        })
        .collect();
    ProgramPass {
        sweep_s: run_s.iter().sum(),
        run_s,
        report: SweepReport { runs: summaries },
    }
}

/// Host seconds of one stand-alone set-up: grid load, prior enumeration
/// and every run's ground-truth build. The runner builds each truth
/// inside its run, so the truths are built here one at a time, and each
/// is dropped before the next, as the runner holds one truth per worker.
pub fn time_setup(w: &Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let runs = w.runs(seed);
    std::hint::black_box(PriorCache::for_runs(&runs));
    for run in &runs {
        std::hint::black_box(build_truth(run));
    }
    t.elapsed().as_secs_f64()
}

/// What one copy pass produced.
pub struct Pass {
    pub sweep_s: f64,
    pub report: SweepReport,
    pub record: probe::Record,
}

/// Run one copy pass of `w` at `seed`; `traced` records every span.
pub fn pass(w: &Workload, seed: u64, traced: bool) -> Pass {
    probe::begin_pass(traced);
    let (sweep_s, report) = probe::span(Name::Pass, || {
        let (runs, priors) = probe::span(Name::Setup, || {
            let runs = probe::span(Name::Grid, || w.runs(seed));
            let priors = probe::span(Name::PriorEnum, || PriorCache::for_runs(&runs));
            (runs, priors)
        });
        let t = Instant::now();
        let summaries: Vec<RunSummary> = runs
            .iter()
            .map(|run| {
                probe::set_run(Some(run.index));
                let summary = probe::span(Name::Run, || {
                    let before = perf::snapshot();
                    let truth = probe::span(Name::TruthBuild, || build_truth(run));
                    let mut s = execute(run, truth, &priors);
                    s.work = perf::snapshot().since(&before);
                    s
                });
                probe::set_run(None);
                summary
            })
            .collect();
        let sweep_s = t.elapsed().as_secs_f64();
        let report = SweepReport { runs: summaries };
        probe::span(Name::Report, || {
            std::hint::black_box(report.to_csv_string())
        });
        (sweep_s, report)
    });
    Pass {
        sweep_s,
        report,
        record: probe::end_pass(),
    }
}

/// A run's ground truth, built at the start of the run.
enum Truth {
    Single(GroundTruth),
    Multi(MultiFlowTruth),
}

fn build_truth(run: &RunSpec) -> Truth {
    let spec = &run.spec;
    let seed = SimRng::derive_seed(run.seed, STREAM_TRUTH);
    match &spec.workload {
        WorkloadSpec::ClosedLoop => Truth::Single(spec_ground_truth(spec, run.seed)),
        WorkloadSpec::Coexist(cx) => {
            let m = spec.topology.model("coexist workload");
            Truth::Multi(build_shared_bottleneck(
                m.link_rate,
                m.buffer_capacity,
                m.loss,
                1 + cx.peers.len(),
                seed,
            ))
        }
        WorkloadSpec::ManyFlows(mf) => {
            let m = spec.topology.model("many-flows workload");
            Truth::Multi(build_many_flow_bottleneck(
                m.link_rate,
                m.buffer_capacity,
                m.loss,
                mf.flows,
                seed,
            ))
        }
        other => panic!("workload kind {other:?} is not benchmarked"),
    }
}

fn execute(run: &RunSpec, truth: Truth, priors: &PriorCache) -> RunSummary {
    match (truth, &run.spec.workload) {
        (Truth::Single(truth), WorkloadSpec::ClosedLoop) => closed_loop(run, truth, priors),
        (Truth::Multi(truth), WorkloadSpec::Coexist(_)) => coexist(run, truth),
        (Truth::Multi(truth), WorkloadSpec::ManyFlows(mf)) => many_flow(run, truth, mf),
        _ => unreachable!("ground truth built for another workload kind"),
    }
}

/// The sender knobs of an exact-belief ISender spec.
fn isender_knobs(spec: &ScenarioSpec) -> (f64, f64, usize) {
    match spec.sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            max_branches,
        } => (alpha, latency_penalty, max_branches),
        ref other => panic!("benchmark needs an exact ISender, got {}", other.label()),
    }
}

fn closed_loop(run: &RunSpec, mut truth: GroundTruth, priors: &PriorCache) -> RunSummary {
    let spec = &run.spec;
    let (alpha, latency_penalty, max_branches) = isender_knobs(spec);
    let t_end = Time::ZERO + spec.duration;
    let sender = probe::span(Name::AgentBuild, || {
        ISender::new(
            spec_belief_in(spec, max_branches, priors),
            utility_of(alpha, latency_penalty),
            ISenderConfig {
                packet_size: spec.topology.packet_size(),
                ..ISenderConfig::default()
            },
        )
    });
    let (result, sends) = if probe::traced() {
        let mut agent = Timed::isender(Cycle::new(sender));
        let result = probe::span(Name::Drive, || {
            run_closed_loop(&mut truth, &mut agent, t_end)
        });
        (result, agent.agent.sent_log.len())
    } else {
        let mut agent = Timed::isender(sender);
        let result = probe::span(Name::Drive, || {
            run_closed_loop(&mut truth, &mut agent, t_end)
        });
        (result, agent.agent.sent_log.len())
    };
    probe::span(Name::Summarize, || {
        let mut summary = blank_summary(run);
        summary.sends = sends as u64;
        match result {
            Ok(trace) => summarize_closed_loop(&mut summary, &trace, spec, alpha),
            Err(_) => summary.status = RunStatus::BeliefDied,
        }
        summary
    })
}

fn coexist(run: &RunSpec, mut truth: MultiFlowTruth) -> RunSummary {
    let spec = &run.spec;
    let m = spec.topology.model("coexist workload");
    let (alpha, latency_penalty, max_branches) = isender_knobs(spec);
    let WorkloadSpec::Coexist(cx) = &spec.workload else {
        unreachable!("coexist run over another workload")
    };
    let knobs = |alpha: f64, latency_penalty: f64| CoexistKnobs {
        link_bps: m.link_rate.as_bps(),
        buffer_bits: m.buffer_capacity.as_u64(),
        max_branches,
        alpha,
        latency_penalty,
        packet_size: m.packet_size,
    };
    let mut all = vec![knobs(alpha, latency_penalty)];
    for p in &cx.peers {
        match *p {
            PeerSpec::Isender { alpha } => all.push(knobs(alpha, 0.0)),
            ref other => panic!(
                "benchmark coexist peers are ISenders, got {}",
                other.label()
            ),
        }
    }
    let t_end = Time::ZERO + spec.duration;
    let (result, restarts) = if probe::traced() {
        let mut agents: Vec<Timed<Restarting>> = probe::span(Name::AgentBuild, || {
            all.iter()
                .map(|k| Timed::isender(Restarting::new(*k)))
                .collect()
        });
        let result = drive_multi(&mut truth, &mut agents, t_end);
        let restarts: Vec<usize> = agents.iter().map(|a| a.agent.restarts).collect();
        (result, restarts)
    } else {
        let mut agents: Vec<Timed<RestartingSender>> = probe::span(Name::AgentBuild, || {
            all.iter().map(|k| Timed::isender(k.restarting())).collect()
        });
        let result = drive_multi(&mut truth, &mut agents, t_end);
        let restarts: Vec<usize> = agents.iter().map(|a| a.agent.restarts).collect();
        (result, restarts)
    };
    probe::span(Name::Summarize, || {
        let mut summary = blank_summary(run);
        summary.peer = cx.label();
        match result {
            Ok(traces) => {
                summarize_multi_flow(
                    &mut summary,
                    traces,
                    spec.duration.as_secs_f64(),
                    m.packet_size.as_f64(),
                    alpha,
                );
                summary.restarts_a = Some(restarts[0] as u64);
                summary.restarts_b = Some(restarts[1..].iter().map(|&r| r as u64).sum());
            }
            Err(_) => summary.status = RunStatus::BeliefDied,
        }
        summary
    })
}

/// A belief-free many-flow agent. Stored inline, without a box per
/// agent, as the scenario runner stores its peers.
#[allow(clippy::large_enum_variant)]
enum Peer {
    Aimd(AimdSender),
    Tcp(TcpPeerAgent),
}

impl Peer {
    fn agent(&mut self) -> &mut dyn SenderAgent {
        match self {
            Peer::Aimd(a) => a,
            Peer::Tcp(t) => t,
        }
    }
}

impl SenderAgent for Peer {
    fn own_flow(&self) -> augur_sim::FlowId {
        match self {
            Peer::Aimd(a) => a.own_flow(),
            Peer::Tcp(t) => t.own_flow(),
        }
    }

    fn on_wake(
        &mut self,
        now: Time,
        acks: &[Observation],
    ) -> Result<augur_core::WakeOutcome, BeliefError> {
        self.agent().on_wake(now, acks)
    }

    fn population(&self) -> usize {
        0
    }

    fn effective_population(&self) -> f64 {
        0.0
    }
}

fn many_flow(run: &RunSpec, mut truth: MultiFlowTruth, mf: &ManyFlowSpec) -> RunSummary {
    let spec = &run.spec;
    let m = spec.topology.model("many-flows workload");
    let tcp = |max_window: u64, cc: Box<dyn augur_tcp::CongestionControl>| {
        Peer::Tcp(TcpPeerAgent::new(
            TcpConfig {
                packet_size: m.packet_size,
                max_window,
                ..TcpConfig::default()
            },
            cc,
        ))
    };
    let mut agents: Vec<Timed<Peer>> = probe::span(Name::AgentBuild, || {
        (0..mf.flows)
            .map(|i| {
                Timed::peer(match mf.mix[i % mf.mix.len()] {
                    PeerSpec::Aimd { timeout } => {
                        Peer::Aimd(AimdSender::new(timeout).with_packet_size(m.packet_size))
                    }
                    PeerSpec::TcpReno { max_window } => tcp(max_window, Box::<Reno>::default()),
                    PeerSpec::TcpCubic { max_window } => tcp(max_window, Box::<Cubic>::default()),
                    PeerSpec::Isender { .. } => unreachable!("rejected at spec decode"),
                })
            })
            .collect()
    });
    let t_end = Time::ZERO + spec.duration;
    let result = drive_multi(&mut truth, &mut agents, t_end);
    probe::span(Name::Summarize, || {
        let mut summary = blank_summary(run);
        summary.sender = "many-flow".to_string();
        summary.peer = mf.label();
        match result {
            Ok(traces) => summarize_multi_flow(
                &mut summary,
                traces,
                spec.duration.as_secs_f64(),
                m.packet_size.as_f64(),
                1.0,
            ),
            Err(_) => summary.status = RunStatus::BeliefDied,
        }
        summary
    })
}

fn drive_multi<A: SenderAgent>(
    truth: &mut MultiFlowTruth,
    agents: &mut [A],
    t_end: Time,
) -> Result<Vec<RunTrace>, BeliefError> {
    let mut table: Vec<&mut dyn SenderAgent> = agents
        .iter_mut()
        .map(|a| a as &mut dyn SenderAgent)
        .collect();
    probe::span(Name::Drive, || run_multi_agent(truth, &mut table, t_end)).map_err(|e| match e {
        augur_core::DriverError::Belief(b) => b,
        other => panic!("flow table mismatch: {other}"),
    })
}

// The summaries below restate the scenario runner's private
// summarisation for the three workload kinds; every measurement checks
// the resulting rows against the program pass's byte for byte.

fn blank_summary(run: &RunSpec) -> RunSummary {
    RunSummary {
        index: run.index,
        scenario: run.spec.name.clone(),
        sender: run.spec.sender.label().to_string(),
        peer: String::new(),
        point: run.point(),
        seed: run.seed,
        status: RunStatus::Ok,
        duration_s: run.spec.duration.as_secs_f64(),
        sends: 0,
        delivered: 0,
        throughput_pps: f64::NAN,
        goodput_bps: f64::NAN,
        goodput_b_bps: f64::NAN,
        jain: f64::NAN,
        restarts_a: None,
        restarts_b: None,
        delay_p50_s: f64::NAN,
        delay_p95_s: f64::NAN,
        delay_p99_s: f64::NAN,
        utility: f64::NAN,
        overflow_drops: 0,
        population: 0,
        rate_err_bps: f64::NAN,
        class_goodput: String::new(),
        wall_s: 0.0,
        work: WorkCounters::default(),
    }
}

fn overflow_drops<'a>(drops: impl Iterator<Item = &'a augur_elements::DropRecord>) -> u64 {
    drops.filter(|d| d.reason == DropReason::BufferFull).count() as u64
}

/// Send-to-ack delays of one flow, skipping ACKs whose only recorded send
/// is a later retransmit.
fn sorted_delays(trace: &RunTrace) -> Vec<f64> {
    let send_at: BTreeMap<u64, Time> = trace.sends.iter().map(|&(seq, t)| (seq, t)).collect();
    let mut delays: Vec<f64> = trace
        .acks
        .iter()
        .filter_map(|o| {
            send_at
                .get(&o.seq)
                .filter(|&&t| t <= o.at)
                .map(|t| o.at.since(*t).as_secs_f64())
        })
        .collect();
    delays.sort_by(|a, b| a.total_cmp(b));
    delays
}

fn set_delay_percentiles(summary: &mut RunSummary, sorted: &[f64]) {
    if sorted.is_empty() {
        return;
    }
    summary.delay_p50_s = percentile_of_sorted(sorted, 50.0);
    summary.delay_p95_s = percentile_of_sorted(sorted, 95.0);
    summary.delay_p99_s = percentile_of_sorted(sorted, 99.0);
}

fn summarize_closed_loop(
    summary: &mut RunSummary,
    trace: &RunTrace,
    spec: &ScenarioSpec,
    alpha: f64,
) {
    let dur_s = spec.duration.as_secs_f64();
    let pkt_bits = spec.topology.packet_size().as_f64();
    summary.delivered = trace.acks.len() as u64;
    summary.throughput_pps = trace.acks.len() as f64 / dur_s;
    summary.goodput_bps = trace.acks.len() as f64 * pkt_bits / dur_s;
    let cross_bits: u64 = trace.cross_deliveries.iter().map(|(_, _, b)| *b).sum();
    summary.utility = summary.goodput_bps + alpha * cross_bits as f64 / dur_s;
    summary.overflow_drops = overflow_drops(trace.drops.iter());
    set_delay_percentiles(summary, &sorted_delays(trace));
}

fn summarize_multi_flow(
    summary: &mut RunSummary,
    traces: Vec<RunTrace>,
    dur_s: f64,
    pkt_bits: f64,
    alpha: f64,
) {
    let unique_bits = |trace: &RunTrace| {
        let mut seen = BTreeSet::new();
        trace.acks.iter().filter(|o| seen.insert(o.seq)).count() as f64 * pkt_bits
    };
    let rates: Vec<f64> = traces.iter().map(|t| unique_bits(t) / dur_s).collect();
    let (ra, rb) = (rates[0], rates[1..].iter().sum::<f64>());
    summary.sends = traces[0].sends.len() as u64;
    summary.delivered = traces[0].acks.len() as u64;
    summary.throughput_pps = summary.delivered as f64 / dur_s;
    summary.goodput_bps = ra;
    summary.goodput_b_bps = rb;
    summary.jain = jain_index(&rates);
    summary.utility = ra + alpha * rb;
    summary.overflow_drops = overflow_drops(traces.iter().flat_map(|t| t.drops.iter()));
    set_delay_percentiles(summary, &sorted_delays(&traces[0]));
}
