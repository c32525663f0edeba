//! The sweep executor.
//!
//! [`SweepRunner`] pulls [`RunSpec`]s off a shared work queue onto
//! `std::thread::scope` worker threads. Every run is self-contained: its
//! ground truth, belief engine, and RNGs are all (re)built inside
//! [`execute_run`] from the spec and the run's derived seed, and results
//! land in a per-run slot. No state is shared between runs, so a sweep
//! executed with one worker or N workers produces identical
//! [`SweepReport`]s — the determinism test pins this.

use crate::grid::RunSpec;
use crate::report::{RunStatus, RunSummary, SweepReport};
use crate::spec::{PeerSpec, PriorSpec, ScenarioSpec, SenderSpec, TopologySpec, WorkloadSpec};
use augur_core::{
    build_many_flow_bottleneck, build_shared_bottleneck, coexist_belief, jain_index,
    run_closed_loop, run_multi_agent, AimdSender, DiscountedThroughput, DriverError, FlowEndpoint,
    GroundTruth, ISender, ISenderConfig, MultiFlowTruth, ParticleSender, RestartingSender,
    RunTrace, SenderAgent, Utility, WakeOutcome,
};
use augur_elements::{
    build_cellular_with_buffer, DropReason, DropRecord, ModelParams, FIG2_ENTRY, FIG2_LOSS,
    FIG2_RX_SELF,
};
use augur_inference::{
    Belief, BeliefConfig, BeliefError, Hypothesis, Observation, ParticleConfig, ParticleFilter,
};
use augur_obs::EventRecord;
use augur_sim::perf::{self, Stopwatch, WorkCounters};
use augur_sim::{Dur, FlowId, Packet, SimRng, Time};
use augur_tcp::{Cubic, Reno, TcpConfig, TcpEndpoint, TcpTrace};
use augur_trace::percentile_of_sorted;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Seed sub-stream for the ground-truth network's sampled choices.
const STREAM_TRUTH: u64 = 0;
/// Seed sub-stream for the belief engine (particle sampling/resampling).
const STREAM_ENGINE: u64 = 1;

/// The time-resolved record a run leaves behind, beyond its summary.
/// Figure binaries use it for plots and shape checks; summary-only
/// sweeps drop it as each run completes.
#[derive(Debug, Clone)]
pub enum RunArtifact {
    /// The run kind produces no trace (scripted workloads, which
    /// summarize inline).
    None,
    /// An ISender closed loop's full [`RunTrace`] (for coexistence runs,
    /// the primary flow's).
    ClosedLoop(RunTrace),
    /// A TCP run's [`TcpTrace`] (RTT samples, goodput curve, drops).
    Tcp(TcpTrace),
}

impl RunArtifact {
    /// The closed-loop trace, if this run produced one.
    pub fn into_closed_loop(self) -> Option<RunTrace> {
        match self {
            RunArtifact::ClosedLoop(t) => Some(t),
            _ => None,
        }
    }

    /// The TCP trace, if this run produced one.
    pub fn into_tcp(self) -> Option<TcpTrace> {
        match self {
            RunArtifact::Tcp(t) => Some(t),
            _ => None,
        }
    }
}

/// Shared hypothesis `Network` prototypes, built once per sweep.
///
/// A run's belief engine enumerates its prior into hypotheses, each
/// holding a freshly built [`augur_elements::Network`]. Rebuilding that
/// enumeration inside every run made prior construction the dominant
/// sweep startup cost on big priors (the paper grid is ~4,800 networks
/// *per run*). Hypotheses are values — cloning a prototype yields a
/// network identical to a fresh build — so [`SweepRunner`] builds each
/// distinct [`PriorSpec`]'s prototypes once up front and every run
/// clones them instead.
///
/// Determinism is unaffected: a cloned prototype is bit-identical to the
/// network `PriorSpec::hypotheses` would have built, so summaries and
/// report bytes are byte-for-byte the same with or without the cache
/// (`prior_cache_reuses_prototypes` in the scenario tests pins this).
#[derive(Debug, Clone, Default)]
pub struct PriorCache {
    map: HashMap<PriorSpec, Arc<Vec<Hypothesis<ModelParams>>>>,
}

impl PriorCache {
    /// A cache with no entries: every lookup builds fresh (the behavior
    /// of the standalone [`execute_run`] path).
    pub fn empty() -> PriorCache {
        PriorCache::default()
    }

    /// Build prototypes for every distinct prior the runs' belief
    /// engines will enumerate. Runs whose sender carries no belief over
    /// the scenario prior (TCP senders, coexistence workloads — the
    /// latter derive a dedicated prior from the topology) are skipped.
    pub fn for_runs(runs: &[RunSpec]) -> PriorCache {
        let mut map = HashMap::new();
        for run in runs {
            if !uses_scenario_prior(&run.spec) {
                continue;
            }
            map.entry(run.spec.prior.clone())
                .or_insert_with_key(|prior: &PriorSpec| Arc::new(prior.hypotheses()));
        }
        PriorCache { map }
    }

    /// Number of cached priors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no priors are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The prior's hypotheses: cloned from the shared prototypes on a
    /// cache hit, enumerated from scratch otherwise.
    fn hypotheses(&self, prior: &PriorSpec) -> Vec<Hypothesis<ModelParams>> {
        match self.map.get(prior) {
            Some(protos) => protos.as_ref().clone(),
            None => prior.hypotheses(),
        }
    }

    /// Run `f` over the prior's hypotheses without cloning them (the
    /// particle filter samples from a borrowed prior).
    fn with_hypotheses<R>(
        &self,
        prior: &PriorSpec,
        f: impl FnOnce(&[Hypothesis<ModelParams>]) -> R,
    ) -> R {
        match self.map.get(prior) {
            Some(protos) => f(protos),
            None => f(&prior.hypotheses()),
        }
    }
}

/// Does this scenario's belief engine enumerate `spec.prior`?
fn uses_scenario_prior(spec: &ScenarioSpec) -> bool {
    let belief_sender = matches!(
        spec.sender,
        SenderSpec::IsenderExact { .. } | SenderSpec::IsenderParticle { .. }
    );
    // Coexistence primaries use the dedicated coexistence prior derived
    // from the topology, not the scenario prior.
    belief_sender && !matches!(spec.workload, WorkloadSpec::Coexist(_))
}

/// Executes expanded run lists across worker threads.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Worker thread count (≥ 1).
    pub workers: usize,
    /// Print one progress line per completed run to stderr.
    pub verbose: bool,
    /// Print a compact completed-run ticker to stderr. Stderr-only and
    /// wall-clock-free, so enabling it cannot change stdout, report
    /// bytes, or any counter (pinned by `progress_leaves_report_bytes`).
    pub progress: bool,
}

impl SweepRunner {
    /// One worker: the serial reference execution.
    pub fn serial() -> SweepRunner {
        SweepRunner {
            workers: 1,
            verbose: false,
            progress: false,
        }
    }

    /// One worker per available core.
    pub fn parallel() -> SweepRunner {
        SweepRunner {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            verbose: false,
            progress: false,
        }
    }

    /// An explicit worker count.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> SweepRunner {
        assert!(workers > 0, "a sweep needs at least one worker");
        SweepRunner {
            workers,
            verbose: false,
            progress: false,
        }
    }

    /// Enable per-run progress lines on stderr.
    pub fn verbose(mut self) -> SweepRunner {
        self.verbose = true;
        self
    }

    /// Enable the completed-run ticker on stderr.
    pub fn progress(mut self) -> SweepRunner {
        self.progress = true;
        self
    }

    /// Execute every run, in parallel, and collect summaries in run-index
    /// order. The report is a pure function of the run list: worker count
    /// and scheduling order cannot affect it.
    pub fn run(&self, runs: &[RunSpec]) -> SweepReport {
        self.run_impl(runs, false, false).0
    }

    /// [`SweepRunner::run`], additionally keeping each run's
    /// [`RunArtifact`] (where the run kind produces one) in run-index
    /// order. Artifacts cover the whole simulated duration; summary-only
    /// sweeps should use [`SweepRunner::run`], which drops each artifact
    /// as soon as its run completes.
    pub fn run_traced(&self, runs: &[RunSpec]) -> (SweepReport, Vec<RunArtifact>) {
        let (report, traces, _) = self.run_impl(runs, true, false);
        (report, traces)
    }

    /// [`SweepRunner::run`], additionally keeping each run's structured
    /// event log in run-index order. Runs whose spec arms no observation
    /// channel leave an empty log. The logs are a pure function of the
    /// run list, like the report: any worker count yields byte-identical
    /// JSONL (pinned by the scenario determinism tests).
    pub fn run_observed(&self, runs: &[RunSpec]) -> (SweepReport, Vec<Vec<EventRecord>>) {
        let (report, _, events) = self.run_impl(runs, false, true);
        (report, events)
    }

    /// The worker count actually used for `run_count` runs: the
    /// configured count clamped to the run count (never below one) —
    /// spawning more threads than there are runs buys nothing.
    pub fn effective_workers(&self, run_count: usize) -> usize {
        self.workers.min(run_count).max(1)
    }

    fn run_impl(
        &self,
        runs: &[RunSpec],
        keep_traces: bool,
        keep_events: bool,
    ) -> (SweepReport, Vec<RunArtifact>, Vec<Vec<EventRecord>>) {
        type Slot = Mutex<Option<(RunSummary, RunArtifact, Vec<EventRecord>)>>;
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Slot> = runs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.effective_workers(runs.len());
        // Build each distinct prior's hypothesis prototypes once; every
        // run clones from the shared set instead of re-enumerating.
        let priors = PriorCache::for_runs(runs);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= runs.len() {
                        break;
                    }
                    let (summary, trace, events) = execute_run_observed_in(&runs[i], &priors);
                    let trace = if keep_traces {
                        trace
                    } else {
                        RunArtifact::None
                    };
                    let events = if keep_events { events } else { Vec::new() };
                    if self.verbose {
                        eprintln!(
                            "  [{}/{}] {} {} — {}: {} sends, {} acked, {} events, {:.1}s wall",
                            i + 1,
                            runs.len(),
                            summary.sender,
                            summary.point,
                            summary.status.label(),
                            summary.sends,
                            summary.delivered,
                            summary.work.events_processed,
                            summary.wall_s
                        );
                    }
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.progress {
                        // Completed-run count only — no wall clock, no
                        // rates — so the ticker is deterministic noise-free
                        // stderr and nothing else.
                        eprint!("\r  {finished}/{} runs", runs.len());
                        if finished == runs.len() {
                            eprintln!();
                        }
                    }
                    *slots[i].lock().expect("slot poisoned") = Some((summary, trace, events));
                });
            }
        });
        let mut summaries = Vec::with_capacity(runs.len());
        let mut traces = Vec::with_capacity(runs.len());
        let mut event_logs = Vec::with_capacity(runs.len());
        for slot in slots {
            let (summary, trace, events) = slot
                .into_inner()
                .expect("slot poisoned")
                .expect("every run executed");
            summaries.push(summary);
            traces.push(trace);
            event_logs.push(events);
        }
        (SweepReport { runs: summaries }, traces, event_logs)
    }
}

/// Execute one run to completion and summarize it, building the prior
/// from scratch ([`SweepRunner`] shares prototypes across runs via
/// [`PriorCache`] instead — the `perf` CLI's sweep suite measures the
/// difference).
pub fn execute_run(run: &RunSpec) -> RunSummary {
    execute_run_traced(run).0
}

/// [`execute_run`], additionally returning the run's [`RunArtifact`]
/// (ISender closed loops leave a [`RunTrace`], TCP runs a [`TcpTrace`];
/// scripted workloads summarize inline). Figure binaries use the
/// artifact for time-resolved plots and shape checks on top of the
/// summary.
pub fn execute_run_traced(run: &RunSpec) -> (RunSummary, RunArtifact) {
    execute_run_traced_in(run, &PriorCache::empty())
}

/// [`execute_run_traced`] drawing prior hypotheses from `priors` (cache
/// misses build fresh). Wall time and work-done counters come from the
/// `augur-perf` facade (`augur_sim::perf`): the counter delta around the
/// run is that run's work — runs execute entirely on one thread — and is
/// deterministic for any worker count, unlike the stopwatch reading.
pub fn execute_run_traced_in(run: &RunSpec, priors: &PriorCache) -> (RunSummary, RunArtifact) {
    let (summary, trace, _) = execute_run_observed_in(run, priors);
    (summary, trace)
}

/// [`execute_run_traced_in`], additionally returning the run's
/// structured event log (empty unless the spec's [`crate::ObserveSpec`]
/// arms a channel). The sink is armed for exactly the duration of the
/// run on the executing thread, so per-run logs are independent of
/// worker count and scheduling.
pub fn execute_run_observed_in(
    run: &RunSpec,
    priors: &PriorCache,
) -> (RunSummary, RunArtifact, Vec<EventRecord>) {
    augur_obs::start_run(run.spec.observe.obs_config());
    let watch = Stopwatch::start();
    let counters_before = perf::snapshot();
    let (mut summary, trace) = match (&run.spec.workload, &run.spec.sender) {
        (WorkloadSpec::ClosedLoop, SenderSpec::IsenderExact { .. })
        | (WorkloadSpec::ClosedLoop, SenderSpec::IsenderParticle { .. }) => {
            closed_loop_isender(run, priors)
        }
        (WorkloadSpec::ScriptedPing { interval }, _) => {
            (scripted_ping(run, *interval, priors), RunArtifact::None)
        }
        (WorkloadSpec::ClosedLoop, SenderSpec::TcpReno { .. })
        | (WorkloadSpec::ClosedLoop, SenderSpec::TcpCubic { .. })
        | (WorkloadSpec::Coexist(_), _)
        | (WorkloadSpec::ManyFlows(_), _) => flow_driver_run(run),
    };
    summary.work = perf::snapshot().since(&counters_before);
    // Scripted runs meter their own wall clock (belief updates only);
    // everything else reports whole-run wall time.
    if summary.wall_s == 0.0 {
        summary.wall_s = watch.elapsed_secs();
    }
    let events = augur_obs::finish_run();
    (summary, trace, events)
}

/// A summary skeleton with everything not-yet-measured marked missing.
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

/// The spec's ground truth wrapped for the closed loop, with the truth
/// RNG on the run seed's dedicated sub-stream. Public so figure binaries
/// that need mid-run instrumentation (TAB1's posterior snapshots, TXT1's
/// belief inspection) can drive the exact network a sweep run would use.
pub fn spec_ground_truth(spec: &ScenarioSpec, seed: u64) -> GroundTruth {
    let m = spec.build_truth();
    GroundTruth {
        net: m.net,
        entry: m.entry,
        rx_self: m.rx_self,
        rng: SimRng::derive(seed, STREAM_TRUTH),
    }
}

/// Build the exact belief for a spec. All Figure-2 models share the fixed
/// `FIG2_*` node ids, so no topology probe is built.
pub fn spec_belief(spec: &ScenarioSpec, max_branches: usize) -> Belief<ModelParams> {
    spec_belief_in(spec, max_branches, &PriorCache::empty())
}

/// [`spec_belief`] drawing the prior's hypotheses from `priors` (cache
/// misses enumerate from scratch).
pub fn spec_belief_in(
    spec: &ScenarioSpec,
    max_branches: usize,
    priors: &PriorCache,
) -> Belief<ModelParams> {
    // Every Figure-2 model shares the fixed FIG2_* node ids, so no probe
    // network is needed — but keep the model-topology guard so non-model
    // specs still fail loudly here.
    let _ = spec.topology.model("spec_belief_in");
    Belief::new(
        priors.hypotheses(&spec.prior),
        FIG2_ENTRY,
        FIG2_RX_SELF,
        BeliefConfig {
            max_branches,
            fold_loss_node: Some(FIG2_LOSS),
            ..BeliefConfig::default()
        },
    )
}

/// Build the exact-belief ISender a spec describes.
///
/// # Panics
/// Panics unless the spec's sender is [`SenderSpec::IsenderExact`].
pub fn spec_isender(spec: &ScenarioSpec) -> ISender<ModelParams> {
    match &spec.sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            max_branches,
        } => ISender::new(
            spec_belief(spec, *max_branches),
            utility_of(*alpha, *latency_penalty),
            sender_config(spec),
        ),
        other => panic!("spec_isender over sender {}", other.label()),
    }
}

fn build_filter(
    spec: &ScenarioSpec,
    n_particles: usize,
    seed: u64,
    priors: &PriorCache,
) -> ParticleFilter<ModelParams> {
    let _ = spec.topology.model("build_filter");
    priors.with_hypotheses(&spec.prior, |hyps| {
        ParticleFilter::from_prior(
            hyps,
            FIG2_ENTRY,
            FIG2_RX_SELF,
            ParticleConfig {
                n_particles,
                fold_loss_node: Some(FIG2_LOSS),
                ..ParticleConfig::default()
            },
            SimRng::derive_seed(seed, STREAM_ENGINE),
        )
    })
}

fn utility_of(alpha: f64, latency_penalty: f64) -> Box<DiscountedThroughput> {
    let mut u = DiscountedThroughput::with_alpha(alpha);
    u.latency_penalty = latency_penalty;
    Box::new(u)
}

fn sender_config(spec: &ScenarioSpec) -> ISenderConfig {
    ISenderConfig {
        packet_size: spec.topology.packet_size(),
        ..ISenderConfig::default()
    }
}

fn closed_loop_isender(run: &RunSpec, priors: &PriorCache) -> (RunSummary, RunArtifact) {
    let spec = &run.spec;
    let mut truth = spec_ground_truth(spec, run.seed);
    let t_end = Time::ZERO + spec.duration;

    // The two engines share the decision cycle via SenderAgent; only the
    // belief construction differs.
    let (result, sends, population, alpha) = match &spec.sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            max_branches,
        } => {
            let mut sender = ISender::new(
                spec_belief_in(spec, *max_branches, priors),
                utility_of(*alpha, *latency_penalty),
                sender_config(spec),
            );
            let result = run_closed_loop(&mut truth, &mut sender, t_end);
            (
                result,
                sender.sent_log.len() as u64,
                sender.population() as u64,
                *alpha,
            )
        }
        SenderSpec::IsenderParticle {
            alpha,
            latency_penalty,
            n_particles,
        } => {
            let mut sender = ParticleSender::new(
                build_filter(spec, *n_particles, run.seed, priors),
                utility_of(*alpha, *latency_penalty),
                sender_config(spec),
            );
            let result = run_closed_loop(&mut truth, &mut sender, t_end);
            (
                result,
                sender.sent_log.len() as u64,
                sender.population() as u64,
                *alpha,
            )
        }
        other => unreachable!("closed_loop_isender over {}", other.label()),
    };

    let mut summary = blank_summary(run);
    summary.sends = sends;
    summary.population = population;
    match result {
        Ok(trace) => {
            summarize_closed_loop(&mut summary, &trace, spec, alpha);
            (summary, RunArtifact::ClosedLoop(trace))
        }
        Err(_) => {
            summary.status = RunStatus::BeliefDied;
            (summary, RunArtifact::None)
        }
    }
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
    summary.overflow_drops = overflows(&trace.drops);
    set_delay_percentiles(summary, ack_delays(trace));
}

fn summarize_tcp(summary: &mut RunSummary, trace: &TcpTrace, spec: &ScenarioSpec) {
    let dur_s = spec.duration.as_secs_f64();
    let pkt_bits = spec.topology.packet_size().as_f64();
    let received_bits = trace.goodput.last().map_or(0, |(_, bits)| *bits);
    summary.sends = trace.segments_sent;
    summary.delivered = (received_bits as f64 / pkt_bits) as u64;
    summary.throughput_pps = summary.delivered as f64 / dur_s;
    summary.goodput_bps = received_bits as f64 / dur_s;
    summary.overflow_drops = overflows(&trace.drops);
    let rtts = trace.rtt_samples.iter().map(|(_, r)| r.as_secs_f64());
    set_delay_percentiles(summary, rtts.collect());
}

/// Buffer overflows among `drops`.
fn overflows<'a>(drops: impl IntoIterator<Item = &'a DropRecord>) -> u64 {
    drops
        .into_iter()
        .filter(|d| d.reason == DropReason::BufferFull)
        .count() as u64
}

/// Send-to-acknowledgment delay of every acknowledged packet. A
/// retransmitted seq keeps only its latest send time; an ACK of the
/// original copy can predate that retransmit, so such pairs carry no
/// usable delay and are skipped.
fn ack_delays(trace: &RunTrace) -> Vec<f64> {
    let send_at: BTreeMap<u64, Time> = trace.sends.iter().copied().collect();
    trace
        .acks
        .iter()
        .filter_map(|o| {
            send_at
                .get(&o.seq)
                .filter(|&&t| t <= o.at)
                .map(|t| o.at.since(*t).as_secs_f64())
        })
        .collect()
}

fn set_delay_percentiles(summary: &mut RunSummary, mut delays: Vec<f64>) {
    if delays.is_empty() {
        return; // leave the NaN "missing" markers
    }
    delays.sort_by(|a, b| a.total_cmp(b));
    summary.delay_p50_s = percentile_of_sorted(&delays, 50.0);
    summary.delay_p95_s = percentile_of_sorted(&delays, 95.0);
    summary.delay_p99_s = percentile_of_sorted(&delays, 99.0);
}

/// The belief engines behind one dispatch for the scripted workload.
enum Engine {
    Exact(Belief<ModelParams>),
    Particle(ParticleFilter<ModelParams>),
}

impl Engine {
    fn advance(&mut self, t: Time, acks: &[Observation]) -> bool {
        match self {
            Engine::Exact(b) => b.advance(t, acks).is_ok(),
            Engine::Particle(p) => p.advance(t, acks).is_ok(),
        }
    }

    fn inject(&mut self, pkt: Packet) {
        match self {
            Engine::Exact(b) => b.inject(pkt),
            Engine::Particle(p) => p.inject(pkt),
        }
    }

    fn expected_link_bps(&self) -> f64 {
        let f = |h: &Hypothesis<ModelParams>| h.meta.link_rate.as_bps() as f64;
        match self {
            Engine::Exact(b) => b.expected(f),
            Engine::Particle(p) => p.expected(f),
        }
    }

    fn population(&self) -> usize {
        match self {
            Engine::Exact(b) => b.branch_count(),
            Engine::Particle(p) => p.particles().len(),
        }
    }
}

/// Open-loop scripted drive (EXT-C): transmit every `interval`, update
/// the belief on the resulting acknowledgments, and measure how well the
/// posterior locates the true link rate. TCP senders have no belief to
/// measure, so a scripted TCP spec is an authoring error.
fn scripted_ping(run: &RunSpec, interval: augur_sim::Dur, priors: &PriorCache) -> RunSummary {
    assert!(
        interval > augur_sim::Dur::ZERO,
        "scripted workload needs a positive interval"
    );
    let spec = &run.spec;
    let mut engine = match &spec.sender {
        SenderSpec::IsenderExact { max_branches, .. } => {
            Engine::Exact(spec_belief_in(spec, *max_branches, priors))
        }
        SenderSpec::IsenderParticle { n_particles, .. } => {
            Engine::Particle(build_filter(spec, *n_particles, run.seed, priors))
        }
        other => panic!(
            "scripted workload over belief-free sender {}",
            other.label()
        ),
    };

    let mut truth = spec_ground_truth(spec, run.seed);
    let t_end = Time::ZERO + spec.duration;
    let pkt_size = spec.topology.packet_size();
    let mut summary = blank_summary(run);
    let mut seq = 0u64;
    let mut alive = true;

    let mut t = Time::ZERO;
    loop {
        // Advance ground truth to t, harvesting this window's acks.
        let mut acks: Vec<Observation> = Vec::new();
        truth.net.run_until_sampled(t, &mut truth.rng);
        for (node, d) in truth.net.take_deliveries() {
            if node == truth.rx_self && d.packet.flow == FlowId::SELF {
                acks.push(Observation {
                    seq: d.packet.seq,
                    at: d.at,
                });
            }
        }
        summary.overflow_drops += overflows(&truth.net.take_drops());
        summary.delivered += acks.len() as u64;

        let send = if t < t_end {
            let pkt = Packet::new(FlowId::SELF, seq, pkt_size, t);
            seq += 1;
            Some(pkt)
        } else {
            None
        };

        if alive {
            // Wall-clock here measures the belief update alone — the cost
            // EXT-C studies — not prior construction or truth stepping.
            let update_watch = Stopwatch::start();
            alive = engine.advance(t, &acks);
            if let (true, Some(pkt)) = (alive, send) {
                engine.inject(pkt);
            }
            summary.wall_s += update_watch.elapsed_secs();
        }
        if let Some(pkt) = send {
            summary.sends += 1;
            truth.net.inject(truth.entry, pkt);
            // Settle any synchronous choices the injection reached.
            truth.net.run_until_sampled(t, &mut truth.rng);
        }

        if t >= t_end {
            break;
        }
        t = (t + interval).min(t_end);
    }

    summary.population = engine.population() as u64;
    if alive {
        summary.rate_err_bps = (engine.expected_link_bps()
            - spec.topology.model("scripted workload").link_rate.as_bps() as f64)
            .abs();
        let dur_s = spec.duration.as_secs_f64();
        summary.throughput_pps = summary.delivered as f64 / dur_s;
        summary.goodput_bps = summary.delivered as f64 * pkt_size.as_f64() / dur_s;
    } else {
        summary.status = RunStatus::BeliefDied;
    }
    summary
}

/// TCP on the flow driver: the network-free [`TcpEndpoint`] adapted to
/// the [`SenderAgent`] wake protocol. Deliveries arrive as
/// observations, the endpoint schedules its own reverse-path ACKs and
/// retransmission timers, and the multi-agent loop owns injection. One
/// agent over a one-flow ground truth is a single-flow TCP download
/// (Figure 1); the same agent is a coexistence or many-flow peer.
pub struct TcpPeerAgent {
    ep: TcpEndpoint,
    /// The endpoint's measurements (segments, retransmissions, RTTs).
    pub trace: TcpTrace,
    /// Timer cap when the endpoint has nothing scheduled.
    max_sleep: Dur,
}

impl TcpPeerAgent {
    /// A fresh peer with the given TCP configuration and congestion
    /// control.
    pub fn new(cfg: TcpConfig, cc: Box<dyn augur_tcp::CongestionControl>) -> TcpPeerAgent {
        TcpPeerAgent {
            ep: TcpEndpoint::new(cfg, cc),
            trace: TcpTrace::default(),
            max_sleep: Dur::from_secs(2),
        }
    }
}

impl SenderAgent for TcpPeerAgent {
    fn own_flow(&self) -> FlowId {
        self.ep.cfg().flow
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let (flow, size) = (self.ep.cfg().flow, self.ep.cfg().packet_size);
        for o in acks {
            self.ep
                .on_delivery(Packet::new(flow, o.seq, size, o.at), o.at);
        }
        let sent = self.ep.poll(now, &mut self.trace);
        let next_wake = self
            .ep
            .next_event_time()
            .unwrap_or(now + self.max_sleep)
            .min(now + self.max_sleep);
        Ok(WakeOutcome {
            sent,
            ..WakeOutcome::idle(next_wake)
        })
    }

    fn population(&self) -> usize {
        0
    }

    fn effective_population(&self) -> f64 {
        0.0
    }
}

/// One flow's agent on the flow driver, kept concrete so restart counts
/// and the TCP trace can be read back after the drive.
enum FlowAgent {
    Model(RestartingSender),
    Aimd(AimdSender),
    Tcp(TcpPeerAgent),
}

impl FlowAgent {
    /// The one agent builder: coexist primaries and peers, many-flow mix
    /// entries and the TCP closed loop all come through here. A
    /// belief-carrying (`isender`) agent restarts on the coexistence
    /// prior of `bottleneck` (link bits/s, buffer bits) under the spec's
    /// branch cap, with `latency_penalty` in its utility; every agent
    /// sends the topology's packet size.
    fn build(
        spec: &ScenarioSpec,
        peer: PeerSpec,
        latency_penalty: f64,
        bottleneck: Option<(u64, u64)>,
    ) -> FlowAgent {
        let packet_size = spec.topology.packet_size();
        let tcp = |max_window: u64, cc: Box<dyn augur_tcp::CongestionControl>| {
            FlowAgent::Tcp(TcpPeerAgent::new(
                TcpConfig {
                    packet_size,
                    max_window,
                    ..TcpConfig::default()
                },
                cc,
            ))
        };
        match peer {
            PeerSpec::Isender { alpha } => {
                let (link_bps, buffer_bits) =
                    bottleneck.expect("a belief-carrying flow models a bottleneck");
                let (_, _, max_branches) = coexist_primary_knobs(spec);
                FlowAgent::Model(RestartingSender::new(
                    Box::new(move || coexist_belief(link_bps, buffer_bits, max_branches)),
                    Box::new(move || utility_of(alpha, latency_penalty) as Box<dyn Utility + Send>),
                    sender_config(spec),
                ))
            }
            PeerSpec::Aimd { timeout } => {
                FlowAgent::Aimd(AimdSender::new(timeout).with_packet_size(packet_size))
            }
            PeerSpec::TcpReno { max_window } => tcp(max_window, Box::<Reno>::default()),
            PeerSpec::TcpCubic { max_window } => tcp(max_window, Box::<Cubic>::default()),
        }
    }

    fn agent(&mut self) -> &mut dyn SenderAgent {
        match self {
            FlowAgent::Model(m) => m,
            FlowAgent::Aimd(a) => a,
            FlowAgent::Tcp(t) => t,
        }
    }

    /// Belief restarts so far (0 for belief-free agents).
    fn restarts(&self) -> u64 {
        match self {
            FlowAgent::Model(m) => m.restarts as u64,
            _ => 0,
        }
    }
}

/// The coexistence primary's knobs; the primary must be an exact-belief
/// ISender (its prior is the dedicated coexistence prior).
fn coexist_primary_knobs(spec: &ScenarioSpec) -> (f64, f64, usize) {
    match spec.sender {
        SenderSpec::IsenderExact {
            alpha,
            latency_penalty,
            max_branches,
        } => (alpha, latency_penalty, max_branches),
        ref other => panic!(
            "coexist workload needs an exact-belief ISender primary, got {}",
            other.label()
        ),
    }
}

// The coexistence prior models the competitor as a pinger of 1500-byte
// packets and grids buffer fullness in 1500-byte steps; a different wire
// packet size would make the reported restart counts measure that
// mismatch instead of the adaptive-peer misfit.
fn assert_coexist_packet(packet_size: augur_sim::Bits) {
    assert_eq!(
        packet_size,
        augur_sim::Bits::from_bytes(1_500),
        "coexist workload requires 1500-byte packets (the coexistence prior's grid)"
    );
}

/// Shared multi-flow summarization: per-flow unique-bits goodput
/// (loss-based peers retransmit, and a duplicate delivery of an
/// already-received segment is not useful throughput — the single-sender
/// TCP path dedups the same way via the endpoint's in-order accounting),
/// Jain fairness over every flow, overflow drops across flows, and the
/// primary's delay percentiles. Returns the per-flow rates and the
/// primary's trace.
fn summarize_multi_flow(
    summary: &mut RunSummary,
    mut traces: Vec<RunTrace>,
    spec: &ScenarioSpec,
    alpha: f64,
) -> (Vec<f64>, RunTrace) {
    let dur_s = spec.duration.as_secs_f64();
    let pkt_bits = spec.topology.packet_size().as_f64();
    let unique_bits = |trace: &RunTrace| {
        let mut seen = BTreeSet::new();
        trace.acks.iter().filter(|o| seen.insert(o.seq)).count() as f64 * pkt_bits
    };
    let rates: Vec<f64> = traces.iter().map(|t| unique_bits(t) / dur_s).collect();
    let ra = rates[0];
    let rb: f64 = rates[1..].iter().sum();
    summary.sends = traces[0].sends.len() as u64;
    summary.delivered = traces[0].acks.len() as u64;
    summary.throughput_pps = summary.delivered as f64 / dur_s;
    summary.goodput_bps = ra;
    summary.goodput_b_bps = rb;
    summary.jain = jain_index(&rates);
    summary.utility = ra + alpha * rb;
    summary.overflow_drops = overflows(traces.iter().flat_map(|t| &t.drops));
    set_delay_percentiles(summary, ack_delays(&traces[0]));
    let trace_a = traces.swap_remove(0);
    (rates, trace_a)
}

/// Every run on the multi-agent flow driver, through one path:
///
/// * a TCP closed loop: the spec's TCP sender as the one flow over the
///   model or cellular path (Figure 1, EXT-D);
/// * coexistence (§3.5): the scenario's sender as flow 0 and peer `i`
///   as flow `i + 1`, over the single shared bottleneck a model
///   topology describes, or over a compiled [`augur_topo::GraphTopology`]
///   with one agent per declared flow, each injecting at its own source
///   and traversing its own route;
/// * many-flow scaling: `flows` belief-free agents over one shared
///   bottleneck with a single receiver, agent `i` built from
///   `mix[i % mix.len()]`.
///
/// Each workload supplies only its ground truth and, per flow, the
/// agent kind and the bottleneck a belief-carrying agent models (the
/// slowest link on its own route, with the dedicated coexistence prior
/// — the single-bottleneck abstraction the paper's sender would bring
/// to a network it cannot see into). [`FlowAgent::build`] makes every
/// agent; one drive and one summary tail follow.
fn flow_driver_run(run: &RunSpec) -> (RunSummary, RunArtifact) {
    let spec = &run.spec;
    let seed = SimRng::derive_seed(run.seed, STREAM_TRUTH);
    let agent = |peer, latency_penalty, bottleneck| {
        FlowAgent::build(spec, peer, latency_penalty, bottleneck)
    };
    let (mut truth, mut agents): (MultiFlowTruth, Vec<FlowAgent>) = match &spec.workload {
        WorkloadSpec::ClosedLoop => {
            let (net, entry, rx) = match &spec.topology {
                TopologySpec::Model(_) => {
                    let m = spec.build_truth();
                    (m.net, m.entry, m.rx_self)
                }
                TopologySpec::Cellular { params, queue } => {
                    // The shared cellular path, with the deep buffer's
                    // queue discipline swapped per the spec (FIG1 / EXT-D).
                    let cell =
                        build_cellular_with_buffer(params, queue.build(params.buffer_capacity));
                    (cell.net, cell.entry, cell.rx)
                }
                // Spec decoding rejects tcp senders over graph topologies.
                TopologySpec::Graph(_) => {
                    panic!("tcp senders run over model or cellular topologies, not a graph")
                }
            };
            let truth = MultiFlowTruth::new(
                net,
                vec![FlowEndpoint { entry, rx }],
                SimRng::seed_from_u64(seed),
            )
            .expect("a one-flow table is valid");
            let peer = match spec.sender {
                SenderSpec::TcpReno { max_window } => PeerSpec::TcpReno { max_window },
                SenderSpec::TcpCubic { max_window } => PeerSpec::TcpCubic { max_window },
                ref other => unreachable!("tcp run over {}", other.label()),
            };
            (truth, vec![agent(peer, 0.0, None)])
        }
        WorkloadSpec::ManyFlows(mf) => {
            let m = spec.topology.model("many-flows workload");
            let truth =
                build_many_flow_bottleneck(m.link_rate, m.buffer_capacity, m.loss, mf.flows, seed);
            let agents = (0..mf.flows)
                .map(|i| agent(mf.mix[i % mf.mix.len()], 0.0, None))
                .collect();
            (truth, agents)
        }
        WorkloadSpec::Coexist(cx) => {
            assert!(
                !cx.peers.is_empty(),
                "coexist workload needs at least one peer"
            );
            let (alpha, latency_penalty, _) = coexist_primary_knobs(spec);
            assert_coexist_packet(spec.topology.packet_size());
            let (truth, bottlenecks) = match &spec.topology {
                TopologySpec::Graph(g) => {
                    assert_eq!(
                        g.flows.len(),
                        1 + cx.peers.len(),
                        "graph topology declares {} flows for {} agents (primary + peers)",
                        g.flows.len(),
                        1 + cx.peers.len()
                    );
                    let compiled = augur_topo::compile(g)
                        .unwrap_or_else(|e| panic!("invalid graph topology: {e}"));
                    let bottlenecks: Vec<(u64, u64)> = compiled
                        .bottlenecks
                        .iter()
                        .map(|&l| (g.links[l].rate.as_bps(), g.links[l].buffer.as_u64()))
                        .collect();
                    let table = compiled
                        .entries
                        .iter()
                        .zip(&compiled.rxs)
                        .map(|(&entry, &rx)| FlowEndpoint { entry, rx })
                        .collect();
                    let truth =
                        MultiFlowTruth::new(compiled.net, table, SimRng::seed_from_u64(seed))
                            .unwrap_or_else(|e| panic!("invalid graph flow table: {e}"));
                    (truth, bottlenecks)
                }
                _ => {
                    let m = spec.topology.model("coexist workload");
                    let truth = build_shared_bottleneck(
                        m.link_rate,
                        m.buffer_capacity,
                        m.loss,
                        1 + cx.peers.len(),
                        seed,
                    );
                    let shared = (m.link_rate.as_bps(), m.buffer_capacity.as_u64());
                    (truth, vec![shared; 1 + cx.peers.len()])
                }
            };
            let kinds = std::iter::once((PeerSpec::Isender { alpha }, latency_penalty))
                .chain(cx.peers.iter().map(|&p| (p, 0.0)));
            let agents = kinds
                .zip(bottlenecks)
                .map(|((peer, lp), b)| agent(peer, lp, Some(b)))
                .collect();
            (truth, agents)
        }
        WorkloadSpec::ScriptedPing { .. } => unreachable!("scripted runs drive no agents"),
    };

    let mut table: Vec<&mut dyn SenderAgent> = agents.iter_mut().map(FlowAgent::agent).collect();
    let result = run_multi_agent(&mut truth, &mut table, Time::ZERO + spec.duration);

    let mut summary = blank_summary(run);
    summary.population = agents[0].agent().population() as u64;
    match &spec.workload {
        WorkloadSpec::Coexist(cx) => summary.peer = cx.label(),
        WorkloadSpec::ManyFlows(mf) => {
            // The scenario's `sender` and `prior` sections are inert.
            summary.sender = "many-flow".to_string();
            summary.peer = mf.label();
        }
        _ => {}
    }
    let mut traces = match result {
        Ok(traces) => traces,
        Err(DriverError::Belief(_)) => {
            summary.status = RunStatus::BeliefDied;
            return (summary, RunArtifact::None);
        }
        // Agent/flow counts are validated when the spec is decoded and
        // when the ground truth is built, before any run starts.
        Err(e @ DriverError::AgentCount { .. }) => {
            unreachable!("one agent is built per declared flow: {e}")
        }
    };
    if let (WorkloadSpec::ClosedLoop, [FlowAgent::Tcp(tcp)]) = (&spec.workload, &mut agents[..]) {
        let mut trace = std::mem::take(&mut tcp.trace);
        trace.drops = traces.swap_remove(0).drops;
        summarize_tcp(&mut summary, &trace, spec);
        return (summary, RunArtifact::Tcp(trace));
    }
    // Flow 0's utility weighs the others' goodput by its α; a
    // belief-free flow 0 (many-flow) weighs every flow alike.
    let alpha = match &spec.workload {
        WorkloadSpec::Coexist(_) => coexist_primary_knobs(spec).0,
        _ => 1.0,
    };
    let (rates, trace_a) = summarize_multi_flow(&mut summary, traces, spec, alpha);
    if let WorkloadSpec::Coexist(_) = spec.workload {
        if let TopologySpec::Graph(g) = &spec.topology {
            summary.class_goodput = class_goodput_label(&g.flows, &rates);
        }
        summary.restarts_a = Some(agents[0].restarts());
        summary.restarts_b = Some(agents[1..].iter().map(FlowAgent::restarts).sum());
    }
    (summary, RunArtifact::ClosedLoop(trace_a))
}

/// Aggregate per-flow goodputs by declared flow class, formatted
/// `class=bits_per_s` in class declaration order.
fn class_goodput_label(flows: &[augur_topo::FlowSpec], rates: &[f64]) -> String {
    let mut classes: Vec<(&str, f64)> = Vec::new();
    for (f, r) in flows.iter().zip(rates) {
        match classes.iter_mut().find(|(c, _)| *c == f.class.as_str()) {
            Some((_, sum)) => *sum += r,
            None => classes.push((f.class.as_str(), *r)),
        }
    }
    classes
        .iter()
        .map(|(c, r)| format!("{c}={r:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}
