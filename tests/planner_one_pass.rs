//! The planner's one-pass candidate evaluation against its one-candidate
//! reference.
//!
//! [`CandidatePass`] forks every send off one idle trajectory and cuts it
//! off once its state rejoins idle's; [`rollout`] runs each candidate on
//! its own from a fresh clone. The two must agree bit for bit: the same
//! deliveries in the same order with the same probability bits, the same
//! drops, the same utility bits, and — summed over a belief's branches —
//! the same expected utility for every candidate.
//!
//! Model networks are drawn per case: case `k` seeds
//! `SimRng::seed_from_u64(k)`, and every assertion names that seed.
//! Beliefs are taken mid-run from short smoke, coexist and fig3 closed
//! loops.

use augur::core::{
    build_shared_bottleneck, coexist_belief, decide_weighted, rollout, run_multi_agent,
    subsample_weighted, CandidatePass, ISenderConfig, RestartingSender, RolloutReport,
};
use augur::elements::{DelayEl, Diverter, Gate, JitterEl, Loss, Pinger, TraceEnd};
use augur::prelude::*;
use augur::scenario::{experiments_dir, load_shipped, spec_ground_truth, spec_isender, traces};
use augur::sim::perf;

/// Uniform integer in `[lo, hi]`.
fn draw(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    rng.uniform_u64(lo, hi)
}

/// The shipped LTE-like fade trace, as a looping link rate.
fn lte_fade() -> RateProcess {
    let path = experiments_dir().join("traces/lte-fade.csv");
    let csv = std::fs::read_to_string(&path).expect("shipped trace");
    RateProcess::Trace {
        label: "lte-fade".into(),
        samples: traces::parse_trace_csv(&csv).expect("shipped trace parses"),
        end: TraceEnd::Loop,
    }
}

/// A random path: cross pinger → gate → buffer → link → [jitter] → loss
/// → [loss] → [delay] → diverter → receivers. The gate switches at
/// random or on a square wave, the buffer is drop-tail, RED or CoDel and
/// may start prefilled, the link is constant (with or without ARQ) or
/// replays the cellular trace. Returns the network, its entry and a
/// description.
fn random_path(rng: &mut SimRng, trace: &RateProcess) -> (Network, NodeId, String) {
    let size = Bits::new(12_000);
    let mut b = NetworkBuilder::new();
    let cross_bps = draw(rng, 1_000, 40_000);
    let cross_start = Time::from_millis(draw(rng, 0, 3_000));
    let pinger = b.add(Element::Pinger(Pinger::from_rate(
        BitRate::from_bps(cross_bps),
        size,
        FlowId::CROSS,
        cross_start,
    )));
    let on = rng.bernoulli(Ppm::from_prob(0.7));
    let (gate, gate_desc) = match draw(rng, 0, 2) {
        0 => (
            Gate::intermittent(
                Dur::from_millis(draw(rng, 500, 20_000)),
                Dur::from_millis(draw(rng, 100, 1_000)),
                on,
            ),
            "intermittent",
        ),
        1 => (
            Gate::square_wave(Dur::from_millis(draw(rng, 1_000, 10_000)), on),
            "square-wave",
        ),
        _ => (
            Gate::square_wave(Dur::from_secs(1_000_000), true),
            "always-on",
        ),
    };
    let gate = b.add(Element::Gate(gate));
    let cap = draw(rng, 2, 12) * 12_000;
    let (buffer, buffer_desc) = match draw(rng, 0, 2) {
        0 => (Buffer::drop_tail(Bits::new(cap)), "drop-tail"),
        1 => (
            Buffer::red(
                Bits::new(cap),
                Bits::new(cap / 4),
                Bits::new(cap * 3 / 4),
                Ppm::from_prob(0.1 * draw(rng, 1, 9) as f64),
                draw(rng, 0, 3) as u32,
            ),
            "red",
        ),
        _ => (
            Buffer::codel(
                Bits::new(cap),
                Dur::from_millis(draw(rng, 50, 2_000)),
                Dur::from_millis(draw(rng, 500, 5_000)),
            ),
            "codel",
        ),
    };
    let buffer = b.add(Element::Buffer(buffer));
    let (link, link_desc) = match draw(rng, 0, 2) {
        0 => (
            Link::constant(BitRate::from_bps(draw(rng, 6_000, 48_000))),
            "constant",
        ),
        1 => (
            Link::new(
                RateProcess::Const(BitRate::from_bps(draw(rng, 6_000, 48_000))),
                Ppm::from_prob(0.05 * draw(rng, 1, 6) as f64),
                Dur::from_millis(draw(rng, 10, 500)),
            ),
            "arq",
        ),
        _ => (Link::new(trace.clone(), Ppm::ZERO, Dur::ZERO), "lte-fade"),
    };
    let link = b.add(Element::Link(link));
    b.connect(pinger, gate);
    b.connect(gate, buffer);
    b.connect(buffer, link);
    let mut tail = link;
    let mut hop = |b: &mut NetworkBuilder, el: Element| {
        let n = b.add(el);
        b.connect(tail, n);
        tail = n;
    };
    let jitter = rng.bernoulli(Ppm::from_prob(0.3));
    if jitter {
        hop(
            &mut b,
            Element::Jitter(JitterEl::new(
                Ppm::from_prob(0.1 * draw(rng, 1, 5) as f64),
                Dur::from_millis(draw(rng, 10, 800)),
            )),
        );
    }
    let losses = draw(rng, 1, 2);
    for _ in 0..losses {
        let p = match draw(rng, 0, 3) {
            0 => Ppm::ZERO,
            _ => Ppm::from_prob(0.05 * draw(rng, 1, 10) as f64),
        };
        hop(&mut b, Element::Loss(Loss { p }));
    }
    if rng.bernoulli(Ppm::from_prob(0.5)) {
        hop(
            &mut b,
            Element::Delay(DelayEl::new(Dur::from_millis(draw(rng, 1, 300)))),
        );
    }
    let div = b.add(Element::Diverter(Diverter { flow: FlowId::SELF }));
    let rx_self = b.add(Element::Receiver(ReceiverEl));
    let rx_cross = b.add(Element::Receiver(ReceiverEl));
    b.connect(tail, div);
    b.connect(div, rx_self);
    b.connect_alt(div, rx_cross);
    let fill = draw(rng, 0, cap / 12_000) * 12_000;
    if fill > 0 {
        b.prefill(buffer, Bits::new(fill), size);
    }
    let desc = format!(
        "{gate_desc} gate, {buffer_desc} buffer ({fill}/{cap} bits), {link_desc} link, \
         jitter {jitter}, {losses} loss element(s), cross {cross_bps} bps"
    );
    (b.build(), buffer, desc)
}

/// A planner config: the default, or a random grid (unsorted, possibly
/// with repeats and a delay at the horizon itself) and horizon.
fn random_config(rng: &mut SimRng) -> PlannerConfig {
    let mut cfg = PlannerConfig::default();
    if rng.bernoulli(Ppm::from_prob(0.5)) {
        let horizon_ms = draw(rng, 1_000, 20_000);
        cfg.horizon = Dur::from_millis(horizon_ms);
        cfg.delay_grid = vec![Dur::ZERO];
        for _ in 0..draw(rng, 0, 9) {
            let d = match draw(rng, 0, 5) {
                0 => horizon_ms,
                1 => 0,
                _ => draw(rng, 0, horizon_ms),
            };
            cfg.delay_grid.push(Dur::from_millis(d));
        }
    }
    cfg
}

/// Every candidate's report from one pass, in visit order.
fn one_pass(
    net: &Network,
    entry: NodeId,
    own_flow: FlowId,
    now: Time,
    cfg: &PlannerConfig,
    seq: u64,
    size: Bits,
) -> Vec<(Option<usize>, RolloutReport)> {
    let mut out = Vec::new();
    CandidatePass::new(now, cfg).run(net, entry, own_flow, seq, size, |c, report| {
        out.push((c, report.clone()));
    });
    out
}

/// The utilities the planner is run with: α = 0, 1 and 2.5, with and
/// without a latency penalty.
fn utilities() -> Vec<DiscountedThroughput> {
    let mut penalized = DiscountedThroughput::with_alpha(1.0);
    penalized.latency_penalty = 0.3;
    vec![
        DiscountedThroughput::own_only(),
        DiscountedThroughput::with_alpha(1.0),
        DiscountedThroughput::with_alpha(2.5),
        penalized,
    ]
}

/// Work the two evaluations did, summed over every comparison.
#[derive(Default)]
struct Work {
    pass_events: u64,
    rollout_events: u64,
}

/// Assert that the pass reproduces `rollout` on every candidate of a
/// decision at `now` on `net`.
#[allow(clippy::too_many_arguments)]
fn assert_pass_matches_rollouts(
    label: &str,
    net: &Network,
    entry: NodeId,
    own_flow: FlowId,
    now: Time,
    cfg: &PlannerConfig,
    seq: u64,
    size: Bits,
    work: &mut Work,
) {
    let t_end = now + cfg.horizon;
    let before = perf::snapshot();
    let pass = one_pass(net, entry, own_flow, now, cfg, seq, size);
    let mid = perf::snapshot();
    let mut wants = Vec::new();
    for c in std::iter::once(None).chain((0..cfg.delay_grid.len()).map(Some)) {
        let send_at = c.map(|i| now + cfg.delay_grid[i]);
        wants.push((c, rollout(net, entry, own_flow, send_at, t_end, seq, size)));
    }
    work.pass_events += mid.since(&before).events_processed;
    work.rollout_events += perf::snapshot().since(&mid).events_processed;

    assert_eq!(
        pass.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        wants.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        "{label}: candidate order"
    );
    for ((c, got), (_, want)) in pass.iter().zip(&wants) {
        let at = format!("{label}, candidate {c:?}");
        assert_eq!(
            got.deliveries.len(),
            want.deliveries.len(),
            "{at}: delivery count"
        );
        for (k, ((gd, gp), (wd, wp))) in got.deliveries.iter().zip(&want.deliveries).enumerate() {
            assert_eq!(gd, wd, "{at}: delivery {k}");
            assert_eq!(
                gp.to_bits(),
                wp.to_bits(),
                "{at}: probability of delivery {k}"
            );
        }
        assert_eq!(got.drops, want.drops, "{at}: drops");
        for u in utilities() {
            assert_eq!(
                u.evaluate(got, now, own_flow).to_bits(),
                u.evaluate(want, now, own_flow).to_bits(),
                "{at}: utility {u:?}"
            );
        }
    }
}

/// The old planner's expected utilities for a decision on `belief`:
/// each candidate's rollout on every planning branch, summed in branch
/// order.
fn reference_eus(
    belief: &Belief<ModelParams>,
    branches: &[(&Hypothesis<ModelParams>, f64)],
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    seq: u64,
    size: Bits,
) -> Vec<u64> {
    let (now, own_flow) = (belief.now(), belief.config().own_flow);
    let t_end = now + cfg.horizon;
    std::iter::once(None)
        .chain(cfg.delay_grid.iter().map(|&d| Some(now + d)))
        .map(|send_at| {
            let mut eu = 0.0;
            for (h, w) in branches {
                let report = rollout(&h.net, belief.entry, own_flow, send_at, t_end, seq, size);
                eu += w * utility.evaluate(&report, now, own_flow);
            }
            eu.to_bits()
        })
        .collect()
}

/// Every candidate's rollout on every planning branch of `belief`, and
/// the decision's expected utilities over them, must match the reference.
fn check_belief(label: &str, belief: &Belief<ModelParams>, seq: u64, size: Bits, work: &mut Work) {
    let cfg = PlannerConfig::default();
    let own_flow = belief.config().own_flow;
    let now = belief.now();
    let branches = subsample_weighted(belief.branches(), 24);
    assert!(!branches.is_empty(), "{label}: empty belief");
    for (i, (h, _)) in branches.iter().enumerate() {
        let at = format!("{label}, branch {i}");
        assert_pass_matches_rollouts(
            &at,
            &h.net,
            belief.entry,
            own_flow,
            now,
            &cfg,
            seq,
            size,
            work,
        );
    }
    for u in utilities() {
        let decision = decide_weighted(&branches, now, belief.entry, &cfg, &u, own_flow, seq, size);
        let got: Vec<u64> = decision
            .evaluations
            .iter()
            .map(|(_, eu)| eu.to_bits())
            .collect();
        let want = reference_eus(belief, &branches, &cfg, &u, seq, size);
        assert_eq!(got, want, "{label}: expected utilities under {u:?}");
    }
}

#[test]
fn one_pass_matches_rollout_on_random_model_networks() {
    let trace = lte_fade();
    let mut work = Work::default();
    for seed in 0..160u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut net, entry, desc) = random_path(&mut rng, &trace);
        // Move to a random decision instant with some of our own packets
        // in flight, the network's choices sampled on the way.
        let now = Time::from_millis(draw(&mut rng, 0, 20_000));
        let sends = draw(&mut rng, 0, 4);
        for seq in 0..sends {
            let at = Time::from_millis(now.as_micros() / 1_000 * (seq + 1) / (sends + 1));
            net.run_until_sampled(at, &mut rng);
            net.inject(entry, Packet::new(FlowId::SELF, seq, Bits::new(12_000), at));
        }
        net.run_until_sampled(now, &mut rng);
        if rng.bernoulli(Ppm::from_prob(0.5)) {
            // Beliefs drain their logs; a caller need not.
            net.take_deliveries();
            net.take_drops();
        }
        let cfg = random_config(&mut rng);
        let label = format!("seed {seed} ({desc}, grid {:?})", cfg.delay_grid);
        assert_pass_matches_rollouts(
            &label,
            &net,
            entry,
            FlowId::SELF,
            now,
            &cfg,
            sends,
            Bits::new(12_000),
            &mut work,
        );
    }
    // The cut-off must actually have engaged.
    assert!(
        work.pass_events < work.rollout_events,
        "pass {} events vs rollouts {}",
        work.pass_events,
        work.rollout_events
    );
}

#[test]
fn one_pass_matches_rollout_on_closed_loop_beliefs() {
    let mut work = Work::default();
    let size = Bits::new(12_000);
    // smoke and fig3: one exact ISender over the Figure-2 ground truth.
    for (name, secs) in [("smoke", [3u64, 9]), ("fig3", [2, 6])] {
        let mut grid = load_shipped(name).expect("shipped spec");
        grid.set_max_branches(2000);
        let spec = &grid.base;
        for (k, t) in secs.into_iter().enumerate() {
            let seed = SimRng::derive_seed(spec.base_seed, k as u64);
            let mut truth = spec_ground_truth(spec, seed);
            let mut sender = spec_isender(spec);
            run_closed_loop(&mut truth, &mut sender, Time::from_secs(t)).expect("belief survives");
            let label = format!("{name} at {t} s (truth seed {seed:#x})");
            check_belief(&label, &sender.belief, sender.next_seq(), size, &mut work);
        }
    }
    // coexist: two restarting ISenders sharing a 24 kbit/s link.
    for (seed, t) in [(0xFA1u64, 5u64), (0xFA2, 12)] {
        let mut truth = build_shared_bottleneck(
            BitRate::from_bps(24_000),
            Bits::new(96_000),
            Ppm::ZERO,
            2,
            seed,
        );
        let sender = || {
            RestartingSender::new(
                Box::new(|| coexist_belief(24_000, 96_000, 256)),
                Box::new(|| {
                    Box::new(DiscountedThroughput::with_alpha(1.0)) as Box<dyn Utility + Send>
                }),
                ISenderConfig::default(),
            )
        };
        let (mut a, mut b) = (sender(), sender());
        run_multi_agent(
            &mut truth,
            &mut [&mut a as &mut dyn SenderAgent, &mut b],
            Time::from_secs(t),
        )
        .expect("coexistence beliefs survive");
        for (flow, s) in [(0, &a), (1, &b)] {
            let label = format!("coexist flow {flow} at {t} s (truth seed {seed:#x})");
            let inner = s.inner();
            check_belief(&label, &inner.belief, inner.next_seq(), size, &mut work);
        }
    }
    assert!(work.pass_events < work.rollout_events);
}
