//! The expected-utility planner — the ISENDER's second job (§3.2).
//!
//! "When the ISENDER wakes up, it makes a list of strategies including
//! sending immediately and at every delay up to the slowest rate the
//! ISENDER could optimally send. We evaluate the consequences of each
//! strategy on each possible network configuration, and choose the
//! strategy that maximizes the expected value of the utility."
//!
//! For every candidate delay δ and every belief branch, the planner rolls
//! the branch's network forward to the action time, injects the
//! hypothetical packet, and continues to a fixed horizon, accumulating the
//! utility of everything delivered. Rollouts are **determinized**
//! (certainty-equivalent): stochastic choices resolve to their nominal
//! outcome, with last-mile loss folded into a per-packet delivery
//! probability instead of a fork. The horizon end is the
//! same for every candidate action, so candidates are compared on equal
//! terms.
//!
//! # One pass per branch
//!
//! [`rollout`] states one candidate's evaluation on its own. The planner
//! evaluates all of a branch's candidates together with a
//! [`CandidatePass`]: one idle trajectory, a send forked off it at each
//! action instant, and each send cut off once its state rejoins idle's —
//! rolling out "only until the consequences of each hypothetically sent
//! packet have ceased to linger" (§3.3). The reports, and so the expected
//! utilities, are bit-identical to per-candidate [`rollout`]s. The
//! `coexist` benchmark workload (60 s) processes 4,078,548 events where
//! per-candidate rollouts processed 8,658,958, with the same 288,350
//! network clones (one per candidate per branch, as before). On a 2-vCPU
//! VM, single-worker `sweep fig3 --duration 100` went from 3.39 s to
//! 2.93 s and `sweep tab1` from 2.65 s to 2.54 s (medians of three).

use crate::utility::{RolloutReport, Utility};
use augur_elements::{ChoiceKind, DropRecord, Network, NodeId, Step};
use augur_inference::{Belief, Hypothesis};
use augur_sim::{Bits, Delivery, Dur, FlowId, Packet, Time};
use std::collections::BTreeMap;
use std::hash::Hash;

/// Planner tuning.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Candidate sleep delays; must include `Dur::ZERO` ("send now").
    pub delay_grid: Vec<Dur>,
    /// Rollout horizon beyond the decision instant. Must exceed the
    /// largest candidate delay by enough for the hypothetical packet's
    /// consequences to play out ("only until the consequences of each
    /// hypothetically sent packet have ceased to linger", §3.3).
    pub horizon: Dur,
    /// Evaluate at most this many of the heaviest branches (weights
    /// renormalized); bounds per-decision cost on wide beliefs.
    pub max_planning_branches: usize,
    /// A send must beat idling by at least this fraction of one packet's
    /// utility (`size_bits × send_margin_frac`). Determinized rollouts
    /// carry small systematic errors (discount asymmetries, gate-stay
    /// nominal outcomes); without a margin those tip razor-edge decisions
    /// toward sending — visibly at α = 1, where displacing a cross packet
    /// with one's own is value-neutral by construction and the paper's
    /// sender declines the swap ("fills in the rest of the link" without
    /// ever overflowing, §4).
    pub send_margin_frac: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            delay_grid: vec![
                Dur::ZERO,
                Dur::from_millis(100),
                Dur::from_millis(250),
                Dur::from_millis(500),
                Dur::from_millis(1_000),
                Dur::from_millis(1_500),
                Dur::from_millis(2_000),
                Dur::from_millis(3_000),
                Dur::from_millis(4_000),
            ],
            horizon: Dur::from_secs(16),
            max_planning_branches: 512,
            send_margin_frac: 0.07,
        }
    }
}

/// What the sender should do now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit immediately.
    SendNow,
    /// Sleep until the given instant (a send at that time looked best),
    /// then reconsider.
    SleepUntil(Time),
    /// No send within the planning horizon improves expected utility:
    /// stay idle until something changes (an ACK or the idle timer).
    Idle,
}

/// A decision together with its evaluation trace (useful for diagnostics
/// and tests). In `evaluations`, `None` is the idle (no-send) baseline.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The chosen action.
    pub action: Action,
    /// Expected utility of the chosen action.
    pub expected_utility: f64,
    /// Expected utility of every candidate `(delay, EU)`; `None` = idle.
    pub evaluations: Vec<(Option<Dur>, f64)>,
}

/// Choose the action that maximizes expected utility for the next packet
/// (`seq`, `size`) given the current belief.
///
/// Candidates are "send after δ" for each grid delay *plus the idle
/// baseline* (send nothing this horizon). Idle wins ties: a send that
/// adds no expected utility — e.g. one that would certainly be dropped —
/// is a wasted transmission, and the sleeping sender re-decides when new
/// information arrives anyway. This is what lets a deferential sender
/// (large α) hold back entirely instead of burning packets (§4: "the
/// sender becomes more and more deferential to the cross traffic").
pub fn decide<M: Clone + Eq + Hash>(
    belief: &Belief<M>,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    let branches = subsample_weighted(belief.branches(), cfg.max_planning_branches);
    decide_weighted(
        &branches,
        belief.now(),
        belief.entry,
        cfg,
        utility,
        own_flow,
        seq,
        size,
    )
}

/// [`decide`] over an explicit weighted branch set — the engine-agnostic
/// core shared by the exact belief and the particle filter. `branches`
/// must already be subsampled/normalized (see [`subsample_weighted`]);
/// `now` is the decision instant, `entry` the injection node.
///
/// Every branch's candidates are rolled out together by one
/// [`CandidatePass`]; each candidate's expected utility accumulates over
/// the branches in order, exactly as if each had its own [`rollout`].
#[allow(clippy::too_many_arguments)]
pub fn decide_weighted<M>(
    branches: &[(&Hypothesis<M>, f64)],
    now: Time,
    entry: NodeId,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    let mut pass = CandidatePass::new(now, cfg);
    // `eus[0]` is idle, `eus[i + 1]` the send after `delay_grid[i]`.
    let mut eus = vec![0.0; cfg.delay_grid.len() + 1];
    for (h, w) in branches {
        pass.run(&h.net, entry, own_flow, seq, size, |candidate, report| {
            let k = candidate.map_or(0, |i| i + 1);
            eus[k] += w * utility.evaluate(report, now, own_flow);
        });
    }

    let idle_eu = eus[0];
    let mut evaluations = vec![(None, idle_eu)];
    // Idle is the incumbent with a margin: a send must clear it by a
    // fraction of one packet's utility. Among sends, the earliest
    // strictly-best delay wins.
    let margin = cfg.send_margin_frac * size.as_f64();
    let mut best: (Option<Dur>, f64) = (None, idle_eu + margin);
    for (&delta, &eu) in cfg.delay_grid.iter().zip(&eus[1..]) {
        evaluations.push((Some(delta), eu));
        if eu > best.1 {
            best = (Some(delta), eu);
        }
    }
    // Report the true EU of the chosen action, not the margin-inflated
    // incumbent value.
    if best.0.is_none() {
        best.1 = idle_eu;
    }
    let (delta, eu) = best;
    Decision {
        action: match delta {
            None => Action::Idle,
            Some(Dur::ZERO) => Action::SendNow,
            Some(d) => Action::SleepUntil(now + d),
        },
        expected_utility: eu,
        evaluations,
    }
}

/// A representative planning subset of at most `max` branches.
///
/// Taking the top-K by weight would be arbitrary when many branches tie
/// (e.g. the uniform prior before any observation) and would bias the
/// expected-utility estimate toward whatever subset survives truncation.
/// Instead we *systematically resample*: `max` equally-spaced positions
/// over the cumulative weights, deterministic (fixed half-step offset),
/// each selected branch weighted by how many positions landed on it. This
/// is an unbiased, reproducible quadrature of the belief — and works the
/// same over an exact belief's branches or a particle population.
pub fn subsample_weighted<M>(branches: &[Hypothesis<M>], max: usize) -> Vec<(&Hypothesis<M>, f64)> {
    let total: f64 = branches.iter().map(|h| h.weight).sum();
    if branches.len() <= max {
        return branches.iter().map(|h| (h, h.weight / total)).collect();
    }
    let mut out: Vec<(&Hypothesis<M>, f64)> = Vec::with_capacity(max);
    let step = total / max as f64;
    let mut cum = 0.0;
    let mut target = step / 2.0;
    let mut placed = 0usize;
    for h in branches {
        cum += h.weight;
        let mut hits = 0usize;
        while placed < max && target <= cum {
            hits += 1;
            placed += 1;
            target += step;
        }
        if hits > 0 {
            out.push((h, hits as f64 / max as f64));
        }
        if placed == max {
            break;
        }
    }
    debug_assert!(!out.is_empty());
    out
}

/// Determinized rollout of one branch: advance to `send_at` (if any),
/// inject the hypothetical packet at `entry`, continue to `t_end`, and
/// report everything delivered or dropped in `[now, t_end]`. With
/// `send_at = None` the rollout is the idle baseline: no hypothetical
/// packet at all.
///
/// This is the one-candidate reference: [`CandidatePass`] produces the
/// same report for every candidate of a decision at once.
pub fn rollout(
    net: &Network,
    entry: NodeId,
    own_flow: FlowId,
    send_at: Option<Time>,
    t_end: Time,
    seq: u64,
    size: Bits,
) -> RolloutReport {
    let mut sim = net.clone();
    // Rollouts replay a cloned hypothetical network; their events must
    // never reach the ground-truth trace log.
    let _quiet = augur_obs::suppress();
    let mut trail = Trail::default();
    if let Some(t_act) = send_at {
        run_determinized(&mut sim, t_act, &mut trail);
        sim.inject(entry, Packet::new(own_flow, seq, size, t_act));
    }
    run_determinized(&mut sim, t_end, &mut trail);
    let mut scorer = Scorer::default();
    scorer.assemble(&[trail.all()]);
    scorer.report
}

/// Rolls out every candidate of one decision on one branch in a single
/// pass, reusing its buffers from branch to branch.
///
/// One idle trajectory runs to the horizon. At each action instant a send
/// is forked off it (a clone of the idle network plus the hypothetical
/// packet). At fixed checkpoints — every action instant, then steps of the
/// grid's last spacing up to the horizon — each live send is advanced and
/// compared with idle; once [`Network::same_future`] holds, the packet's
/// consequences "have ceased to linger" (§3.3) and the send is cut off:
/// the rest of its trajectory is idle's. Rollouts are deterministic, so a
/// late check costs extra events, never correctness.
///
/// A candidate's report is stitched in the order a lone [`rollout`] would
/// have logged it — idle's logs before the action instant, the send's
/// own, then idle's after the cut — and loss folds are replayed in that
/// same order, so every report, and hence every expected utility, is
/// bit-identical to [`rollout`]'s.
#[derive(Debug)]
pub struct CandidatePass {
    /// `(action instant, grid index)` of every send, sorted by instant
    /// (stable, so ties keep grid order).
    forks: Vec<(Time, usize)>,
    /// Ascending, distinct; the last is `t_end`.
    checkpoints: Vec<Time>,
    t_end: Time,
    idle: Trail,
    /// Each send's own logs, from its action instant to its cut.
    sends: Vec<Trail>,
    /// Where idle's logs stood at each send's action instant and cut
    /// (`None`: never rejoined idle before the horizon).
    spans: Vec<(Mark, Option<Mark>)>,
    scorer: Scorer,
}

impl CandidatePass {
    /// The pass for a decision at `now` under `cfg`'s delay grid and
    /// horizon.
    ///
    /// # Panics
    /// Panics if the grid does not start with `Dur::ZERO` or a delay
    /// exceeds the horizon.
    pub fn new(now: Time, cfg: &PlannerConfig) -> CandidatePass {
        assert!(
            cfg.delay_grid.first() == Some(&Dur::ZERO),
            "delay grid must start with ZERO (send now)"
        );
        let t_end = now + cfg.horizon;
        let mut forks: Vec<(Time, usize)> = cfg
            .delay_grid
            .iter()
            .enumerate()
            .map(|(i, &delta)| {
                let t_act = now + delta;
                assert!(
                    t_act <= t_end,
                    "delay {delta} exceeds planning horizon {}",
                    cfg.horizon
                );
                (t_act, i)
            })
            .collect();
        forks.sort_by_key(|&(t_act, _)| t_act);
        let mut delays = cfg.delay_grid.clone();
        delays.sort();
        delays.dedup();
        let mut checkpoints: Vec<Time> = forks.iter().map(|&(t_act, _)| t_act).collect();
        checkpoints.dedup();
        // After the last action instant, check every "last spacing" of
        // the grid (1 s for the default grid); a one-delay grid checks
        // only at the horizon.
        let step = match delays[..] {
            [.., a, b] => b - a,
            _ => cfg.horizon,
        };
        let mut t = *checkpoints.last().expect("the grid holds ZERO");
        while t < t_end {
            t = t.checked_add(step).map_or(t_end, |next| next.min(t_end));
            checkpoints.push(t);
        }
        let n = forks.len();
        CandidatePass {
            forks,
            checkpoints,
            t_end,
            idle: Trail::default(),
            sends: (0..n).map(|_| Trail::default()).collect(),
            spans: vec![(Mark::default(), None); n],
            scorer: Scorer::default(),
        }
    }

    /// Roll out every candidate on `net` and hand each report to `visit`:
    /// first idle (`None`), then the send after each grid delay (its grid
    /// index), in grid order.
    pub fn run(
        &mut self,
        net: &Network,
        entry: NodeId,
        own_flow: FlowId,
        seq: u64,
        size: Bits,
        mut visit: impl FnMut(Option<usize>, &RolloutReport),
    ) {
        // Rollouts replay cloned hypothetical networks; their events must
        // never reach the ground-truth trace log.
        let _quiet = augur_obs::suppress();
        let CandidatePass {
            forks,
            checkpoints,
            t_end,
            idle: idle_trail,
            sends,
            spans,
            scorer,
        } = self;
        idle_trail.clear();
        sends.iter_mut().for_each(Trail::clear);
        let mut idle = net.clone();
        // Sends still running apart from idle: (grid index, network).
        let mut live: Vec<(usize, Network)> = Vec::with_capacity(forks.len());
        let mut next_fork = forks.iter().peekable();
        for &at in checkpoints.iter() {
            run_determinized(&mut idle, at, idle_trail);
            let here = idle_trail.mark();
            live.retain_mut(|(i, sim)| {
                run_determinized(sim, at, &mut sends[*i]);
                let rejoined = sim.same_future(&idle);
                if rejoined {
                    spans[*i].1 = Some(here);
                }
                !rejoined
            });
            while let Some(&(_, i)) = next_fork.next_if(|&&(t_act, _)| t_act == at) {
                let mut sim = idle.clone();
                sim.inject(entry, Packet::new(own_flow, seq, size, at));
                spans[i] = (here, None);
                live.push((i, sim));
            }
        }
        // A send forked at the horizon itself still plays out its
        // injection instant.
        for (i, sim) in &mut live {
            run_determinized(sim, *t_end, &mut sends[*i]);
        }

        visit(None, scorer.assemble(&[idle_trail.all()]));
        for (i, (send, &(start, cut))) in sends.iter().zip(spans.iter()).enumerate() {
            let end = idle_trail.mark();
            let report = scorer.assemble(&[
                (idle_trail, Mark::default(), start),
                send.all(),
                (idle_trail, cut.unwrap_or(end), end),
            ]);
            visit(Some(i), report);
        }
    }
}

/// The logs of one determinized run, in the order they were written.
#[derive(Debug, Default)]
struct Trail {
    deliveries: Vec<Delivery>,
    drops: Vec<DropRecord>,
    /// `((flow, seq), survival probability)` of every folded loss fate.
    folds: Vec<((FlowId, u64), f64)>,
}

/// How far each of a [`Trail`]'s logs had been written.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    deliveries: usize,
    drops: usize,
    folds: usize,
}

/// The part of a trail's logs between two marks.
type Span<'a> = (&'a Trail, Mark, Mark);

impl Trail {
    fn clear(&mut self) {
        self.deliveries.clear();
        self.drops.clear();
        self.folds.clear();
    }

    fn mark(&self) -> Mark {
        Mark {
            deliveries: self.deliveries.len(),
            drops: self.drops.len(),
            folds: self.folds.len(),
        }
    }

    fn all(&self) -> Span<'_> {
        (self, Mark::default(), self.mark())
    }
}

/// Reusable buffers that turn a candidate's trail spans into its report.
#[derive(Debug, Default)]
struct Scorer {
    /// Per-packet delivery probabilities accumulated from folded loss.
    /// Ordered map: rollouts feed expected utility, and no container
    /// iteration order may reach a decision.
    probs: BTreeMap<(FlowId, u64), f64>,
    report: RolloutReport,
}

impl Scorer {
    /// The report of the run whose logs are `spans`, concatenated: every
    /// delivery with its packet's accumulated survival probability.
    fn assemble(&mut self, spans: &[Span<'_>]) -> &RolloutReport {
        self.probs.clear();
        for (trail, from, to) in spans {
            for &(key, survive) in &trail.folds[from.folds..to.folds] {
                *self.probs.entry(key).or_insert(1.0) *= survive;
            }
        }
        let report = &mut self.report;
        report.deliveries.clear();
        report.drops.clear();
        for (trail, from, to) in spans {
            for d in &trail.deliveries[from.deliveries..to.deliveries] {
                let mut p = 1.0;
                if let Some(f) = self.probs.get(&(d.packet.flow, d.packet.seq)) {
                    p *= f;
                }
                report.deliveries.push((*d, p));
            }
            report
                .drops
                .extend_from_slice(&trail.drops[from.drops..to.drops]);
        }
        report
    }
}

/// Advance `sim` to `until`, resolving every choice to its nominal
/// outcome and appending what it logged to `trail`.
fn run_determinized(sim: &mut Network, until: Time, trail: &mut Trail) {
    loop {
        let step = sim.run_until(until);
        sim.drain_logs_into(&mut trail.deliveries, &mut trail.drops);
        match step {
            Step::Idle => return,
            Step::Pending(spec) => match spec.kind {
                ChoiceKind::LossFate => {
                    // Nominal no-loss path, weighted by the (1 − p)
                    // survival factor: exact at the last-mile loss node,
                    // the certainty-equivalent approximation elsewhere.
                    let pkt = spec.packet.expect("loss fate carries its packet");
                    trail
                        .folds
                        .push(((pkt.flow, pkt.seq), 1.0 - spec.p1.prob()));
                    sim.resolve(0);
                }
                // Nominal outcomes for everything else: no jitter, gates
                // hold their state, ARQ delivers, RED takes its more
                // likely branch.
                ChoiceKind::JitterFate
                | ChoiceKind::GateSwitch
                | ChoiceKind::EitherSwitch
                | ChoiceKind::ArqFate => sim.resolve(0),
                ChoiceKind::RedFate => {
                    sim.resolve(usize::from(spec.p1.prob() >= 0.5));
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_elements::{build_model, GateSpec, ModelParams};
    use augur_sim::{BitRate, Ppm};

    fn quiet_model(loss: f64, fullness_bits: u64) -> Network {
        build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::from_prob(loss),
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::new(fullness_bits),
            packet_size: Bits::new(12_000),
            cross_active: false,
        })
        .net
    }

    #[test]
    fn rollout_delivers_hypothetical_packet() {
        let net = quiet_model(0.0, 0);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::ZERO),
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        let own: Vec<_> = report
            .deliveries
            .iter()
            .filter(|(d, _)| d.packet.flow == FlowId::SELF)
            .collect();
        assert_eq!(own.len(), 1);
        assert_eq!(own[0].0.at, Time::from_secs(1));
        assert!((own[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rollout_folds_loss_probability() {
        let net = quiet_model(0.2, 0);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::ZERO),
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        let own: Vec<_> = report
            .deliveries
            .iter()
            .filter(|(d, _)| d.packet.flow == FlowId::SELF)
            .collect();
        assert_eq!(own.len(), 1);
        assert!((own[0].1 - 0.8).abs() < 1e-9, "prob = {}", own[0].1);
    }

    #[test]
    fn rollout_sees_backlog_deliveries() {
        let net = quiet_model(0.0, 24_000);
        let m = build_model(ModelParams {
            link_rate: BitRate::from_bps(12_000),
            cross_rate: BitRate::from_bps(8_400),
            gate: GateSpec::AlwaysOn,
            loss: Ppm::ZERO,
            buffer_capacity: Bits::new(96_000),
            initial_fullness: Bits::ZERO,
            packet_size: Bits::new(12_000),
            cross_active: false,
        });
        let report = rollout(
            &net,
            m.entry,
            FlowId::SELF,
            Some(Time::from_secs(4)), // send after backlog drains
            Time::from_secs(10),
            0,
            Bits::new(12_000),
        );
        // Two backlog packets at 1 s and 2 s, ours at 5 s.
        assert_eq!(report.deliveries.len(), 3);
        let own = report
            .deliveries
            .iter()
            .find(|(d, _)| d.packet.flow == FlowId::SELF)
            .unwrap();
        assert_eq!(own.0.at, Time::from_secs(5));
    }
}
