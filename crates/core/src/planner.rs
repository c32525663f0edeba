//! The expected-utility planner — the ISENDER's second job (§3.2).
//!
//! "When the ISENDER wakes up, it makes a list of strategies including
//! sending immediately and at every delay up to the slowest rate the
//! ISENDER could optimally send. We evaluate the consequences of each
//! strategy on each possible network configuration, and choose the
//! strategy that maximizes the expected value of the utility."
//!
//! For every candidate delay δ and every belief branch, the planner clones
//! the branch's network, rolls it forward to the action time, injects the
//! hypothetical packet, and continues to a fixed horizon, accumulating the
//! utility of everything delivered. Rollouts are **determinized**
//! (certainty-equivalent): stochastic choices resolve to their nominal
//! outcome, with last-mile loss folded into a per-packet delivery
//! probability instead of a fork. The horizon end is the
//! same for every candidate action, so candidates are compared on equal
//! terms.

use crate::utility::{RolloutReport, Utility};
use augur_elements::{ChoiceKind, Network, NodeId, Step};
use augur_inference::{Belief, Hypothesis};
use augur_sim::{Bits, Dur, FlowId, Packet, Time};
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
        belief.config().fold_loss_node,
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
/// `now` is the decision instant, `entry` the injection node, `fold_node`
/// the last-mile loss element folded analytically during rollouts.
#[allow(clippy::too_many_arguments)]
pub fn decide_weighted<M>(
    branches: &[(&Hypothesis<M>, f64)],
    now: Time,
    entry: NodeId,
    fold_node: Option<NodeId>,
    cfg: &PlannerConfig,
    utility: &dyn Utility,
    own_flow: FlowId,
    seq: u64,
    size: Bits,
) -> Decision {
    assert!(
        cfg.delay_grid.first() == Some(&Dur::ZERO),
        "delay grid must start with ZERO (send now)"
    );
    let t_end = now + cfg.horizon;

    let eu_of = |send_at: Option<Time>| -> f64 {
        let mut eu = 0.0;
        for (h, w) in branches {
            let report = rollout(
                &h.net, entry, fold_node, own_flow, send_at, t_end, seq, size,
            );
            eu += w * utility.evaluate(&report, now, own_flow);
        }
        eu
    };

    let idle_eu = eu_of(None);
    let mut evaluations = vec![(None, idle_eu)];
    // Idle is the incumbent with a margin: a send must clear it by a
    // fraction of one packet's utility. Among sends, the earliest
    // strictly-best delay wins.
    let margin = cfg.send_margin_frac * size.as_f64();
    let mut best: (Option<Dur>, f64) = (None, idle_eu + margin);
    for &delta in &cfg.delay_grid {
        let t_act = now + delta;
        assert!(
            t_act <= t_end,
            "delay {delta} exceeds planning horizon {}",
            cfg.horizon
        );
        let eu = eu_of(Some(t_act));
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
#[allow(clippy::too_many_arguments)]
pub fn rollout(
    net: &Network,
    entry: NodeId,
    fold_node: Option<NodeId>,
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
    let mut report = RolloutReport::default();
    // Per-packet delivery probabilities accumulated from folded loss.
    // Ordered map: rollouts feed expected utility, and no container
    // iteration order may reach a decision.
    let mut probs: BTreeMap<(FlowId, u64), f64> = BTreeMap::new();

    if let Some(t_act) = send_at {
        run_determinized(&mut sim, t_act, fold_node, &mut probs, &mut report);
        sim.inject(entry, Packet::new(own_flow, seq, size, t_act));
    }
    run_determinized(&mut sim, t_end, fold_node, &mut probs, &mut report);

    // Attach accumulated probabilities to the deliveries.
    for (d, p) in report.deliveries.iter_mut() {
        if let Some(f) = probs.get(&(d.packet.flow, d.packet.seq)) {
            *p *= f;
        }
    }
    report
}

fn run_determinized(
    sim: &mut Network,
    until: Time,
    fold_node: Option<NodeId>,
    probs: &mut BTreeMap<(FlowId, u64), f64>,
    report: &mut RolloutReport,
) {
    loop {
        let step = sim.run_until(until);
        for (_, d) in sim.take_deliveries() {
            report.deliveries.push((d, 1.0));
        }
        report.drops.extend(sim.take_drops());
        match step {
            Step::Idle => return,
            Step::Pending(spec) => match spec.kind {
                ChoiceKind::LossFate => {
                    // Nominal no-loss path; if this is the last-mile node
                    // the (1 − p) factor is exact, elsewhere it is the
                    // certainty-equivalent approximation.
                    let pkt = spec.packet.expect("loss fate carries its packet");
                    let survive = 1.0 - spec.p1.prob();
                    let _ = fold_node; // the factor applies either way
                    *probs.entry((pkt.flow, pkt.seq)).or_insert(1.0) *= survive;
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
            Some(m.loss),
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
            None,
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
            None,
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
