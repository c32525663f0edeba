//! ISENDER — "a sender that follows our approach by maintaining a model of
//! the network and scheduling transmissions to maximize the expected
//! utility" (§3.1).
//!
//! The sender is event-driven: it wakes on each acknowledgment and on its
//! own timer ("if the RECEIVER notifies the ISENDER before x seconds have
//! passed …, the sender will be woken up early and will reevaluate the
//! best decision", §3.2). On every wake it
//!
//! 1. advances its belief over the window since the last wake,
//!    conditioning on the acknowledgments received;
//! 2. repeatedly asks the planner for the best action, transmitting while
//!    "send now" maximizes expected utility;
//! 3. returns the packets it sent plus the instant it wants to be woken
//!    if no acknowledgment arrives first.

use crate::planner::{
    decide, decide_weighted, subsample_weighted, Action, Decision, PlannerConfig,
};
use crate::utility::Utility;
use augur_inference::{Belief, BeliefError, Observation, ParticleFilter};
use augur_sim::{Bits, Dur, FlowId, Packet, Time};
use std::hash::Hash;

/// ISender tuning.
#[derive(Debug, Clone)]
pub struct ISenderConfig {
    /// Size of every packet the sender transmits ("we assume the sender
    /// will always send packets of uniform length", §3.2).
    pub packet_size: Bits,
    /// Planner settings.
    pub planner: PlannerConfig,
    /// Upper bound on how long the sender sleeps without reconsidering.
    pub max_sleep: Dur,
    /// Safety cap on transmissions per wake (guards against a degenerate
    /// utility that always prefers sending).
    pub max_sends_per_wake: usize,
}

impl Default for ISenderConfig {
    fn default() -> Self {
        ISenderConfig {
            packet_size: Bits::from_bytes(1_500),
            planner: PlannerConfig::default(),
            max_sleep: Dur::from_secs(2),
            max_sends_per_wake: 64,
        }
    }
}

/// What one wake produced.
#[derive(Debug, Clone)]
pub struct WakeOutcome {
    /// Packets transmitted at this instant (inject these into the real
    /// network).
    pub sent: Vec<Packet>,
    /// When to wake the sender if no acknowledgment arrives earlier.
    pub next_wake: Time,
    /// The final decision of the wake (diagnostics).
    pub decision: Decision,
}

impl WakeOutcome {
    /// An outcome that transmits nothing and carries a placeholder Idle
    /// decision: wake me at `next_wake` unless an acknowledgment arrives
    /// first. Used by agents without a planner (AIMD, TCP) and by
    /// restart paths; senders with packets combine it via
    /// `WakeOutcome { sent, ..WakeOutcome::idle(t) }`.
    pub fn idle(next_wake: Time) -> WakeOutcome {
        WakeOutcome {
            sent: Vec::new(),
            next_wake,
            decision: Decision {
                action: Action::Idle,
                expected_utility: 0.0,
                evaluations: Vec::new(),
            },
        }
    }
}

/// The model-based sender.
pub struct ISender<M> {
    /// The belief over network configurations (public for inspection by
    /// experiments and tests).
    pub belief: Belief<M>,
    cfg: ISenderConfig,
    utility: Box<dyn Utility + Send>,
    own_flow: FlowId,
    next_seq: u64,
    /// Log of (seq, send time) for every transmitted packet.
    pub sent_log: Vec<(u64, Time)>,
}

impl<M: Clone + Eq + Hash> ISender<M> {
    /// Create a sender over a prior belief with the given utility.
    pub fn new(
        belief: Belief<M>,
        utility: Box<dyn Utility + Send>,
        cfg: ISenderConfig,
    ) -> ISender<M> {
        let own_flow = belief.config().own_flow;
        ISender {
            belief,
            cfg,
            utility,
            own_flow,
            next_seq: 0,
            sent_log: Vec::new(),
        }
    }

    /// The sender's flow id.
    pub fn own_flow(&self) -> FlowId {
        self.own_flow
    }

    /// Sequence number of the next packet to transmit.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sender's configuration.
    pub fn config(&self) -> &ISenderConfig {
        &self.cfg
    }

    /// The sender's utility function (for inspection by experiments and
    /// tests — e.g. verifying a restart preserved the configured α).
    pub fn utility(&self) -> &dyn Utility {
        self.utility.as_ref()
    }

    /// Wake at `now` with the acknowledgments received since the previous
    /// wake. Updates the belief, transmits while profitable, and schedules
    /// the next timer.
    pub fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.belief.advance(now, acks)?;
        let (cfg, utility, own_flow) = (&self.cfg, self.utility.as_ref(), self.own_flow);
        Ok(wake_cycle(
            now,
            cfg,
            own_flow,
            &mut self.next_seq,
            &mut self.sent_log,
            &mut self.belief,
            |belief, seq| {
                decide(
                    belief,
                    &cfg.planner,
                    utility,
                    own_flow,
                    seq,
                    cfg.packet_size,
                )
            },
            Belief::inject,
        ))
    }
}

/// The shared wake-time decision cycle: ask the planner while "send now"
/// wins (up to the per-wake cap), injecting each hypothetical send into
/// the belief engine, then map the final action to the next timer. Both
/// [`ISender`] and [`ParticleSender`] delegate here so the policy cannot
/// diverge between belief representations.
#[allow(clippy::too_many_arguments)]
fn wake_cycle<E>(
    now: Time,
    cfg: &ISenderConfig,
    own_flow: FlowId,
    next_seq: &mut u64,
    sent_log: &mut Vec<(u64, Time)>,
    engine: &mut E,
    decide_fn: impl Fn(&E, u64) -> Decision,
    inject_fn: impl Fn(&mut E, Packet),
) -> WakeOutcome {
    let mut sent = Vec::new();
    let decision = loop {
        let d = decide_fn(engine, *next_seq);
        match d.action {
            Action::SendNow if sent.len() < cfg.max_sends_per_wake => {
                let pkt = Packet::new(own_flow, *next_seq, cfg.packet_size, now);
                inject_fn(engine, pkt);
                sent_log.push((*next_seq, now));
                *next_seq += 1;
                sent.push(pkt);
            }
            _ => break d,
        }
    };

    let next_wake = match decision.action {
        Action::SendNow => now + cfg.max_sleep, // send cap hit
        Action::SleepUntil(t) => t.min(now + cfg.max_sleep),
        // No send looks profitable: wait for news (ACKs wake earlier).
        Action::Idle => now + cfg.max_sleep,
    };
    WakeOutcome {
        sent,
        next_wake,
        decision,
    }
}

impl<M> std::fmt::Debug for ISender<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ISender")
            .field("next_seq", &self.next_seq)
            .field("sent", &self.sent_log.len())
            .finish()
    }
}

/// What the closed-loop harness needs from a model-based sender: the
/// wake-driven decision cycle, independent of the belief representation
/// (exact enumeration or particle filter). This is the dispatch point the
/// scenario subsystem uses to swap sender kinds without duplicating the
/// experiment loop.
pub trait SenderAgent {
    /// The sender's flow id (its packets and acknowledgments).
    fn own_flow(&self) -> FlowId;

    /// Wake at `now` with the acknowledgments received since the previous
    /// wake: update the belief, transmit while profitable, schedule the
    /// next timer.
    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError>;

    /// Current belief population (branches or particles) — diagnostics.
    fn population(&self) -> usize;

    /// Effective population (inverse Simpson index over weights).
    fn effective_population(&self) -> f64;
}

impl<M: Clone + Eq + Hash> SenderAgent for ISender<M> {
    fn own_flow(&self) -> FlowId {
        ISender::own_flow(self)
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        ISender::on_wake(self, now, acks)
    }

    fn population(&self) -> usize {
        self.belief.branch_count()
    }

    fn effective_population(&self) -> f64 {
        self.belief.effective_count()
    }
}

/// The ISender over a bootstrap particle filter instead of the exact
/// belief — the scalable engine the paper sketches in §3.2. The decision
/// cycle is identical (the planner's determinized rollouts are
/// representation-agnostic); only the belief update differs: particles are
/// sampled trajectories that die on observation mismatch rather than
/// forked branches.
pub struct ParticleSender<M> {
    /// The particle population (public for inspection by experiments).
    pub filter: ParticleFilter<M>,
    cfg: ISenderConfig,
    utility: Box<dyn Utility + Send>,
    own_flow: FlowId,
    next_seq: u64,
    /// Log of (seq, send time) for every transmitted packet.
    pub sent_log: Vec<(u64, Time)>,
}

impl<M: Clone> ParticleSender<M> {
    /// Create a sender over a particle filter with the given utility.
    pub fn new(
        filter: ParticleFilter<M>,
        utility: Box<dyn Utility + Send>,
        cfg: ISenderConfig,
    ) -> ParticleSender<M> {
        let own_flow = filter.config().own_flow;
        ParticleSender {
            filter,
            cfg,
            utility,
            own_flow,
            next_seq: 0,
            sent_log: Vec::new(),
        }
    }

    /// Sequence number of the next packet to transmit.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<M: Clone> SenderAgent for ParticleSender<M> {
    fn own_flow(&self) -> FlowId {
        self.own_flow
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.filter.advance(now, acks)?;
        let (cfg, utility, own_flow) = (&self.cfg, self.utility.as_ref(), self.own_flow);
        Ok(wake_cycle(
            now,
            cfg,
            own_flow,
            &mut self.next_seq,
            &mut self.sent_log,
            &mut self.filter,
            |filter, seq| {
                let branches =
                    subsample_weighted(filter.particles(), cfg.planner.max_planning_branches);
                decide_weighted(
                    &branches,
                    now,
                    filter.entry,
                    &cfg.planner,
                    utility,
                    own_flow,
                    seq,
                    cfg.packet_size,
                )
            },
            ParticleFilter::inject,
        ))
    }

    fn population(&self) -> usize {
        self.filter.particles().len()
    }

    fn effective_population(&self) -> f64 {
        augur_inference::effective_count(self.filter.particles())
    }
}

impl<M> std::fmt::Debug for ParticleSender<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticleSender")
            .field("next_seq", &self.next_seq)
            .field("sent", &self.sent_log.len())
            .finish()
    }
}
