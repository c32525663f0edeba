//! Agent adapters the benchmark drives the program's loop with.
//!
//! [`Timed`] wraps any [`SenderAgent`] and times its `on_wake` — the one
//! boundary measured in untraced passes. [`Cycle`] and [`Restarting`]
//! are the benchmark's own copies of `ISender::on_wake` and
//! `RestartingSender::wake`, built from the sender's public `belief`,
//! `utility()` and `ISenderConfig`, so traced passes can put spans around
//! each `Belief::advance`, `planner::decide` and `Belief::inject` without
//! hooks in the program. A traced pass must reproduce the program pass's
//! report rows and work counters exactly; `main` fails the run otherwise.

use crate::probe::{self, Name};
use augur_core::{
    coexist_belief, decide, Action, DiscountedThroughput, ISender, ISenderConfig, RestartingSender,
    SenderAgent, Utility, WakeOutcome,
};
use augur_elements::ModelParams;
use augur_inference::{Belief, BeliefError, Observation};
use augur_sim::{Dur, FlowId, Packet, Time};

/// Times (untraced) or traces every `on_wake` of the wrapped agent.
pub struct Timed<A> {
    pub agent: A,
    kind: Name,
}

impl<A: SenderAgent> Timed<A> {
    /// A belief-carrying sender's wakes.
    pub fn isender(agent: A) -> Timed<A> {
        Timed {
            agent,
            kind: Name::IsenderWake,
        }
    }

    /// A belief-free peer's wakes.
    pub fn peer(agent: A) -> Timed<A> {
        Timed {
            agent,
            kind: Name::PeerWake,
        }
    }
}

impl<A: SenderAgent> SenderAgent for Timed<A> {
    fn own_flow(&self) -> FlowId {
        self.agent.own_flow()
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let agent = &mut self.agent;
        probe::span(self.kind, || agent.on_wake(now, acks))
    }

    fn population(&self) -> usize {
        self.agent.population()
    }

    fn effective_population(&self) -> f64 {
        self.agent.effective_population()
    }
}

/// The spec's utility, as the scenario runner builds it.
pub fn utility_of(alpha: f64, latency_penalty: f64) -> Box<DiscountedThroughput> {
    let mut u = DiscountedThroughput::with_alpha(alpha);
    u.latency_penalty = latency_penalty;
    Box::new(u)
}

/// The ISender wake cycle with spans around each layer call. The wrapped
/// `ISender` supplies belief, utility and configuration; sequence numbers
/// and the send log are kept here because this copy replaces its
/// `on_wake`.
pub struct Cycle {
    sender: ISender<ModelParams>,
    cfg: ISenderConfig,
    own_flow: FlowId,
    next_seq: u64,
    /// (seq, send time) of every transmission, as `ISender::sent_log`.
    pub sent_log: Vec<(u64, Time)>,
}

impl Cycle {
    pub fn new(sender: ISender<ModelParams>) -> Cycle {
        Cycle {
            cfg: sender.config().clone(),
            own_flow: sender.own_flow(),
            sender,
            next_seq: 0,
            sent_log: Vec::new(),
        }
    }

    fn wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let belief = &mut self.sender.belief;
        probe::span(Name::Advance, || belief.advance(now, acks))?;
        let belief = &self.sender.belief;
        let (branches, effective) = (belief.branch_count(), belief.effective_count());
        probe::note(|n| {
            n.advances += 1;
            n.branches_sum += branches as u64;
            n.branches_max = n.branches_max.max(branches as u64);
            n.ess_ratio_sum += effective / branches as f64;
        });

        let mut sent = Vec::new();
        let decision = loop {
            let (sender, cfg, seq) = (&self.sender, &self.cfg, self.next_seq);
            let d = probe::span(Name::Decide, || {
                decide(
                    &sender.belief,
                    &cfg.planner,
                    sender.utility(),
                    self.own_flow,
                    seq,
                    cfg.packet_size,
                )
            });
            let offered = sender
                .belief
                .branch_count()
                .min(cfg.planner.max_planning_branches);
            probe::note(|n| {
                n.planner_branches_sum += offered as u64;
                n.send_now += u64::from(d.action == Action::SendNow);
            });
            match d.action {
                Action::SendNow if sent.len() < self.cfg.max_sends_per_wake => {
                    let pkt = Packet::new(self.own_flow, self.next_seq, self.cfg.packet_size, now);
                    let belief = &mut self.sender.belief;
                    probe::span(Name::Inject, || belief.inject(pkt));
                    self.sent_log.push((self.next_seq, now));
                    self.next_seq += 1;
                    sent.push(pkt);
                }
                _ => break d,
            }
        };
        let next_wake = match decision.action {
            Action::SendNow | Action::Idle => now + self.cfg.max_sleep,
            Action::SleepUntil(t) => t.min(now + self.cfg.max_sleep),
        };
        Ok(WakeOutcome {
            sent,
            next_wake,
            decision,
        })
    }

    fn belief(&self) -> &Belief<ModelParams> {
        &self.sender.belief
    }
}

impl SenderAgent for Cycle {
    fn own_flow(&self) -> FlowId {
        self.own_flow
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        self.wake(now, acks)
    }

    fn population(&self) -> usize {
        self.belief().branch_count()
    }

    fn effective_population(&self) -> f64 {
        self.belief().effective_count()
    }
}

/// The coexistence prior and utility a [`Restarting`] sender rebuilds
/// from on every restart.
#[derive(Debug, Clone, Copy)]
pub struct CoexistKnobs {
    pub link_bps: u64,
    pub buffer_bits: u64,
    pub max_branches: usize,
    pub alpha: f64,
    pub latency_penalty: f64,
    pub packet_size: augur_sim::Bits,
}

impl CoexistKnobs {
    fn belief(&self) -> Belief<ModelParams> {
        coexist_belief(self.link_bps, self.buffer_bits, self.max_branches)
    }

    fn utility(&self) -> Box<dyn Utility + Send> {
        utility_of(self.alpha, self.latency_penalty)
    }

    fn config(&self) -> ISenderConfig {
        ISenderConfig {
            packet_size: self.packet_size,
            ..ISenderConfig::default()
        }
    }

    /// A fresh sender, as a (re)start builds it.
    pub fn fresh(&self) -> ISender<ModelParams> {
        ISender::new(self.belief(), self.utility(), self.config())
    }

    /// The program's own `RestartingSender` over these knobs.
    pub fn restarting(self) -> RestartingSender {
        RestartingSender::new(
            Box::new(move || self.belief()),
            Box::new(move || self.utility()),
            self.config(),
        )
    }
}

/// `RestartingSender::wake` over a traced [`Cycle`].
pub struct Restarting {
    knobs: CoexistKnobs,
    cycle: Cycle,
    t0: Time,
    base_seq: u64,
    next_abs_seq: u64,
    pub restarts: usize,
}

impl Restarting {
    pub fn new(knobs: CoexistKnobs) -> Restarting {
        Restarting {
            cycle: Cycle::new(knobs.fresh()),
            knobs,
            t0: Time::ZERO,
            base_seq: 0,
            next_abs_seq: 0,
            restarts: 0,
        }
    }
}

impl SenderAgent for Restarting {
    fn own_flow(&self) -> FlowId {
        self.cycle.own_flow
    }

    fn on_wake(&mut self, now: Time, acks: &[Observation]) -> Result<WakeOutcome, BeliefError> {
        let shift = self.t0.since(Time::ZERO);
        let rel_acks: Vec<Observation> = acks
            .iter()
            .filter(|o| o.seq >= self.base_seq)
            .map(|o| Observation {
                seq: o.seq - self.base_seq,
                at: o.at - shift,
            })
            .collect();
        Ok(match self.cycle.wake(now - shift, &rel_acks) {
            Ok(mut outcome) => {
                for pkt in &mut outcome.sent {
                    *pkt = Packet::new(pkt.flow, pkt.seq + self.base_seq, pkt.size, now);
                }
                self.next_abs_seq = self.cycle.next_seq + self.base_seq;
                outcome.next_wake += shift;
                outcome
            }
            Err(_) => {
                self.restarts += 1;
                self.t0 = now;
                self.base_seq = self.next_abs_seq;
                self.cycle = Cycle::new(self.knobs.fresh());
                WakeOutcome::idle(now + Dur::from_millis(500))
            }
        })
    }

    fn population(&self) -> usize {
        self.cycle.population()
    }

    fn effective_population(&self) -> f64 {
        self.cycle.effective_population()
    }
}
