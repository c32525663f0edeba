//! The flow driver: one heap-scheduled event loop for every closed-loop
//! harness in the workspace, from the single-sender fig3 run (N=1) to
//! many-flow scaling sweeps (N=10 000). TCP runs on it too: a
//! single-flow TCP download (Figure 1) is one TCP agent over a one-flow
//! ground truth, the same agent that shares bottlenecks as a
//! coexistence or many-flow peer.
//!
//! [`FlowDriver`] owns the co-simulation of N [`SenderAgent`]s against a
//! sampled ground-truth [`Network`]: per-flow slots (agent, pending
//! acknowledgments, trace, next wake) plus a wake schedule.
//! [`crate::run_multi_agent`] and [`crate::run_closed_loop`] are thin
//! wrappers over it; they differ only in [`FlowDriver::over`] versus
//! [`FlowDriver::closed_loop`] accounting (see [`FlowDriver`]).
//!
//! # The wake-heap contract
//!
//! [`SenderAgent`] implementors rely on the following scheduling
//! guarantees, unchanged from the sequential loops:
//!
//! * **Timer wakes.** After `on_wake` returns
//!   [`crate::WakeOutcome::next_wake`], the agent sleeps until that instant —
//!   floored to strictly after the current wake (`now + 1µs`), so an
//!   agent can never busy-loop the driver by re-requesting `now`.
//! * **Acknowledgment wakes.** A delivery for flow `i` at time `d`
//!   pulls that flow's wake forward to `min(next_wake, d)` — the
//!   event-driven "ACK wakes the sender early" behavior. Observations
//!   are batched: every acknowledgment that arrived since the previous
//!   wake is handed to the next `on_wake` call in one slice.
//! * **Seeded tie-breaks.** Flows waking at the same instant are
//!   dispatched in an order drawn from the truth RNG (uniform over the
//!   standing tied set, ascending by flow index between draws), so no
//!   index gets a permanent first-transmitter advantage and the run
//!   stays a pure function of the seed.
//! * **Horizon.** Multi-flow runs fire every wake scheduled at or
//!   before `t_end`; the classic closed loop fires a wake exactly at
//!   `t_end` only when it is the start instant or an acknowledgment
//!   pulled it there (a bare timer landing on the horizon stays
//!   silent). Either way the ground truth is drained to exactly
//!   `t_end`, so traces cover the full window.
//!
//! # Complexity
//!
//! Wakes live in a binary heap keyed `(Time, flow index, generation)`;
//! reschedules push a fresh entry and invalidate the old one by bumping
//! the slot's generation (lazy deletion — stale entries are discarded
//! on pop). Deliveries are routed to slots by direct [`FlowId`]
//! indexing. Advancing the ground truth between wakes is therefore
//! O(events · log N), and a wake at an instant no other flow shares
//! costs O(log N) amortized — there is no O(N) scan in that path.
//!
//! Flows that wake at the same instant are dispatched from a tied set
//! kept as a sorted `Vec`. Each seeded draw removes its pick with
//! `Vec::remove`, and each flow pulled into the instant is placed with
//! `Vec::insert`; both shift O(m) elements for m tied flows, so an
//! instant where m flows tie costs O(m²) element shifts (a fully tied
//! instant, e.g. the common start at t=0 where every flow wakes at once,
//! costs O(N²)). This is measurable at scale: the two N=10,000 runs of
//! the many-flow spec at 60 s (631k wakes) shift about 506M elements in
//! all. A Fenwick tree over the tied set with the same draw order makes
//! each draw O(log m) but was slower end to end on a 2-vCPU VM
//! (many-flow benchmark sweep 0.85–0.88 s against 0.74–0.77 s), so the
//! `Vec` stays.

use crate::experiment::{GroundTruth, RunTrace, WakeRecord};
use crate::isender::SenderAgent;
use crate::multi::MultiFlowTruth;
use augur_elements::{Network, NodeId};
use augur_inference::{BeliefError, Observation};
use augur_sim::{perf, Dur, FlowId, Packet, SimRng, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Where one flow touches the ground-truth network: its packets are
/// injected at `entry` and its acknowledgments come from deliveries of
/// its [`FlowId`] (at `rx` for single-flow accounting; multi-flow
/// routing is by flow id, so topologies may share one receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEndpoint {
    /// Injection point for this flow's packets.
    pub entry: NodeId,
    /// The receiver whose deliveries acknowledge this flow.
    pub rx: NodeId,
}

/// A per-flow table that failed validation at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTableError {
    /// The table declares no flows at all.
    Empty,
    /// More flows than [`FlowId`]'s u16 wire identity can address.
    TooManyFlows {
        /// The offending flow count.
        flows: usize,
    },
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::Empty => write!(f, "a flow table needs at least one flow"),
            FlowTableError::TooManyFlows { flows } => write!(
                f,
                "{flows} flows exceed the {} addressable by a u16 flow id",
                usize::from(u16::MAX) + 1
            ),
        }
    }
}

impl Error for FlowTableError {}

/// A driver run that could not complete.
#[derive(Debug)]
pub enum DriverError {
    /// An agent's belief died (zero posterior mass on its observations).
    Belief(BeliefError),
    /// More agents than the ground truth declares flows.
    AgentCount {
        /// Agents handed to the driver.
        agents: usize,
        /// Flows the ground truth declares.
        flows: usize,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Belief(e) => write!(f, "agent belief died: {e}"),
            DriverError::AgentCount { agents, flows } => {
                write!(f, "ground truth declares {flows} flows for {agents} agents")
            }
        }
    }
}

impl Error for DriverError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriverError::Belief(e) => Some(e),
            DriverError::AgentCount { .. } => None,
        }
    }
}

impl From<BeliefError> for DriverError {
    fn from(e: BeliefError) -> DriverError {
        DriverError::Belief(e)
    }
}

/// How the driver stamps injections, attributes deliveries and treats
/// a timer landing on the horizon. Drops follow one rule for both (see
/// `harvest`).
#[derive(Debug, Clone, Copy)]
enum Routing {
    /// Multi-agent wiring: agent `i` transmits as `FlowId(i)` (packets
    /// are re-stamped on injection), deliveries route to slot
    /// `flow.0`, foreign deliveries belong to nobody, and every wake at
    /// or before the horizon fires.
    PerFlow,
    /// Single-sender accounting (the classic closed loop): the agent
    /// keeps its own wire flow, acknowledgments are its deliveries at
    /// its receiver, cross-traffic deliveries are logged to the one
    /// trace for diagnostics, and a bare timer on the horizon stays
    /// silent.
    ClosedLoop,
}

/// The indexed wake schedule: a binary heap of `(Time, flow index,
/// generation)` entries with lazy invalidation, plus the "tied set" of
/// flows standing at the instant currently being dispatched.
struct WakeHeap {
    heap: BinaryHeap<Reverse<(Time, u32, u64)>>,
    /// Authoritative next wake per flow.
    wake: Vec<Time>,
    /// Generation per flow; a heap entry is valid iff its generation
    /// matches (every reschedule bumps it, invalidating older entries).
    gen: Vec<u64>,
    /// Flows whose wake equals `t_active`, ascending by index — the
    /// pool simultaneous wakes are drawn from.
    tied: Vec<u32>,
    /// The instant being dispatched, if any.
    t_active: Option<Time>,
}

impl WakeHeap {
    fn new(n: usize, start: Time) -> WakeHeap {
        WakeHeap {
            heap: (0..n as u32).map(|i| Reverse((start, i, 0))).collect(),
            wake: vec![start; n],
            gen: vec![0; n],
            tied: Vec::new(),
            t_active: None,
        }
    }

    /// Reschedule flow `i` to wake at `t` (O(log N): one heap push, one
    /// generation bump; any previous entry for `i` goes stale).
    fn set_wake(&mut self, i: usize, t: Time) {
        // A standing tied entry is authoritative — drop it before the
        // reschedule so the flow is not dispatched twice.
        if self.t_active == Some(self.wake[i]) {
            if let Ok(pos) = self.tied.binary_search(&(i as u32)) {
                self.tied.remove(pos);
            }
        }
        self.wake[i] = t;
        self.gen[i] += 1;
        if self.t_active == Some(t) {
            // Pulled back into the instant being dispatched: join the
            // tied set directly (ascending order preserved).
            let pos = self.tied.binary_search(&(i as u32)).unwrap_err();
            self.tied.insert(pos, i as u32);
        } else {
            self.heap.push(Reverse((t, i as u32, self.gen[i])));
        }
    }

    /// Pull flow `i`'s wake forward to `t` if that is earlier — the
    /// acknowledgment-wake path.
    fn pull_wake(&mut self, i: usize, t: Time) {
        if t < self.wake[i] {
            self.set_wake(i, t);
        }
    }

    /// Earliest scheduled wake, discarding stale heap entries.
    fn peek_valid(&mut self) -> Time {
        while let Some(&Reverse((t, i, g))) = self.heap.peek() {
            if self.gen[i as usize] == g {
                return t;
            }
            self.heap.pop();
        }
        unreachable!("every flow keeps a valid heap entry between instants")
    }

    /// Open the instant `t` for dispatch: move every flow scheduled at
    /// `t` into the tied set (ascending by index — the heap yields
    /// equal-time entries in index order).
    fn begin_instant(&mut self, t: Time) {
        debug_assert!(self.tied.is_empty());
        self.t_active = Some(t);
        while let Some(&Reverse((tt, i, g))) = self.heap.peek() {
            if self.gen[i as usize] != g {
                self.heap.pop();
                continue;
            }
            if tt > t {
                break;
            }
            debug_assert_eq!(tt, t);
            self.heap.pop();
            self.tied.push(i);
        }
        debug_assert!(!self.tied.is_empty());
    }

    /// Draw the next flow to dispatch from the tied set: the sole
    /// member when unambiguous, a seeded uniform draw otherwise.
    fn draw_tied(&mut self, rng: &mut SimRng) -> usize {
        let m = self.tied.len();
        debug_assert!(m >= 1);
        let j = match m {
            1 => 0,
            m => rng.uniform_u64(0, m as u64 - 1) as usize,
        };
        self.tied.remove(j) as usize
    }
}

/// The per-flow state of one drive, and how deliveries map onto it.
struct Slots {
    routing: Routing,
    /// The closed loop's own wire flow and receiver (flow 0's).
    own: (FlowId, NodeId),
    traces: Vec<RunTrace>,
    /// Acknowledgments delivered since each flow's last wake.
    pending: Vec<Vec<Observation>>,
    heap: WakeHeap,
}

impl Slots {
    /// Drain ground-truth logs into per-flow traces and pending-ack
    /// queues; a delivery pulls its flow's wake forward to the delivery
    /// instant.
    fn harvest(&mut self, net: &mut Network) {
        let Slots {
            routing,
            own: (own0, rx0),
            traces,
            pending,
            heap,
        } = self;
        let n = traces.len();
        for (node, d) in net.take_deliveries() {
            let k = match routing {
                Routing::PerFlow => {
                    let k = d.packet.flow.0 as usize;
                    if k >= n {
                        continue; // backlog / foreign flows belong to nobody
                    }
                    k
                }
                Routing::ClosedLoop => {
                    if d.packet.flow == *own0 && node == *rx0 {
                        0
                    } else {
                        if d.packet.flow == FlowId::CROSS {
                            traces[0].cross_deliveries.push((
                                d.packet.seq,
                                d.at,
                                d.packet.size.as_u64(),
                            ));
                        }
                        continue;
                    }
                }
            };
            let obs = Observation {
                seq: d.packet.seq,
                at: d.at,
            };
            traces[k].acks.push(obs);
            traces[k].delivered_bits += d.packet.size.as_u64();
            pending[k].push(obs);
            heap.pull_wake(k, d.at);
        }
        // Drops follow one rule for both routings: a driven flow's drop
        // goes to its own trace, every other drop (cross traffic, backlog)
        // to trace 0 — the closed loop's "all drops" log, and the overflow
        // count of a lone sender sharing its path with cross traffic.
        for drop in net.take_drops() {
            let k = drop.packet.flow.0 as usize;
            traces[if k < n { k } else { 0 }].drops.push(drop);
        }
    }
}

/// A borrowed view of one ground truth, ready to drive agents to a
/// horizon. Construct with [`FlowDriver::over`] (multi-flow) or
/// [`FlowDriver::closed_loop`] (single sender), then call
/// [`FlowDriver::run`].
///
/// See the [module docs](self) for the wake-heap contract agents may
/// rely on.
pub struct FlowDriver<'a> {
    net: &'a mut Network,
    rng: &'a mut SimRng,
    flows: Vec<FlowEndpoint>,
    routing: Routing,
}

impl<'a> FlowDriver<'a> {
    /// Drive agents over a validated multi-flow ground truth: agent `i`
    /// transmits as `FlowId(i)` from `truth`'s i-th endpoint.
    pub fn over(truth: &'a mut MultiFlowTruth) -> FlowDriver<'a> {
        FlowDriver {
            flows: truth.endpoints().to_vec(),
            net: &mut truth.net,
            rng: &mut truth.rng,
            routing: Routing::PerFlow,
        }
    }

    /// Drive one sender over a classic single-flow ground truth, with
    /// closed-loop accounting (cross-traffic deliveries and all drops
    /// logged to the trace).
    pub fn closed_loop(truth: &'a mut GroundTruth) -> FlowDriver<'a> {
        FlowDriver {
            flows: vec![FlowEndpoint {
                entry: truth.entry,
                rx: truth.rx_self,
            }],
            net: &mut truth.net,
            rng: &mut truth.rng,
            routing: Routing::ClosedLoop,
        }
    }

    /// Run N agents until `t_end`; returns one [`RunTrace`] per agent
    /// (same order). Fewer agents than declared flows is allowed (the
    /// extra endpoints stay silent); more is a [`DriverError`].
    pub fn run(
        self,
        agents: &mut [&mut dyn SenderAgent],
        t_end: Time,
    ) -> Result<Vec<RunTrace>, DriverError> {
        if agents.is_empty() || agents.len() > self.flows.len() {
            return Err(DriverError::AgentCount {
                agents: agents.len(),
                flows: self.flows.len(),
            });
        }
        let FlowDriver {
            net,
            rng,
            flows,
            routing,
        } = self;
        let n = agents.len();
        let start = net.now();
        let mut slots = Slots {
            routing,
            own: (agents[0].own_flow(), flows[0].rx),
            traces: vec![RunTrace::default(); n],
            pending: vec![Vec::new(); n],
            heap: WakeHeap::new(n, start),
        };

        // Let the ground truth process its own events at the start instant
        // (pinger emissions, backlog service starts) before any agent's
        // first injection — the beliefs do the same inside their first
        // `advance`, and both sides must agree on same-instant ordering.
        net.run_until_sampled(start, rng);
        slots.harvest(net);

        loop {
            if slots.heap.tied.is_empty() {
                // Advance ground truth toward the earliest wake (capped at
                // the horizon) event by event; any delivery on the way
                // pulls its flow's wake forward, possibly before every
                // scheduled timer.
                loop {
                    let target = slots.heap.peek_valid().min(t_end);
                    match net.next_event_time() {
                        Some(te) if te <= target => {
                            net.run_until_sampled(te, rng);
                            slots.harvest(net);
                            if te >= target {
                                break;
                            }
                        }
                        _ => {
                            net.run_until_sampled(target, rng);
                            slots.harvest(net);
                            break;
                        }
                    }
                }
                let t_wake = slots.heap.peek_valid();
                if t_wake > t_end {
                    break;
                }
                // Closed-loop accounting never fires a bare timer exactly at
                // the horizon: a wake at `t_end` happens only at the start
                // instant or when an acknowledgment pulled it there (the
                // multi-flow loop, by contrast, dispatches every wake with
                // `t ≤ t_end`).
                if matches!(routing, Routing::ClosedLoop)
                    && t_wake == t_end
                    && t_wake > start
                    && slots.pending[0].is_empty()
                {
                    break;
                }
                slots.heap.begin_instant(t_wake);
            }

            let t_wake = slots.heap.t_active.expect("an instant is open");
            let i = slots.heap.draw_tied(rng);
            perf::count_flow_wake();
            let acks = std::mem::take(&mut slots.pending[i]);
            // Stamp the dispatched flow so belief-engine events emitted from
            // inside `on_wake` carry the right attribution.
            augur_obs::set_flow(FlowId(i as u16));
            let outcome = agents[i].on_wake(t_wake, &acks)?;
            augur_obs::emit(
                t_wake,
                augur_obs::EventKind::Wake {
                    flow: FlowId(i as u16),
                    acks: acks.len(),
                    sent: outcome.sent.len(),
                },
            );
            slots.traces[i].wakes.push(WakeRecord {
                at: t_wake,
                acks: acks.len(),
                sent: outcome.sent.len(),
                branches: agents[i].population(),
                effective: agents[i].effective_population(),
            });
            for pkt in &outcome.sent {
                // The loop owns wire identity in multi-agent runs: agent
                // `i` transmits as `FlowId(i)` no matter what it believes
                // its flow is. The single-sender loop keeps the agent's own
                // stamp, exactly as the classic closed loop injected `*pkt`.
                let pkt = match routing {
                    Routing::PerFlow => Packet::new(FlowId(i as u16), pkt.seq, pkt.size, t_wake),
                    Routing::ClosedLoop => *pkt,
                };
                slots.traces[i].sends.push((pkt.seq, t_wake));
                net.inject(flows[i].entry, pkt);
                // Injection may stop at a stochastic element reached
                // synchronously; resolve by sampling.
                net.run_until_sampled(t_wake, rng);
            }
            // Schedule the next timer first; instant deliveries harvested
            // below may legitimately pull any wake (including agent i's
            // own) back to this instant.
            slots
                .heap
                .set_wake(i, outcome.next_wake.max(t_wake + Dur::from_micros(1)));
            slots.harvest(net);
        }

        // Tail accounting: the advance loop's `min(wake, t_end)` cap ran
        // the ground truth to exactly `t_end` and harvested the final
        // deliveries before the loop broke.
        debug_assert!(net.now() == t_end);
        Ok(slots.traces)
    }
}
