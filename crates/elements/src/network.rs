//! The network: a graph of elements plus the event loop that drives them.
//!
//! "The network elements can be combined in various ways" (§3.1): SERIES
//! is expressed by wiring `next` pointers, DIVERTER and EITHER by nodes
//! with two successors. A [`Network`] is a *value*: cloneable, comparable
//! and hashable, because the inference engine maintains thousands of them
//! as belief-state hypotheses and compacts branches whose states have
//! reconverged (§3.2; the `augur_sim` crate doc states the integer-state
//! rule this rests on).
//!
//! # Structure sharing
//!
//! A network is split into two halves:
//!
//! * [`NetworkStructure`] — the immutable topology and parameters: routing
//!   (`next`/`alt` successors and buffer→link feeds), element
//!   configuration, rate-process schedules and trace samples, gate
//!   switching laws, buffer capacities and queue-discipline settings.
//!   Built once per blueprint by [`NetworkBuilder::build`] and shared
//!   behind an `Arc` by every hypothesis forked from it.
//! * `NetworkState` (private) — the compact mutable half: queue contents,
//!   in-flight packets, timers, gate/either phase, the clock, the pending
//!   choice, and the transient logs.
//!
//! `Network::clone` therefore copies only the state and bumps the Arc —
//! the belief engine's forks and the particle filter's resamples never
//! re-copy schedules or topology. [`PartialEq`] and [`Hash`] preserve the
//! pre-split semantics exactly (identity is the *combined* value), so
//! branch compaction and dedup behave identically.
//!
//! # Drivers
//!
//! Simulation advances with [`Network::run_until`], which processes
//! internal events in time order and *stops* whenever a nondeterministic
//! element needs a decision, returning [`Step::Pending`]. The caller
//! resolves it with [`Network::resolve`]:
//!
//! * ground truth samples the option with the seeded RNG
//!   ([`Network::run_until_sampled`] wraps this);
//! * the belief engine clones the network once per live option and
//!   resolves each clone differently — the paper's "fork".
//!
//! # Transient logs
//!
//! Deliveries and drops accumulate in logs that are **not** part of the
//! network's identity ([`PartialEq`]/[`Hash`] ignore them). Drain them
//! with [`Network::take_deliveries`]/[`Network::take_drops`] after every
//! step; the belief engine must do so before compacting, or observations
//! would be silently discarded when branches merge.

use crate::buffer::{Admission, AqmState, BufferKind, BufferParams, BufferState, Queued};
use crate::choice::{ChoiceKind, ChoiceSpec};
use crate::element::{Diverter, Element, ElementParams, ElementState, Loss, ReceiverEl};
use crate::gate::GateKind;
use crate::link::{LinkState, RateProcess};
use crate::node::{Node, NodeId, NodeParams};
use augur_obs::{DropKind, EventKind};
use augur_sim::{Bits, Delivery, Dur, FlowId, Packet, Ppm, SimRng, Time};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Flow id used for packets that pre-fill a buffer (the prior's "initial
/// fullness"). They drain through the network like any other packet but
/// belong to nobody's utility accounting.
pub const BACKLOG_FLOW: FlowId = FlowId(u16::MAX);

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Tail drop: the buffer was full.
    BufferFull,
    /// The packet hit a disconnected gate.
    GateClosed,
    /// Stochastic loss (the LOSS element).
    Stochastic,
    /// Active queue management (RED early drop or CoDel).
    Aqm,
}

impl DropReason {
    /// The wire-format mirror in the observability vocabulary.
    fn obs_kind(self) -> DropKind {
        match self {
            DropReason::BufferFull => DropKind::BufferFull,
            DropReason::GateClosed => DropKind::GateClosed,
            DropReason::Stochastic => DropKind::Stochastic,
            DropReason::Aqm => DropKind::Aqm,
        }
    }
}

/// A dropped packet, where and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DropRecord {
    /// Node at which the drop happened.
    pub node: NodeId,
    /// The packet.
    pub packet: Packet,
    /// When.
    pub at: Time,
    /// Why.
    pub reason: DropReason,
}

/// Result of [`Network::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advanced to the requested time; no decisions outstanding.
    Idle,
    /// A nondeterministic choice must be resolved before time can advance.
    Pending(ChoiceSpec),
}

/// The immutable half of a network: topology, wiring and element
/// parameters, shared (behind an `Arc`) by every hypothesis built from
/// the same blueprint.
#[derive(Debug, PartialEq, Eq)]
pub struct NetworkStructure {
    pub(crate) nodes: Vec<NodeParams>,
}

impl NetworkStructure {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// The compact mutable half of a network: everything a hypothesis fork
/// needs to copy.
#[derive(Debug, Clone)]
struct NetworkState {
    elements: Vec<ElementState>,
    now: Time,
    pending: Option<ChoiceSpec>,
    deliveries: Vec<(NodeId, Delivery)>,
    drops: Vec<DropRecord>,
}

/// A composed network of elements: an `Arc`-shared [`NetworkStructure`]
/// plus this hypothesis's private state.
#[derive(Debug)]
pub struct Network {
    structure: Arc<NetworkStructure>,
    state: NetworkState,
}

impl Clone for Network {
    fn clone(&self) -> Network {
        augur_sim::perf::count_state_clone();
        Network {
            structure: Arc::clone(&self.structure),
            state: self.state.clone(),
        }
    }
}

impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        // Transient logs are deliberately excluded: drain them before
        // comparing (the belief engine does). Forked hypotheses share one
        // structure allocation, so the pointer check settles the
        // structural half for free.
        self.state.now == other.state.now
            && self.state.pending == other.state.pending
            && self.state.elements == other.state.elements
            && (Arc::ptr_eq(&self.structure, &other.structure) || self.structure == other.structure)
    }
}
impl Eq for Network {}

// ----------------------------------------------------------------------
// Hash: reproduce the pre-split stream exactly.
//
// The legacy Network hashed (now, pending, Vec<Node>) where each Node was
// (combined element, next, alt). The ref views below re-interleave the
// split params/state halves in the legacy field order, and the enums
// mirror the legacy variant order so the derived discriminant hashes
// match. `hash_matches_legacy_fingerprints` pins the stream empirically.
// ----------------------------------------------------------------------

#[derive(Hash)]
struct NodeRef<'a> {
    element: ElementRef<'a>,
    next: &'a Option<NodeId>,
    alt: &'a Option<NodeId>,
}

#[derive(Hash)]
enum ElementRef<'a> {
    Buffer(BufferRef<'a>),
    Link(LinkRef<'a>),
    Delay(DelayRef<'a>),
    Loss(&'a Loss),
    Jitter(JitterRef<'a>),
    Pinger(PingerRef<'a>),
    Gate(GateRef<'a>),
    Either(EitherRef<'a>),
    Diverter(&'a Diverter),
    Receiver(&'a ReceiverEl),
}

#[derive(Hash)]
struct BufferRef<'a> {
    capacity: &'a Bits,
    kind: BufferKindRef<'a>,
    queue: &'a VecDeque<Queued>,
    queued_bits: &'a Bits,
}

#[derive(Hash)]
enum BufferKindRef<'a> {
    DropTail,
    Red(RedRef<'a>),
    CoDel(CoDelRef<'a>),
}

#[derive(Hash)]
struct RedRef<'a> {
    min_th: &'a Bits,
    max_th: &'a Bits,
    max_p: &'a Ppm,
    w_shift: &'a u32,
    avg_x256: &'a u64,
}

#[derive(Hash)]
struct CoDelRef<'a> {
    target: &'a Dur,
    interval: &'a Dur,
    first_above: &'a Option<Time>,
    dropping: &'a bool,
    drop_next: &'a Time,
    count: &'a u32,
}

#[derive(Hash)]
struct LinkRef<'a> {
    rate: &'a RateProcess,
    arq_loss: &'a Ppm,
    arq_retry_delay: &'a Dur,
    feed: &'a Option<NodeId>,
    in_service: &'a Option<Packet>,
    busy_until: &'a Time,
    backlog: &'a VecDeque<Packet>,
}

#[derive(Hash)]
struct DelayRef<'a> {
    delay: &'a Dur,
    in_flight: &'a VecDeque<(Time, Packet)>,
}

#[derive(Hash)]
struct JitterRef<'a> {
    p: &'a Ppm,
    extra: &'a Dur,
    in_flight: &'a VecDeque<(Time, Packet)>,
}

#[derive(Hash)]
struct PingerRef<'a> {
    interval: &'a Dur,
    size: &'a Bits,
    flow: &'a FlowId,
    next_at: &'a Time,
    next_seq: &'a u64,
}

#[derive(Hash)]
struct GateRef<'a> {
    kind: &'a GateKind,
    connected: &'a bool,
    next_decision: &'a Time,
}

#[derive(Hash)]
struct EitherRef<'a> {
    epoch: &'a Dur,
    p_switch: &'a Ppm,
    on_alt: &'a bool,
    next_decision: &'a Time,
}

/// The combined (params + state) view of node `i`, for hashing.
fn node_ref<'a>(s: &'a NetworkStructure, st: &'a [ElementState], i: usize) -> NodeRef<'a> {
    let node = &s.nodes[i];
    let element = match (&node.element, &st[i]) {
        (ElementParams::Buffer(p), ElementState::Buffer(b)) => {
            let kind = match (&p.kind, &b.aqm) {
                (BufferKind::DropTail, AqmState::DropTail) => BufferKindRef::DropTail,
                (BufferKind::Red(rp), AqmState::Red { avg_x256 }) => BufferKindRef::Red(RedRef {
                    min_th: &rp.min_th,
                    max_th: &rp.max_th,
                    max_p: &rp.max_p,
                    w_shift: &rp.w_shift,
                    avg_x256,
                }),
                (BufferKind::CoDel(cp), AqmState::CoDel(run)) => BufferKindRef::CoDel(CoDelRef {
                    target: &cp.target,
                    interval: &cp.interval,
                    first_above: &run.first_above,
                    dropping: &run.dropping,
                    drop_next: &run.drop_next,
                    count: &run.count,
                }),
                _ => unreachable!("buffer discipline params/state mismatch"),
            };
            ElementRef::Buffer(BufferRef {
                capacity: &p.capacity,
                kind,
                queue: &b.queue,
                queued_bits: &b.queued_bits,
            })
        }
        (ElementParams::Link(p), ElementState::Link(l)) => ElementRef::Link(LinkRef {
            rate: &p.rate,
            arq_loss: &p.arq_loss,
            arq_retry_delay: &p.arq_retry_delay,
            feed: &p.feed,
            in_service: &l.in_service,
            busy_until: &l.busy_until,
            backlog: &l.backlog,
        }),
        (ElementParams::Delay(p), ElementState::Delay(d)) => ElementRef::Delay(DelayRef {
            delay: &p.delay,
            in_flight: &d.in_flight,
        }),
        (ElementParams::Loss(l), ElementState::Loss) => ElementRef::Loss(l),
        (ElementParams::Jitter(p), ElementState::Jitter(j)) => ElementRef::Jitter(JitterRef {
            p: &p.p,
            extra: &p.extra,
            in_flight: &j.in_flight,
        }),
        (ElementParams::Pinger(p), ElementState::Pinger(ps)) => ElementRef::Pinger(PingerRef {
            interval: &p.interval,
            size: &p.size,
            flow: &p.flow,
            next_at: &ps.next_at,
            next_seq: &ps.next_seq,
        }),
        (ElementParams::Gate(p), ElementState::Gate(g)) => ElementRef::Gate(GateRef {
            kind: &p.kind,
            connected: &g.connected,
            next_decision: &g.next_decision,
        }),
        (ElementParams::Either(p), ElementState::Either(e)) => ElementRef::Either(EitherRef {
            epoch: &p.epoch,
            p_switch: &p.p_switch,
            on_alt: &e.on_alt,
            next_decision: &e.next_decision,
        }),
        (ElementParams::Diverter(d), ElementState::Diverter) => ElementRef::Diverter(d),
        (ElementParams::Receiver(r), ElementState::Receiver) => ElementRef::Receiver(r),
        _ => unreachable!("element params/state kind mismatch"),
    };
    NodeRef {
        element,
        next: &node.next,
        alt: &node.alt,
    }
}

impl Hash for Network {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.state.now.hash(state);
        self.state.pending.hash(state);
        // The legacy Vec<Node> hash wrote a length prefix, then each node.
        state.write_usize(self.structure.nodes.len());
        for i in 0..self.structure.nodes.len() {
            node_ref(&self.structure, &self.state.elements, i).hash(state);
        }
    }
}

impl Network {
    /// Current virtual time (the last processed instant).
    pub fn now(&self) -> Time {
        self.state.now
    }

    /// The shared immutable half.
    pub fn structure(&self) -> &NetworkStructure {
        &self.structure
    }

    /// True iff both networks share the same structure *allocation*
    /// (i.e. one is a fork of the other, or both were forked from the
    /// same build).
    pub fn shares_structure(&self, other: &Network) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.structure.nodes.len()
    }

    /// The buffer parameters at `id`.
    ///
    /// # Panics
    /// Panics if the node is not a buffer.
    pub fn buffer_params(&self, id: NodeId) -> &BufferParams {
        match &self.structure.nodes[id.0].element {
            ElementParams::Buffer(b) => b,
            other => panic!("{id} is a {}, not a Buffer", other.kind_name()),
        }
    }

    /// The buffer state at `id`.
    ///
    /// # Panics
    /// Panics if the node is not a buffer.
    pub fn buffer_state(&self, id: NodeId) -> &BufferState {
        match &self.state.elements[id.0] {
            ElementState::Buffer(b) => b,
            _ => panic!(
                "{id} is a {}, not a Buffer",
                self.structure.nodes[id.0].element.kind_name()
            ),
        }
    }

    /// Drain the delivery log.
    pub fn take_deliveries(&mut self) -> Vec<(NodeId, Delivery)> {
        std::mem::take(&mut self.state.deliveries)
    }

    /// Drain the drop log.
    pub fn take_drops(&mut self) -> Vec<DropRecord> {
        std::mem::take(&mut self.state.drops)
    }

    /// Move both transient logs onto the ends of `deliveries` and
    /// `drops`, keeping the network's own log buffers for reuse.
    pub fn drain_logs_into(&mut self, deliveries: &mut Vec<Delivery>, drops: &mut Vec<DropRecord>) {
        deliveries.extend(self.state.deliveries.drain(..).map(|(_, d)| d));
        drops.append(&mut self.state.drops);
    }

    /// True iff both transient logs are empty (precondition for
    /// comparing/compacting networks).
    pub fn logs_empty(&self) -> bool {
        self.state.deliveries.is_empty() && self.state.drops.is_empty()
    }

    /// True iff both networks will behave identically from here on under
    /// the same choice resolutions: `==` on state, except that an idle
    /// link's `busy_until` is ignored (it is stale: nothing reads it until
    /// the next `start_service` overwrites it). A pending choice on
    /// either side gives `false`. Transient logs are not compared.
    pub fn same_future(&self, other: &Network) -> bool {
        self.state.pending.is_none()
            && other.state.pending.is_none()
            && self.state.now == other.state.now
            && self.state.elements.len() == other.state.elements.len()
            && self
                .state
                .elements
                .iter()
                .zip(&other.state.elements)
                .all(|pair| match pair {
                    (ElementState::Link(a), ElementState::Link(b)) => {
                        a.in_service == b.in_service
                            && a.backlog == b.backlog
                            && (a.idle() || a.busy_until == b.busy_until)
                    }
                    (a, b) => a == b,
                })
            && (Arc::ptr_eq(&self.structure, &other.structure) || self.structure == other.structure)
    }

    /// The earliest internal event, if any element has one scheduled.
    /// Delegates to the same single timer scan the event loop runs.
    pub fn next_event_time(&self) -> Option<Time> {
        self.state.next_internal_event().map(|(t, _)| t)
    }

    /// Process internal events in time order up to and including `until`.
    /// Returns early with [`Step::Pending`] if a choice must be resolved.
    ///
    /// # Panics
    /// Panics if `until` is in the past.
    pub fn run_until(&mut self, until: Time) -> Step {
        self.state.run_until(&self.structure, until)
    }

    /// Resolve the pending choice with `option` (0 = common outcome,
    /// 1 = exceptional; see [`ChoiceKind`]). May leave a new choice
    /// pending — keep calling [`Network::run_until`].
    ///
    /// # Panics
    /// Panics if no choice is pending or the option index is not 0/1.
    pub fn resolve(&mut self, option: usize) {
        self.state.resolve(&self.structure, option)
    }

    /// Run to `until`, resolving every choice by sampling with `rng` —
    /// the ground-truth driver.
    pub fn run_until_sampled(&mut self, until: Time, rng: &mut SimRng) {
        loop {
            match self.run_until(until) {
                Step::Idle => return,
                Step::Pending(spec) => {
                    let pick = usize::from(rng.bernoulli(spec.p1));
                    self.resolve(pick);
                }
            }
        }
    }

    /// Inject a packet at `entry` at the current instant. Callers must
    /// first advance the network to the injection time with `run_until`.
    ///
    /// # Panics
    /// Panics if a choice is pending.
    pub fn inject(&mut self, entry: NodeId, pkt: Packet) {
        assert!(
            self.state.pending.is_none(),
            "inject while a choice is pending — resolve it first"
        );
        self.state.route(&self.structure, entry, pkt);
    }

    /// The instantaneous service rate of the topology's first Link
    /// element at the current instant, in bits/s — the bottleneck-rate
    /// statistic the belief snapshot channel aggregates across
    /// hypotheses. NaN when the topology has no link. Pure read: no
    /// counters, no state change.
    pub fn first_link_rate_bps(&self) -> f64 {
        self.structure
            .nodes
            .iter()
            .find_map(|n| match &n.element {
                ElementParams::Link(lp) => Some(lp.rate.rate_at(self.state.now).as_bps() as f64),
                _ => None,
            })
            .unwrap_or(f64::NAN)
    }
}

// ----------------------------------------------------------------------
// Internal machinery: the event loop, over state with read-only structure.
// ----------------------------------------------------------------------

impl NetworkState {
    /// The earliest internal event and the node whose timer fires — the
    /// single O(nodes) scan per processed event (also behind
    /// `Network::next_event_time`).
    fn next_internal_event(&self) -> Option<(Time, NodeId)> {
        self.elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.next_timer().map(|t| (t, NodeId(i))))
            .min()
    }

    fn run_until(&mut self, s: &NetworkStructure, until: Time) -> Step {
        assert!(
            until >= self.now,
            "run_until({until}) is before now ({})",
            self.now
        );
        loop {
            if let Some(p) = &self.pending {
                return Step::Pending(*p);
            }
            match self.next_internal_event() {
                Some((t, nid)) if t <= until => {
                    debug_assert!(t >= self.now, "timer in the past at {nid}");
                    self.now = t;
                    augur_sim::perf::count_event();
                    augur_obs::emit(t, EventKind::Fire { node: nid.0 as u32 });
                    self.fire(s, nid);
                }
                _ => {
                    self.now = until;
                    return Step::Idle;
                }
            }
        }
    }

    fn resolve(&mut self, s: &NetworkStructure, option: usize) {
        assert!(option < 2, "binary choice has no option {option}");
        let p = self.pending.take().expect("resolve with no pending choice");
        let nid = p.node;
        let now = self.now;
        match p.kind {
            ChoiceKind::LossFate => {
                let pkt = p.packet.expect("loss fate without packet");
                if option == 0 {
                    let next = s.nodes[nid.0].next.expect("loss must have successor");
                    self.route(s, next, pkt);
                } else {
                    self.record_drop(nid, pkt, DropReason::Stochastic);
                }
            }
            ChoiceKind::JitterFate => {
                let pkt = p.packet.expect("jitter fate without packet");
                if option == 0 {
                    let next = s.nodes[nid.0].next.expect("jitter must have successor");
                    self.route(s, next, pkt);
                } else {
                    match (&s.nodes[nid.0].element, &mut self.elements[nid.0]) {
                        (ElementParams::Jitter(jp), ElementState::Jitter(js)) => {
                            jp.hold(js, pkt, now)
                        }
                        _ => unreachable!("jitter fate at non-jitter node"),
                    }
                }
            }
            ChoiceKind::GateSwitch => match (&s.nodes[nid.0].element, &mut self.elements[nid.0]) {
                (ElementParams::Gate(gp), ElementState::Gate(gs)) => {
                    gp.decide(gs, option == 1, now)
                }
                _ => unreachable!("gate switch at non-gate node"),
            },
            ChoiceKind::EitherSwitch => {
                match (&s.nodes[nid.0].element, &mut self.elements[nid.0]) {
                    (ElementParams::Either(ep), ElementState::Either(es)) => {
                        ep.decide(es, option == 1, now)
                    }
                    _ => unreachable!("either switch at non-either node"),
                }
            }
            ChoiceKind::ArqFate => {
                if option == 0 {
                    self.complete_service(s, nid);
                } else {
                    match (&s.nodes[nid.0].element, &mut self.elements[nid.0]) {
                        (ElementParams::Link(lp), ElementState::Link(ls)) => {
                            lp.start_retransmission(ls, now)
                        }
                        _ => unreachable!("arq fate at non-link node"),
                    }
                }
            }
            ChoiceKind::RedFate => {
                let pkt = p.packet.expect("red fate without packet");
                if option == 0 {
                    match (&s.nodes[nid.0].element, &mut self.elements[nid.0]) {
                        (ElementParams::Buffer(bp), ElementState::Buffer(bs)) => {
                            bp.force_enqueue(bs, pkt, now)
                        }
                        _ => unreachable!("red fate at non-buffer node"),
                    }
                    augur_obs::emit(
                        now,
                        EventKind::Enqueue {
                            node: nid.0 as u32,
                            flow: pkt.flow,
                            seq: pkt.seq,
                        },
                    );
                } else {
                    self.record_drop(nid, pkt, DropReason::Aqm);
                }
            }
        }
    }

    fn record_drop(&mut self, node: NodeId, packet: Packet, reason: DropReason) {
        augur_obs::emit(
            self.now,
            EventKind::Drop {
                node: node.0 as u32,
                flow: packet.flow,
                seq: packet.seq,
                reason: reason.obs_kind(),
            },
        );
        self.drops.push(DropRecord {
            node,
            packet,
            at: self.now,
            reason,
        });
    }

    /// Fire the timer of node `nid` (its `next_timer()` equals `self.now`).
    fn fire(&mut self, s: &NetworkStructure, nid: NodeId) {
        let now = self.now;
        match &s.nodes[nid.0].element {
            ElementParams::Link(lp) => {
                debug_assert_eq!(self.elements[nid.0].next_timer(), Some(now));
                if !lp.arq_loss.is_zero() {
                    self.pending = Some(ChoiceSpec {
                        at: now,
                        node: nid,
                        kind: ChoiceKind::ArqFate,
                        p1: lp.arq_loss,
                        packet: None,
                    });
                } else {
                    self.complete_service(s, nid);
                }
            }
            ElementParams::Delay(_) => {
                let pkt = match &mut self.elements[nid.0] {
                    ElementState::Delay(d) => d.release(now),
                    _ => unreachable!("delay params over non-delay state"),
                };
                if let Some(pkt) = pkt {
                    let next = s.nodes[nid.0].next.expect("delay must have successor");
                    self.route(s, next, pkt);
                }
            }
            ElementParams::Jitter(_) => {
                let pkt = match &mut self.elements[nid.0] {
                    ElementState::Jitter(j) => j.release(now),
                    _ => unreachable!("jitter params over non-jitter state"),
                };
                if let Some(pkt) = pkt {
                    let next = s.nodes[nid.0].next.expect("jitter must have successor");
                    self.route(s, next, pkt);
                }
            }
            ElementParams::Pinger(pp) => {
                let pkt = match &mut self.elements[nid.0] {
                    ElementState::Pinger(ps) => pp.emit(ps, now),
                    _ => unreachable!("pinger params over non-pinger state"),
                };
                let next = s.nodes[nid.0].next.expect("pinger must have successor");
                self.route(s, next, pkt);
            }
            ElementParams::Gate(gp) => match gp.switch_choice() {
                Some(p_switch) => {
                    self.pending = Some(ChoiceSpec {
                        at: now,
                        node: nid,
                        kind: ChoiceKind::GateSwitch,
                        p1: p_switch,
                        packet: None,
                    });
                }
                None => match &mut self.elements[nid.0] {
                    // Square wave: always flip.
                    ElementState::Gate(gs) => gp.decide(gs, true, now),
                    _ => unreachable!("gate params over non-gate state"),
                },
            },
            ElementParams::Either(ep) => {
                self.pending = Some(ChoiceSpec {
                    at: now,
                    node: nid,
                    kind: ChoiceKind::EitherSwitch,
                    p1: ep.p_switch,
                    packet: None,
                });
            }
            other => unreachable!("timer fired on passive element {}", other.kind_name()),
        }
    }

    /// Take the served packet off the link, route it onward, and pull the
    /// next packet from the feed buffer (if any).
    fn complete_service(&mut self, s: &NetworkStructure, link_id: NodeId) {
        let feed = match &s.nodes[link_id.0].element {
            ElementParams::Link(lp) => lp.feed,
            other => unreachable!("complete_service on {}", other.kind_name()),
        };
        let pkt = self.link_state_mut(link_id).complete();
        // Refill the link first: upstream pull and downstream routing are
        // independent, and doing the pull first keeps any new pending
        // choice (raised while routing `pkt`) the last thing that happens.
        if let Some(buf_id) = feed {
            self.pull_feed(s, buf_id, link_id);
        } else {
            let now = self.now;
            match (&s.nodes[link_id.0].element, &mut self.elements[link_id.0]) {
                (ElementParams::Link(lp), ElementState::Link(ls)) => {
                    if let Some(next_pkt) = ls.backlog.pop_front() {
                        lp.start_service(ls, next_pkt, now);
                    }
                }
                _ => unreachable!(),
            }
        }
        let next = s.nodes[link_id.0].next.expect("link must have successor");
        self.route(s, next, pkt);
    }

    /// Dequeue from `buf_id` into the (idle) link `link_id`.
    fn pull_feed(&mut self, s: &NetworkStructure, buf_id: NodeId, link_id: NodeId) {
        let now = self.now;
        let bp = match &s.nodes[buf_id.0].element {
            ElementParams::Buffer(bp) => bp,
            other => unreachable!("pull_feed on {}", other.kind_name()),
        };
        let pull = bp.pull(self.buffer_state_mut(buf_id), now);
        for q in pull.dropped {
            self.record_drop(buf_id, q.packet, DropReason::Aqm);
        }
        if let Some(q) = pull.serve {
            match (&s.nodes[link_id.0].element, &mut self.elements[link_id.0]) {
                (ElementParams::Link(lp), ElementState::Link(ls)) => {
                    lp.start_service(ls, q.packet, now)
                }
                _ => unreachable!("feed target is {}", s.nodes[link_id.0].element.kind_name()),
            }
        }
    }

    /// Route a packet synchronously from `at_node` until it comes to rest
    /// (queued, in service, delayed, delivered, dropped) or a choice
    /// interrupts.
    fn route(&mut self, s: &NetworkStructure, mut at_node: NodeId, pkt: Packet) {
        augur_sim::perf::count_packet_forward();
        let now = self.now;
        let mut hops = 0usize;
        loop {
            hops += 1;
            assert!(
                hops <= self.elements.len() + 1,
                "routing cycle detected at {at_node}"
            );
            let (next, alt) = (s.nodes[at_node.0].next, s.nodes[at_node.0].alt);
            match &s.nodes[at_node.0].element {
                ElementParams::Receiver(_) => {
                    augur_obs::emit(
                        now,
                        EventKind::Deliver {
                            node: at_node.0 as u32,
                            flow: pkt.flow,
                            seq: pkt.seq,
                        },
                    );
                    self.deliveries.push((
                        at_node,
                        Delivery {
                            packet: pkt,
                            at: now,
                        },
                    ));
                    return;
                }
                ElementParams::Diverter(d) => {
                    at_node = if pkt.flow == d.flow {
                        next.expect("diverter must have next")
                    } else {
                        alt.expect("diverter must have alt")
                    };
                }
                ElementParams::Either(_) => {
                    let on_alt = match &self.elements[at_node.0] {
                        ElementState::Either(e) => e.on_alt,
                        _ => unreachable!("either params over non-either state"),
                    };
                    at_node = if on_alt {
                        alt.expect("either must have alt")
                    } else {
                        next.expect("either must have next")
                    };
                }
                ElementParams::Gate(_) => {
                    let connected = match &self.elements[at_node.0] {
                        ElementState::Gate(g) => g.connected,
                        _ => unreachable!("gate params over non-gate state"),
                    };
                    if connected {
                        at_node = next.expect("gate must have next");
                    } else {
                        self.record_drop(at_node, pkt, DropReason::GateClosed);
                        return;
                    }
                }
                ElementParams::Delay(dp) => {
                    match &mut self.elements[at_node.0] {
                        ElementState::Delay(ds) => dp.accept(ds, pkt, now),
                        _ => unreachable!("delay params over non-delay state"),
                    }
                    return;
                }
                ElementParams::Loss(l) => {
                    if l.p.is_zero() {
                        at_node = next.expect("loss must have next");
                    } else if l.p.is_one() {
                        self.record_drop(at_node, pkt, DropReason::Stochastic);
                        return;
                    } else {
                        self.pending = Some(ChoiceSpec {
                            at: now,
                            node: at_node,
                            kind: ChoiceKind::LossFate,
                            p1: l.p,
                            packet: Some(pkt),
                        });
                        return;
                    }
                }
                ElementParams::Jitter(jp) => {
                    if jp.p.is_zero() {
                        at_node = next.expect("jitter must have next");
                    } else {
                        self.pending = Some(ChoiceSpec {
                            at: now,
                            node: at_node,
                            kind: ChoiceKind::JitterFate,
                            p1: jp.p,
                            packet: Some(pkt),
                        });
                        return;
                    }
                }
                ElementParams::Buffer(bp) => {
                    let link_id = next.expect("buffer must feed a link");
                    // Bypass an empty buffer when the link is idle: the
                    // packet starts serializing immediately.
                    let empty = match &self.elements[at_node.0] {
                        ElementState::Buffer(bs) => bs.is_empty(),
                        _ => unreachable!("buffer params over non-buffer state"),
                    };
                    let bypass = empty
                        && match &self.elements[link_id.0] {
                            ElementState::Link(ls) => ls.idle(),
                            _ => unreachable!(
                                "buffer feeds {}",
                                s.nodes[link_id.0].element.kind_name()
                            ),
                        };
                    if bypass {
                        at_node = link_id;
                        continue;
                    }
                    match bp.offer(self.buffer_state_mut(at_node), pkt, now) {
                        Admission::Enqueued => {
                            augur_obs::emit(
                                now,
                                EventKind::Enqueue {
                                    node: at_node.0 as u32,
                                    flow: pkt.flow,
                                    seq: pkt.seq,
                                },
                            );
                            return;
                        }
                        Admission::TailDrop => {
                            self.record_drop(at_node, pkt, DropReason::BufferFull);
                            return;
                        }
                        Admission::RedChoice(p_drop) => {
                            self.pending = Some(ChoiceSpec {
                                at: now,
                                node: at_node,
                                kind: ChoiceKind::RedFate,
                                p1: p_drop,
                                packet: Some(pkt),
                            });
                            return;
                        }
                    }
                }
                ElementParams::Link(lp) => {
                    let ls = self.link_state_mut(at_node);
                    if ls.idle() {
                        lp.start_service(ls, pkt, now);
                    } else {
                        assert!(
                            lp.feed.is_none(),
                            "fed link received a direct arrival while busy"
                        );
                        ls.backlog.push_back(pkt);
                    }
                    return;
                }
                ElementParams::Pinger(_) => {
                    unreachable!("packets cannot be routed into a Pinger (it is a source)")
                }
            }
        }
    }

    fn buffer_state_mut(&mut self, id: NodeId) -> &mut BufferState {
        match &mut self.elements[id.0] {
            ElementState::Buffer(b) => b,
            _ => unreachable!("{id} is not a Buffer"),
        }
    }

    fn link_state_mut(&mut self, id: NodeId) -> &mut LinkState {
        match &mut self.elements[id.0] {
            ElementState::Link(l) => l,
            _ => unreachable!("{id} is not a Link"),
        }
    }
}

/// Builds and validates a [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    prefills: Vec<(NodeId, Bits, Bits)>, // (buffer, fill bits, packet size)
}

impl NetworkBuilder {
    /// An empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Add an element; returns its node id.
    pub fn add(&mut self, element: Element) -> NodeId {
        self.nodes.push(Node::new(element));
        NodeId(self.nodes.len() - 1)
    }

    /// SERIES: wire `from`'s primary output to `to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        assert!(
            self.nodes[from.0].next.is_none(),
            "{from} already has a successor"
        );
        self.nodes[from.0].next = Some(to);
        self
    }

    /// Wire `from`'s secondary output (DIVERTER's non-matching route,
    /// EITHER's switched route) to `to`.
    pub fn connect_alt(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        assert!(
            self.nodes[from.0].alt.is_none(),
            "{from} already has an alt successor"
        );
        self.nodes[from.0].alt = Some(to);
        self
    }

    /// Add a chain of elements wired in SERIES; returns (first, last).
    pub fn chain(&mut self, elements: Vec<Element>) -> (NodeId, NodeId) {
        assert!(!elements.is_empty(), "empty chain");
        let ids: Vec<NodeId> = elements.into_iter().map(|e| self.add(e)).collect();
        for w in ids.windows(2) {
            self.connect(w[0], w[1]);
        }
        (ids[0], *ids.last().unwrap())
    }

    /// Pre-fill a buffer with `fill` bits of backlog in `packet_size`
    /// chunks (plus one remainder packet if needed) — the prior's "initial
    /// fullness" (Figure 2 table).
    pub fn prefill(&mut self, buffer: NodeId, fill: Bits, packet_size: Bits) -> &mut Self {
        self.prefills.push((buffer, fill, packet_size));
        self
    }

    /// Validate the graph, split elements into shared structure and
    /// per-hypothesis state, wire buffer→link feeds, apply prefills, and
    /// start initial service. See module docs for the invariants.
    ///
    /// # Panics
    /// Panics on an invalid topology (dangling successors, buffer not
    /// feeding a link, cycles, over-capacity prefill, …).
    pub fn build(self) -> Network {
        augur_sim::perf::count_structure_build();
        let NetworkBuilder { nodes, prefills } = self;
        let n = nodes.len();
        assert!(n > 0, "empty network");

        // Successor discipline per element type.
        for (i, node) in nodes.iter().enumerate() {
            let id = NodeId(i);
            let needs_alt = matches!(node.element, Element::Diverter(_) | Element::Either(_));
            match node.element {
                Element::Receiver(_) => {
                    assert!(node.next.is_none(), "{id}: receiver must be terminal");
                    assert!(node.alt.is_none(), "{id}: receiver must be terminal");
                }
                _ => {
                    assert!(
                        node.next.is_some(),
                        "{id} ({}) has no successor",
                        node.element.kind_name()
                    );
                    if needs_alt {
                        assert!(
                            node.alt.is_some(),
                            "{id} ({}) needs an alt successor",
                            node.element.kind_name()
                        );
                    } else {
                        assert!(
                            node.alt.is_none(),
                            "{id} ({}) must not have an alt successor",
                            node.element.kind_name()
                        );
                    }
                }
            }
            if let Some(next) = node.next {
                assert!(next.0 < n, "{id}: successor {next} out of range");
            }
            if let Some(alt) = node.alt {
                assert!(alt.0 < n, "{id}: alt successor {alt} out of range");
            }
        }

        // Buffers must feed links; record the pull path (wired into the
        // link params during the split below).
        let mut feeds: Vec<Option<NodeId>> = vec![None; n];
        for (i, node) in nodes.iter().enumerate() {
            if let Element::Buffer(_) = node.element {
                let next = node.next.unwrap();
                match &nodes[next.0].element {
                    Element::Link(_) => {
                        assert!(feeds[next.0].is_none(), "link {next} fed by two buffers");
                        feeds[next.0] = Some(NodeId(i));
                    }
                    other => panic!("buffer n{i} must feed a Link, found {}", other.kind_name()),
                }
            }
        }

        // Acyclicity (colors: 0 = white, 1 = gray, 2 = black).
        let mut color = vec![0u8; n];
        fn dfs(nodes: &[Node], color: &mut [u8], i: usize) {
            color[i] = 1;
            for succ in [nodes[i].next, nodes[i].alt].into_iter().flatten() {
                match color[succ.0] {
                    0 => dfs(nodes, color, succ.0),
                    1 => panic!("cycle through n{}", succ.0),
                    _ => {}
                }
            }
            color[i] = 2;
        }
        for i in 0..n {
            if color[i] == 0 {
                dfs(&nodes, &mut color, i);
            }
        }

        // Split each blueprint node into its immutable/mutable halves.
        let mut params_nodes = Vec::with_capacity(n);
        let mut elements = Vec::with_capacity(n);
        for (i, node) in nodes.into_iter().enumerate() {
            let (mut p, st) = node.element.split();
            if let ElementParams::Link(lp) = &mut p {
                lp.feed = feeds[i];
            }
            params_nodes.push(NodeParams {
                element: p,
                next: node.next,
                alt: node.alt,
            });
            elements.push(st);
        }
        let structure = NetworkStructure {
            nodes: params_nodes,
        };
        let mut state = NetworkState {
            elements,
            now: Time::ZERO,
            pending: None,
            deliveries: Vec::new(),
            drops: Vec::new(),
        };

        // Prefills: backlog packets with synthetic sequence numbers.
        for (buf_id, fill, pkt_size) in prefills {
            assert!(
                pkt_size > Bits::ZERO,
                "prefill packet size must be positive"
            );
            let bp = match &structure.nodes[buf_id.0].element {
                ElementParams::Buffer(b) => b,
                other => panic!("{buf_id} is a {}, not a Buffer", other.kind_name()),
            };
            assert!(
                fill <= bp.capacity,
                "prefill {fill} exceeds capacity {} of {buf_id}",
                bp.capacity
            );
            let bs = state.buffer_state_mut(buf_id);
            let mut remaining = fill;
            let mut seq = 0u64;
            while remaining > Bits::ZERO {
                let size = remaining.min(pkt_size);
                bp.force_enqueue(
                    bs,
                    Packet::new(BACKLOG_FLOW, seq, size, Time::ZERO),
                    Time::ZERO,
                );
                seq += 1;
                remaining = remaining.saturating_sub(size);
            }
        }

        // Kick: start serving prefilled backlog immediately.
        for i in 0..n {
            if let ElementParams::Link(lp) = &structure.nodes[i].element {
                if let Some(buf_id) = lp.feed {
                    let idle = match &state.elements[i] {
                        ElementState::Link(ls) => ls.idle(),
                        _ => unreachable!(),
                    };
                    let backlogged = match &state.elements[buf_id.0] {
                        ElementState::Buffer(bs) => !bs.is_empty(),
                        _ => unreachable!(),
                    };
                    if idle && backlogged {
                        state.pull_feed(&structure, buf_id, NodeId(i));
                    }
                }
            }
        }

        Network {
            structure: Arc::new(structure),
            state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::delay::DelayEl;
    use crate::gate::Gate;
    use crate::link::Link;
    use crate::source::Pinger;
    use augur_sim::{BitRate, Dur};
    use std::collections::hash_map::DefaultHasher;

    fn pkt(seq: u64) -> Packet {
        Packet::new(FlowId::SELF, seq, Bits::new(12_000), Time::ZERO)
    }

    fn fingerprint(net: &Network) -> u64 {
        let mut h = DefaultHasher::new();
        net.hash(&mut h);
        h.finish()
    }

    /// buffer(capacity) -> link(rate) -> receiver
    fn simple_path(capacity_bits: u64, rate_bps: u64) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let (first, last) = b.chain(vec![
            Element::Buffer(Buffer::drop_tail(Bits::new(capacity_bits))),
            Element::Link(Link::constant(BitRate::from_bps(rate_bps))),
            Element::Receiver(ReceiverEl),
        ]);
        (b.build(), first, last)
    }

    #[test]
    fn packet_through_empty_path_takes_service_time() {
        let (mut net, entry, rx) = simple_path(100_000, 12_000);
        net.inject(entry, pkt(0));
        assert_eq!(net.run_until(Time::from_secs(10)), Step::Idle);
        let d = net.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, rx);
        assert_eq!(d[0].1.at, Time::from_secs(1)); // 12_000 bits @ 12_000 bps
        assert_eq!(d[0].1.packet.seq, 0);
    }

    #[test]
    fn same_future_ignores_a_stale_idle_link_busy_until() {
        let (fresh, entry, _) = simple_path(100_000, 12_000);
        let mut served = fresh.clone();
        let mut fresh = fresh;
        served.inject(entry, pkt(0));
        served.run_until(Time::from_secs(5));
        served.take_deliveries();
        fresh.run_until(Time::from_secs(5));
        // The served link is idle again but still remembers when its
        // last service ended; nothing reads that until the next start.
        assert_ne!(served, fresh);
        assert!(served.same_future(&fresh));
        assert!(fresh.same_future(&served));
        // From here on both deliver a new packet at the same instant.
        for net in [&mut served, &mut fresh] {
            net.inject(entry, pkt(1));
            net.run_until(Time::from_secs(10));
        }
        assert_eq!(served.take_deliveries(), fresh.take_deliveries());
        assert!(served.same_future(&fresh));
    }

    #[test]
    fn same_future_sees_a_differing_queue() {
        let (base, entry, _) = simple_path(100_000, 12_000);
        let (mut a, mut b) = (base.clone(), base);
        for net in [&mut a, &mut b] {
            net.inject(entry, pkt(0)); // in service
        }
        a.inject(entry, pkt(1)); // queued behind it
        b.inject(entry, pkt(2));
        assert!(!a.same_future(&b));
        // A busy link's completion instant is live state.
        let (mut c, mut d) = (a.clone(), a.clone());
        c.run_until(Time::from_millis(500));
        d.run_until(Time::from_millis(500));
        assert!(c.same_future(&d));
        let mut late = a.clone();
        late.run_until(Time::from_millis(400));
        assert!(!late.same_future(&c), "different clocks");
    }

    #[test]
    fn same_future_is_false_while_a_choice_is_pending() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Loss(Loss {
                p: Ppm::from_prob(0.5),
            }),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();
        net.inject(entry, pkt(0));
        assert!(matches!(net.run_until(Time::ZERO), Step::Pending(_)));
        let twin = net.clone();
        assert_eq!(net, twin);
        assert!(!net.same_future(&twin));
        net.resolve(0);
        let mut twin = twin;
        twin.resolve(0);
        assert!(net.same_future(&twin));
    }

    #[test]
    fn queueing_delays_successive_packets() {
        let (mut net, entry, _) = simple_path(1_000_000, 12_000);
        // Three back-to-back packets: deliveries at 1s, 2s, 3s.
        for i in 0..3 {
            net.inject(entry, pkt(i));
        }
        net.run_until(Time::from_secs(10));
        let d = net.take_deliveries();
        let times: Vec<Time> = d.iter().map(|(_, d)| d.at).collect();
        assert_eq!(
            times,
            vec![Time::from_secs(1), Time::from_secs(2), Time::from_secs(3)]
        );
    }

    #[test]
    fn tail_drop_when_buffer_full() {
        // Capacity for exactly one queued packet (one more is in service).
        let (mut net, entry, _) = simple_path(12_000, 12_000);
        net.inject(entry, pkt(0)); // into service (bypass)
        net.inject(entry, pkt(1)); // queued
        net.inject(entry, pkt(2)); // dropped
        net.run_until(Time::from_secs(10));
        assert_eq!(net.take_deliveries().len(), 2);
        let drops = net.take_drops();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].packet.seq, 2);
        assert_eq!(drops[0].reason, DropReason::BufferFull);
    }

    #[test]
    fn loss_surfaces_choice_and_resolves_both_ways() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Loss(Loss {
                p: Ppm::from_prob(0.25),
            }),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();

        net.inject(entry, pkt(0));
        match net.run_until(Time::from_secs(1)) {
            Step::Pending(spec) => {
                assert_eq!(spec.kind, ChoiceKind::LossFate);
                assert!((spec.prob(1) - 0.25).abs() < 1e-9);
                net.resolve(0); // delivered
            }
            s => panic!("expected pending, got {s:?}"),
        }
        assert_eq!(net.run_until(Time::from_secs(1)), Step::Idle);
        assert_eq!(net.take_deliveries().len(), 1);

        net.inject(entry, pkt(1));
        match net.run_until(Time::from_secs(1)) {
            Step::Pending(_) => net.resolve(1), // lost
            s => panic!("expected pending, got {s:?}"),
        }
        let drops = net.take_drops();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].reason, DropReason::Stochastic);
    }

    #[test]
    fn deterministic_loss_shortcuts() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Loss(Loss { p: Ppm::ZERO }),
            Element::Loss(Loss { p: Ppm::ONE }),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();
        net.inject(entry, pkt(0));
        assert_eq!(net.run_until(Time::from_secs(1)), Step::Idle);
        assert!(net.take_deliveries().is_empty());
        assert_eq!(net.take_drops().len(), 1);
    }

    #[test]
    fn diverter_routes_by_flow() {
        let mut b = NetworkBuilder::new();
        let div = b.add(Element::Diverter(Diverter { flow: FlowId::SELF }));
        let rx_self = b.add(Element::Receiver(ReceiverEl));
        let rx_other = b.add(Element::Receiver(ReceiverEl));
        b.connect(div, rx_self);
        b.connect_alt(div, rx_other);
        let mut net = b.build();
        net.inject(div, pkt(0));
        net.inject(
            div,
            Packet::new(FlowId::CROSS, 0, Bits::new(100), Time::ZERO),
        );
        let d = net.take_deliveries();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, rx_self);
        assert_eq!(d[1].0, rx_other);
    }

    #[test]
    fn closed_gate_drops() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Gate(Gate::square_wave(Dur::from_secs(100), false)),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();
        net.inject(entry, pkt(0));
        let drops = net.take_drops();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].reason, DropReason::GateClosed);
    }

    #[test]
    fn square_wave_gate_opens_on_schedule() {
        let mut b = NetworkBuilder::new();
        let pinger = b.add(Element::Pinger(Pinger::new(
            Dur::from_secs(1),
            Bits::new(100),
            FlowId::CROSS,
            Time::ZERO,
        )));
        let gate = b.add(Element::Gate(Gate::square_wave(Dur::from_secs(3), false)));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(pinger, gate);
        b.connect(gate, rx);
        let mut net = b.build();
        net.run_until(Time::from_secs(10));
        // Gate closed 0..3s (pings at 0,1,2,3-eps...), open 3..6, closed 6..9, open 9..
        // Pings at t=0,1,2 dropped; gate flips at 3 (before ping at 3 — node
        // order: pinger node 0 fires before gate node 1 at equal times, so
        // the ping at t=3 hits the still-closed gate... no: both timers fire
        // at t=3 and the pinger has the lower node id, so it fires first and
        // is dropped; then the gate opens. Pings 4,5 delivered; 6 dropped
        // (gate re-closes at 6 after pinger fires? pinger fires first at 6,
        // gate still open → delivered); so pings 4,5,6 delivered, 7,8 dropped,
        // 9 delivered (pinger first at 9? gate flips at 9: pinger node 0
        // fires first while gate still closed → dropped), 10 delivered.
        let delivered: Vec<u64> = net
            .take_deliveries()
            .iter()
            .map(|(_, d)| d.packet.sent_at.as_micros() / 1_000_000)
            .collect();
        assert_eq!(delivered, vec![4, 5, 6, 10]);
    }

    #[test]
    fn prefill_drains_before_new_arrivals() {
        let mut b = NetworkBuilder::new();
        let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(96_000))));
        let link = b.add(Element::Link(Link::constant(BitRate::from_bps(12_000))));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(buf, link);
        b.connect(link, rx);
        b.prefill(buf, Bits::new(24_000), Bits::new(12_000));
        let mut net = b.build();
        // Two backlog packets at 1 pkt/s: our packet injected at t=0 is
        // delivered third, at t=3.
        net.inject(buf, pkt(0));
        net.run_until(Time::from_secs(10));
        let d = net.take_deliveries();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].1.packet.flow, BACKLOG_FLOW);
        assert_eq!(d[2].1.packet.flow, FlowId::SELF);
        assert_eq!(d[2].1.at, Time::from_secs(3));
    }

    #[test]
    fn prefill_with_remainder_packet() {
        let mut b = NetworkBuilder::new();
        let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(96_000))));
        let link = b.add(Element::Link(Link::constant(BitRate::from_bps(12_000))));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(buf, link);
        b.connect(link, rx);
        b.prefill(buf, Bits::new(30_000), Bits::new(12_000));
        let mut net = b.build();
        net.run_until(Time::from_secs(10));
        let d = net.take_deliveries();
        // 12_000 + 12_000 + 6_000 bits → three packets.
        assert_eq!(d.len(), 3);
        assert_eq!(d[2].1.packet.size, Bits::new(6_000));
        // 1s + 1s + 0.5s of service.
        assert_eq!(d[2].1.at, Time::from_micros(2_500_000));
    }

    #[test]
    fn networks_with_same_history_compare_equal() {
        let (mut a, entry, _) = simple_path(50_000, 12_000);
        let (mut b, _, _) = simple_path(50_000, 12_000);
        a.inject(entry, pkt(0));
        b.inject(entry, pkt(0));
        a.run_until(Time::from_secs(5));
        b.run_until(Time::from_secs(5));
        a.take_deliveries();
        b.take_deliveries();
        assert!(a.logs_empty() && b.logs_empty());
        // Separately-built structures: equality falls back to the deep
        // comparison (no shared allocation).
        assert!(!a.shares_structure(&b));
        assert_eq!(a, b);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn diverged_then_reconverged_states_compact() {
        // Two branches: one lost a packet at the last-mile LOSS, one
        // delivered it. After the delivery leaves the network, states are
        // identical — the paper's compaction argument (§3.2).
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Buffer(Buffer::drop_tail(Bits::new(96_000))),
            Element::Link(Link::constant(BitRate::from_bps(12_000))),
            Element::Loss(Loss {
                p: Ppm::from_prob(0.2),
            }),
            Element::Receiver(ReceiverEl),
        ]);
        let net0 = b.build();

        let mut lost = net0.clone();
        let mut delivered = net0.clone();
        for net in [&mut lost, &mut delivered] {
            net.inject(entry, pkt(0));
        }
        match lost.run_until(Time::from_secs(2)) {
            Step::Pending(_) => lost.resolve(1),
            s => panic!("{s:?}"),
        }
        match delivered.run_until(Time::from_secs(2)) {
            Step::Pending(_) => delivered.resolve(0),
            s => panic!("{s:?}"),
        }
        assert_eq!(lost.run_until(Time::from_secs(2)), Step::Idle);
        assert_eq!(delivered.run_until(Time::from_secs(2)), Step::Idle);
        lost.take_drops();
        delivered.take_deliveries();
        // Forks keep sharing one structure allocation, compare equal, and
        // hash identically — the dedup map folds them into one branch.
        assert!(lost.shares_structure(&delivered));
        assert_eq!(lost, delivered);
        assert_eq!(fingerprint(&lost), fingerprint(&delivered));
    }

    #[test]
    fn clone_shares_structure_and_copies_only_state() {
        let (net, entry, _) = simple_path(50_000, 12_000);
        let before = augur_sim::perf::snapshot();
        let mut fork = net.clone();
        let d = augur_sim::perf::snapshot().since(&before);
        assert_eq!(d.state_clones, 1, "clone is a state copy");
        assert_eq!(d.structures_built, 0, "clone builds no structure");
        assert!(fork.shares_structure(&net));

        fork.inject(entry, pkt(0));
        fork.run_until(Time::from_secs(1));
        fork.take_deliveries();
        assert!(
            fork.shares_structure(&net),
            "running mutates only the state half"
        );
        assert_ne!(fork, net, "diverged state compares unequal");
    }

    #[test]
    fn run_until_sampled_resolves_everything() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Loss(Loss {
                p: Ppm::from_prob(0.5),
            }),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();
        let mut rng = SimRng::seed_from_u64(7);
        let mut delivered = 0;
        let mut dropped = 0;
        for i in 0..200 {
            net.inject(entry, pkt(i));
            // inject may leave a pending choice; sampled run resolves it.
            if let Step::Pending(spec) = net.run_until(net.now()) {
                let pick = usize::from(rng.bernoulli(spec.p1));
                net.resolve(pick);
            }
            delivered += net.take_deliveries().len();
            dropped += net.take_drops().len();
        }
        assert_eq!(delivered + dropped, 200);
        assert!(delivered > 60 && dropped > 60, "{delivered}/{dropped}");
    }

    #[test]
    #[should_panic(expected = "must feed a Link")]
    fn buffer_must_feed_link() {
        let mut b = NetworkBuilder::new();
        let (..) = b.chain(vec![
            Element::Buffer(Buffer::drop_tail(Bits::new(1_000))),
            Element::Delay(DelayEl::new(Dur::ZERO)),
            Element::Receiver(ReceiverEl),
        ]);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        let mut b = NetworkBuilder::new();
        let d1 = b.add(Element::Delay(DelayEl::new(Dur::from_secs(1))));
        let d2 = b.add(Element::Delay(DelayEl::new(Dur::from_secs(1))));
        b.connect(d1, d2);
        b.connect(d2, d1);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "has no successor")]
    fn dangling_node_rejected() {
        let mut b = NetworkBuilder::new();
        b.add(Element::Delay(DelayEl::new(Dur::ZERO)));
        let _ = b.build();
    }

    #[test]
    fn either_routes_and_switches() {
        use crate::gate::Either;
        let mut b = NetworkBuilder::new();
        let either = b.add(Element::Either(Either::new(
            Dur::from_secs(2),
            Dur::from_secs(1),
            false,
        )));
        let rx_primary = b.add(Element::Receiver(ReceiverEl));
        let rx_alt = b.add(Element::Receiver(ReceiverEl));
        b.connect(either, rx_primary);
        b.connect_alt(either, rx_alt);
        let mut net = b.build();

        net.inject(either, pkt(0));
        // Resolve the first epoch decision as "switch".
        match net.run_until(Time::from_secs(1)) {
            Step::Pending(spec) => {
                assert_eq!(spec.kind, ChoiceKind::EitherSwitch);
                net.resolve(1);
            }
            s => panic!("expected pending switch, got {s:?}"),
        }
        assert!(matches!(
            net.run_until(Time::from_secs(2)),
            Step::Pending(_)
        ));
        net.resolve(0); // second epoch: stay switched
        net.inject(either, pkt(1));
        let d = net.take_deliveries();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, rx_primary, "pre-switch packet on primary");
        assert_eq!(d[1].0, rx_alt, "post-switch packet on alt");
    }

    #[test]
    fn jitter_forks_and_delays_exceptional_path() {
        use crate::delay::JitterEl;
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Jitter(JitterEl::new(Ppm::from_prob(0.5), Dur::from_millis(200))),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();

        net.inject(entry, pkt(0));
        match net.run_until(Time::from_secs(1)) {
            Step::Pending(spec) => {
                assert_eq!(spec.kind, ChoiceKind::JitterFate);
                net.resolve(1); // jittered
            }
            s => panic!("{s:?}"),
        }
        assert_eq!(net.run_until(Time::from_secs(1)), Step::Idle);
        let d = net.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.at, Time::from_millis(200));

        net.inject(entry, pkt(1));
        match net.run_until(Time::from_secs(1)) {
            Step::Pending(_) => net.resolve(0), // untouched: delivered now
            s => panic!("{s:?}"),
        }
        let d = net.take_deliveries();
        assert_eq!(d[0].1.at, Time::from_secs(1));
    }

    #[test]
    fn delay_element_adds_latency() {
        let mut b = NetworkBuilder::new();
        let (entry, _) = b.chain(vec![
            Element::Delay(DelayEl::new(Dur::from_millis(40))),
            Element::Receiver(ReceiverEl),
        ]);
        let mut net = b.build();
        net.inject(entry, pkt(0));
        net.run_until(Time::from_secs(1));
        let d = net.take_deliveries();
        assert_eq!(d[0].1.at, Time::from_millis(40));
    }

    /// The split representation must produce the exact hash stream of the
    /// pre-split `Network` (one `Vec<Node>` of combined elements): these
    /// constants were captured from that implementation with
    /// `DefaultHasher`. They pin identity across the refactor — branch
    /// dedup and compaction rely on it. If std's `DefaultHasher` ever
    /// changes algorithm, re-capture and re-pin.
    #[test]
    fn hash_matches_legacy_fingerprints() {
        use crate::delay::JitterEl;
        use crate::gate::Either;

        const NET1_FRESH: u64 = 0xc1e9819e15c7b6e5;
        const NET1_RUN: u64 = 0x442a52afefc1dc04;
        const NET2_FRESH: u64 = 0x933563783a76a0b6;
        const NET2_RUN: u64 = 0x28076dd6aa36066a;
        const NET3_PENDING: u64 = 0x85b993fdc228d76d;

        // Net 1: the full Figure-2 element set via a model-like chain.
        let mut b = NetworkBuilder::new();
        let pinger = b.add(Element::Pinger(Pinger::new(
            Dur::from_millis(700),
            Bits::new(12_000),
            FlowId::CROSS,
            Time::ZERO,
        )));
        let gate = b.add(Element::Gate(Gate::intermittent(
            Dur::from_secs(100),
            Dur::from_secs(1),
            true,
        )));
        let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(96_000))));
        let link = b.add(Element::Link(Link::constant(BitRate::from_bps(12_000))));
        let loss = b.add(Element::Loss(Loss {
            p: Ppm::from_prob(0.2),
        }));
        let div = b.add(Element::Diverter(Diverter { flow: FlowId::SELF }));
        let rx_self = b.add(Element::Receiver(ReceiverEl));
        let rx_cross = b.add(Element::Receiver(ReceiverEl));
        b.connect(pinger, gate);
        b.connect(gate, buf);
        b.connect(buf, link);
        b.connect(link, loss);
        b.connect(loss, div);
        b.connect(div, rx_self);
        b.connect_alt(div, rx_cross);
        b.prefill(buf, Bits::new(24_000), Bits::new(12_000));
        let mut net1 = b.build();
        assert_eq!(fingerprint(&net1), NET1_FRESH);
        let mut rng = SimRng::seed_from_u64(42);
        net1.inject(
            buf,
            Packet::new(FlowId::SELF, 0, Bits::new(12_000), Time::ZERO),
        );
        net1.run_until_sampled(Time::from_micros(4_321_000), &mut rng);
        net1.take_deliveries();
        net1.take_drops();
        assert_eq!(fingerprint(&net1), NET1_RUN);

        // Net 2: RED + CoDel + Delay + Jitter + ARQ link with schedule rate.
        let mut b = NetworkBuilder::new();
        let red = b.add(Element::Buffer(Buffer::red(
            Bits::new(48_000),
            Bits::new(6_000),
            Bits::new(24_000),
            Ppm::from_prob(0.1),
            2,
        )));
        let l1 = b.add(Element::Link(Link::new(
            RateProcess::Schedule {
                steps: vec![
                    (Dur::ZERO, BitRate::from_bps(24_000)),
                    (Dur::from_secs(2), BitRate::from_bps(6_000)),
                ],
                period: Dur::from_secs(4),
            },
            Ppm::from_prob(0.1),
            Dur::from_millis(40),
        )));
        let codel = b.add(Element::Buffer(Buffer::codel(
            Bits::new(48_000),
            Dur::from_millis(5),
            Dur::from_millis(100),
        )));
        let l2 = b.add(Element::Link(Link::constant(BitRate::from_bps(9_600))));
        let delay = b.add(Element::Delay(DelayEl::new(Dur::from_millis(25))));
        let jit = b.add(Element::Jitter(JitterEl::new(
            Ppm::from_prob(0.3),
            Dur::from_millis(200),
        )));
        let rx = b.add(Element::Receiver(ReceiverEl));
        b.connect(red, l1);
        b.connect(l1, codel);
        b.connect(codel, l2);
        b.connect(l2, delay);
        b.connect(delay, jit);
        b.connect(jit, rx);
        let mut net2 = b.build();
        assert_eq!(fingerprint(&net2), NET2_FRESH);
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..6 {
            net2.run_until_sampled(Time::from_millis(300 * i), &mut rng);
            net2.inject(
                red,
                Packet::new(FlowId::SELF, i, Bits::new(12_000), net2.now()),
            );
        }
        net2.run_until_sampled(Time::from_millis(2_100), &mut rng);
        net2.take_deliveries();
        net2.take_drops();
        assert_eq!(fingerprint(&net2), NET2_RUN);

        // Net 3: Either + a pending choice left unresolved.
        let mut b = NetworkBuilder::new();
        let either = b.add(Element::Either(Either::new(
            Dur::from_secs(2),
            Dur::from_secs(1),
            false,
        )));
        let lossy = b.add(Element::Loss(Loss {
            p: Ppm::from_prob(0.5),
        }));
        let rx1 = b.add(Element::Receiver(ReceiverEl));
        let rx2 = b.add(Element::Receiver(ReceiverEl));
        b.connect(either, lossy);
        b.connect(lossy, rx1);
        b.connect_alt(either, rx2);
        let mut net3 = b.build();
        net3.inject(
            either,
            Packet::new(FlowId::SELF, 9, Bits::new(8_000), Time::ZERO),
        );
        match net3.run_until(Time::from_millis(500)) {
            Step::Pending(_) => {}
            s => panic!("{s:?}"),
        }
        assert_eq!(fingerprint(&net3), NET3_PENDING);
    }
}
