//! The TCP endpoint pair as a pure state machine — no network attached.
//!
//! [`TcpEndpoint`] is a bulk-transfer sender (congestion control, RTT
//! estimation, retransmission machinery), a cumulative-ACK receiver and
//! a fixed-delay reverse path. The reverse path is lossless — the same
//! simplification the paper makes for the ISender (§3.4) — so a
//! measured RTT is the sum of queueing, service, ARQ, propagation and
//! the reverse delay.
//!
//! The endpoint never draws randomness and never touches a `Network`:
//! transmissions accumulate in an outbox that [`TcpEndpoint::poll`]
//! drains, and the caller decides how to inject them. The scenario
//! crate's `TcpPeerAgent` adapts it to the flow driver
//! (`augur_core::run_multi_agent`), which runs every TCP download: the
//! single-flow Figure-1 experiments over a one-flow ground truth, and
//! TCP peers sharing a bottleneck with other senders.

use crate::cc::CongestionControl;
use crate::reno::RenoSignal;
use crate::rtt::RttEstimator;
use augur_elements::DropRecord;
use augur_sim::{Bits, Dur, EventQueue, FlowId, Packet, Time};
use std::collections::{BTreeSet, HashMap};

/// Configuration of a TCP run.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Segment size on the wire.
    pub packet_size: Bits,
    /// Fixed reverse-path (ACK) delay.
    pub reverse_delay: Dur,
    /// Flow id of this connection.
    pub flow: FlowId,
    /// Cap on the flight size in packets (receiver window stand-in).
    pub max_window: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            packet_size: Bits::from_bytes(1_500),
            reverse_delay: Dur::from_millis(25),
            flow: FlowId::SELF,
            max_window: 1_000,
        }
    }
}

/// What a TCP run measured.
#[derive(Debug, Clone, Default)]
pub struct TcpTrace {
    /// Per-ACK RTT samples: (ack arrival time, measured RTT).
    pub rtt_samples: Vec<(Time, Dur)>,
    /// Congestion window after every ACK: (time, cwnd in packets).
    pub cwnd_samples: Vec<(Time, f64)>,
    /// Cumulative good-put deliveries at the receiver: (time, total bits
    /// received in order).
    pub goodput: Vec<(Time, u64)>,
    /// Total segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Timeouts taken.
    pub timeouts: u64,
    /// Network drops on the path (all flows). The endpoint never sees a
    /// drop; whoever drives it fills this in from the network's log.
    pub drops: Vec<DropRecord>,
}

impl TcpTrace {
    /// Mean goodput in bits/s over the run.
    pub fn mean_goodput_bps(&self, t_end: Time) -> f64 {
        match self.goodput.last() {
            Some((_, bits)) => *bits as f64 / t_end.as_secs_f64(),
            None => 0.0,
        }
    }

    /// Max over min RTT — the bufferbloat ratio Figure 1 visualizes.
    pub fn rtt_blowup(&self) -> f64 {
        let min = self
            .rtt_samples
            .iter()
            .map(|(_, r)| r.as_micros())
            .min()
            .unwrap_or(0);
        let max = self
            .rtt_samples
            .iter()
            .map(|(_, r)| r.as_micros())
            .max()
            .unwrap_or(0);
        if min == 0 {
            0.0
        } else {
            max as f64 / min as f64
        }
    }
}

/// The co-simulated TCP sender + receiver pair, network-free.
pub struct TcpEndpoint {
    cfg: TcpConfig,

    // Sender state.
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    next_seq: u64,
    high_water: u64,
    recover: u64,
    snd_una: u64,
    sent_at: HashMap<u64, Time>,
    retransmitted: BTreeSet<u64>,
    rto_deadline: Option<Time>,
    rto_backoff: u32,

    // Receiver state.
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
    received_bits: u64,

    // Reverse path: cumulative-ACK events (ack number = next expected).
    acks: EventQueue<u64>,
    last_ack_seen: u64,

    // Packets emitted since the last poll, in transmission order.
    outbox: Vec<Packet>,
}

impl TcpEndpoint {
    /// A fresh endpoint with the given congestion-control algorithm.
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> TcpEndpoint {
        TcpEndpoint {
            cfg,
            cc,
            rtt: RttEstimator::default(),
            next_seq: 0,
            high_water: 0,
            recover: 0,
            snd_una: 0,
            sent_at: HashMap::new(),
            retransmitted: BTreeSet::new(),
            rto_deadline: None,
            rto_backoff: 0,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            received_bits: 0,
            acks: EventQueue::new(),
            last_ack_seen: 0,
            outbox: Vec::new(),
        }
    }

    /// The endpoint's configuration.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Total in-order bits the receiver has accepted.
    pub fn received_bits(&self) -> u64 {
        self.received_bits
    }

    /// The earliest internal event (ACK arrival or retransmission
    /// timeout), if any is scheduled.
    pub fn next_event_time(&self) -> Option<Time> {
        match (self.acks.peek_time(), self.rto_deadline) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, r) => r,
        }
    }

    /// The receiver accepts a delivered data packet and schedules the
    /// (possibly duplicate) cumulative ACK on the reverse path.
    pub fn on_delivery(&mut self, pkt: Packet, at: Time) {
        if pkt.seq >= self.rcv_next {
            if pkt.seq == self.rcv_next {
                self.rcv_next += 1;
                self.received_bits += pkt.size.as_u64();
                while self.out_of_order.remove(&self.rcv_next) {
                    self.rcv_next += 1;
                    self.received_bits += pkt.size.as_u64();
                }
            } else {
                self.out_of_order.insert(pkt.seq);
            }
        }
        self.acks.push(at + self.cfg.reverse_delay, self.rcv_next);
    }

    /// Process everything due at `now` — ACK arrivals, the retransmission
    /// timeout, window refill — and return the packets to inject, in
    /// order.
    pub fn poll(&mut self, now: Time, trace: &mut TcpTrace) -> Vec<Packet> {
        while self.acks.peek_time().is_some_and(|t| t <= now) {
            let (_, ack) = self.acks.pop().unwrap();
            self.sender_on_ack(ack, now, trace);
        }
        if self.rto_deadline.is_some_and(|t| t <= now) {
            self.on_timeout(now, trace);
        }
        self.fill_window(now, trace);
        std::mem::take(&mut self.outbox)
    }

    fn flight(&self) -> u64 {
        // After a timeout rewind, a late ACK from an original transmission
        // can advance snd_una past the rewound send pointer.
        self.next_seq.saturating_sub(self.snd_una)
    }

    fn fill_window(&mut self, now: Time, trace: &mut TcpTrace) {
        let window = self.cc.window().min(self.cfg.max_window);
        while self.flight() < window {
            let seq = self.next_seq;
            self.next_seq += 1;
            // After a timeout the send pointer rewinds (go-back-N), so a
            // "new" send may be a retransmission of an old sequence.
            let is_retx = seq < self.high_water;
            self.transmit(seq, now, is_retx, trace);
        }
    }

    fn transmit(&mut self, seq: u64, now: Time, is_retx: bool, trace: &mut TcpTrace) {
        self.outbox
            .push(Packet::new(self.cfg.flow, seq, self.cfg.packet_size, now));
        trace.segments_sent += 1;
        if is_retx {
            trace.retransmissions += 1;
            self.retransmitted.insert(seq);
        } else {
            self.sent_at.insert(seq, now);
        }
        self.high_water = self.high_water.max(seq + 1);
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.backed_off_rto());
        }
    }

    fn backed_off_rto(&self) -> Dur {
        self.rtt
            .rto()
            .saturating_mul(1u64 << self.rto_backoff.min(6))
    }

    fn sender_on_ack(&mut self, ack: u64, now: Time, trace: &mut TcpTrace) {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            // RTT sample from the *first* newly-acked segment — the one
            // whose delivery triggered this ACK in the in-order case —
            // and never from a retransmitted one (Karn's algorithm).
            let sample_seq = self.snd_una;
            if !self.retransmitted.contains(&sample_seq) {
                if let Some(sent) = self.sent_at.get(&sample_seq) {
                    let rtt = now.since(*sent);
                    self.rtt.observe(rtt);
                    if let Some(srtt) = self.rtt.srtt() {
                        self.cc.observe_rtt(srtt);
                    }
                    trace.rtt_samples.push((now, rtt));
                }
            }
            for s in self.snd_una..ack {
                self.sent_at.remove(&s);
                self.retransmitted.remove(&s);
            }
            self.snd_una = ack;
            self.next_seq = self.next_seq.max(ack);
            self.rto_backoff = 0;
            let was_in_recovery = self.cc.in_recovery();
            if was_in_recovery && ack < self.recover {
                // NewReno partial ACK: the next hole is at the new
                // snd_una — retransmit it immediately, stay in recovery.
                self.transmit(self.snd_una, now, true, trace);
            } else {
                self.cc.on_new_ack(newly, now);
            }
            self.rto_deadline = if self.flight() > 0 {
                Some(now + self.backed_off_rto())
            } else {
                None
            };
            trace.goodput.push((now, self.received_bits));
        } else if ack == self.last_ack_seen
            && self.flight() > 0
            && self.cc.on_dup_ack(now) == RenoSignal::FastRetransmit
        {
            self.recover = self.next_seq;
            self.transmit(self.snd_una, now, true, trace);
        }
        self.last_ack_seen = ack;
        trace.cwnd_samples.push((now, self.cc.cwnd()));
    }

    fn on_timeout(&mut self, now: Time, trace: &mut TcpTrace) {
        trace.timeouts += 1;
        self.cc.on_timeout(now);
        self.rtt.on_timeout();
        self.rto_backoff += 1;
        // Go-back-N: rewind the send pointer; everything unacknowledged
        // will be resent as the window reopens in slow start.
        self.next_seq = self.snd_una;
        self.recover = self.high_water;
        self.fill_window(now, trace); // window is 1: resends snd_una
        self.rto_deadline = Some(now + self.backed_off_rto());
        trace.cwnd_samples.push((now, self.cc.cwnd()));
    }
}
