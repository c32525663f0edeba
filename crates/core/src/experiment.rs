//! The closed loop: ground truth network + ISender, co-simulated.
//!
//! This is the harness §4 describes: "we have implemented the above design
//! … and embedded the ISENDER in an event-driven network simulation". The
//! ground truth [`Network`] runs with sampled nondeterminism; its
//! deliveries at the sender's receiver become acknowledgments (the return
//! path is lossless and instant, §3.4 — clock skew and reverse-path
//! modeling are future work in the paper and here); the sender wakes on
//! each acknowledgment and on its own timer.

use crate::driver::{DriverError, FlowDriver};
use crate::isender::SenderAgent;
use augur_elements::{DropRecord, Network, NodeId};
use augur_inference::{BeliefError, Observation};
use augur_sim::{SimRng, Time};

/// A completed run's record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// Every transmission: (sequence number, send time).
    pub sends: Vec<(u64, Time)>,
    /// Every acknowledgment: (sequence number, receive time).
    pub acks: Vec<Observation>,
    /// Total own-flow bits delivered (acknowledged) — per-flow throughput
    /// accounting for multi-sender runs, where packet sizes may differ
    /// between agents.
    pub delivered_bits: u64,
    /// Ground-truth drops, all flows (buffer overflows, stochastic loss,
    /// gate closures).
    pub drops: Vec<DropRecord>,
    /// Ground-truth cross-traffic deliveries: (seq, time, bits).
    pub cross_deliveries: Vec<(u64, Time, u64)>,
    /// Per-wake diagnostics.
    pub wakes: Vec<WakeRecord>,
}

/// Diagnostics captured at each sender wake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeRecord {
    /// Wake time.
    pub at: Time,
    /// Acknowledgments processed at this wake.
    pub acks: usize,
    /// Packets transmitted at this wake.
    pub sent: usize,
    /// Belief branch count after the update.
    pub branches: usize,
    /// Effective branch count after the update.
    pub effective: f64,
}

impl RunTrace {
    /// Sent sequence number as a step function of time — Figure 3's
    /// y-axis.
    pub fn seq_at(&self, t: Time) -> u64 {
        self.sends.iter().take_while(|(_, st)| *st <= t).count() as u64
    }

    /// Mean send rate (packets/s) over a window.
    pub fn send_rate(&self, from: Time, to: Time) -> f64 {
        let n = self
            .sends
            .iter()
            .filter(|(_, st)| *st > from && *st <= to)
            .count();
        n as f64 / to.since(from).as_secs_f64()
    }

    /// Buffer overflows recorded at the given node, per flow.
    pub fn overflows_at(&self, node: NodeId) -> Vec<&DropRecord> {
        self.drops
            .iter()
            .filter(|d| d.node == node && d.reason == augur_elements::DropReason::BufferFull)
            .collect()
    }
}

/// The ground truth side of a closed loop.
pub struct GroundTruth {
    /// The real network (sampled nondeterminism).
    pub net: Network,
    /// Where the sender's packets enter.
    pub entry: NodeId,
    /// The receiver whose deliveries become acknowledgments.
    pub rx_self: NodeId,
    /// RNG resolving the real network's choices.
    pub rng: SimRng,
}

/// Run any [`SenderAgent`] (exact-belief [`crate::ISender`], particle
/// [`crate::ParticleSender`], …) against ground truth until `t_end`. The
/// sender makes its first decision at time zero.
///
/// Thin wrapper over [`FlowDriver::closed_loop`] (see the driver docs
/// for the wake contract): the sender wakes on its own timer and at
/// each acknowledgment, its packets are injected at `truth.entry` with
/// their own flow stamp, and cross-traffic deliveries plus all
/// ground-truth drops are logged to the one trace.
pub fn run_closed_loop<S: SenderAgent>(
    truth: &mut GroundTruth,
    sender: &mut S,
    t_end: Time,
) -> Result<RunTrace, BeliefError> {
    match FlowDriver::closed_loop(truth).run(&mut [sender as &mut dyn SenderAgent], t_end) {
        Ok(mut traces) => Ok(traces.swap_remove(0)),
        Err(DriverError::Belief(e)) => Err(e),
        Err(e @ DriverError::AgentCount { .. }) => {
            unreachable!("one sender over a one-flow closed loop: {e}")
        }
    }
}
