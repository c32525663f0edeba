//! A fixed calibration kernel that gauges how fast the host runs right now.
//!
//! The benchmark shares a few cores of a busy host, whose speed for the
//! same work drifts by half or more, over seconds and over minutes. The
//! kernel is the benchmark's own code: no change to the program reaches
//! it, so its time moves with the host alone. It mixes what the
//! simulator spends its time on: copying small state vectors (network
//! clones), a binary-heap event queue, an ordered map, random reads over
//! a working set larger than L2, and floating-point arithmetic.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Host seconds the kernel takes on the reference host (a 2-vCPU
/// 2.0 GHz Xeon VM, uncontended). Timed metrics are scaled by
/// `REFERENCE_S / fastest calibration of the run`.
pub const REFERENCE_S: f64 = 0.014;

/// Words in the random-access working set (4 MiB).
const TABLE: usize = 1 << 19;
/// Words in one copied state vector (16 KiB).
const STATE: usize = 1 << 11;

/// Kernel state kept across calls, so each call touches a warm table.
pub struct Calibrator {
    table: Vec<u64>,
    state: Vec<u64>,
    /// Every call's host seconds.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            table: (0..TABLE as u64).collect(),
            state: (0..STATE as u64).collect(),
            samples: Vec::new(),
        };
        // Warm the table and the code before anything is timed.
        std::hint::black_box(c.kernel());
        c
    }

    /// Run the kernel once, timed.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(self.kernel());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// The fastest call so far: the host's speed in its least contended
    /// moment of the run.
    pub fn best(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut acc = 0u64;
        let mut heap = BinaryHeap::new();
        let mut map = BTreeMap::new();
        let mut f = 1.0f64;
        for round in 0..128u64 {
            let copy = self.state.clone();
            for _ in 0..512 {
                let r = next();
                let j = (r as usize) & (TABLE - 1);
                self.table[j] = self.table[j].wrapping_add(r);
                acc = acc.wrapping_add(self.table[(j * 7 + 3) & (TABLE - 1)]);
                heap.push(std::cmp::Reverse((r >> 40, round)));
                if heap.len() > 256 {
                    heap.pop();
                }
                map.insert(r & 0xFFF, acc);
                if map.len() > 1024 {
                    map.pop_first();
                }
                f = f * 1.000_000_1 + (r & 0xFF) as f64 * 1e-9;
            }
            self.state[(round as usize) & (STATE - 1)] ^= copy[STATE - 1 - round as usize];
        }
        acc ^ heap.len() as u64 ^ map.len() as u64 ^ f.to_bits()
    }
}
