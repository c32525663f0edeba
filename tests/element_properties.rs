//! Property tests on the element language: conservation, ordering and
//! rate conformance must hold for arbitrary bottleneck parameters and
//! arbitrary workloads.
//!
//! Each property runs a fixed number of cases. Case `k` draws its inputs
//! from `SimRng::seed_from_u64(k)`, and every assertion names that seed,
//! so a failing case can be replayed on its own.

use augur::prelude::*;

/// Run `property` on cases `0..cases`, each with its own seeded RNG.
fn for_cases(cases: u64, mut property: impl FnMut(u64, &mut SimRng)) {
    for seed in 0..cases {
        property(seed, &mut SimRng::seed_from_u64(seed));
    }
}

/// Uniform integer in `[lo, hi)`.
fn draw(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    rng.uniform_u64(lo, hi - 1)
}

/// A sorted workload of `[1, max_len)` sends at times in `[0, t_ms)` ms
/// with sizes in `[bits_lo, bits_hi)`.
fn workload(
    rng: &mut SimRng,
    max_len: u64,
    t_ms: u64,
    (bits_lo, bits_hi): (u64, u64),
) -> Vec<(u64, u64)> {
    let n = draw(rng, 1, max_len);
    let mut sends: Vec<(u64, u64)> = (0..n)
        .map(|_| (draw(rng, 0, t_ms), draw(rng, bits_lo, bits_hi)))
        .collect();
    sends.sort();
    sends
}

/// Build buffer → link → receiver and push a workload through it.
fn run_path(
    capacity_bits: u64,
    rate_bps: u64,
    sends: &[(u64, u64)], // (time_ms, size_bits)
    horizon_s: u64,
) -> (Vec<(u64, Time)>, usize, usize) {
    let mut b = NetworkBuilder::new();
    let buf = b.add(Element::Buffer(augur::elements::Buffer::drop_tail(
        Bits::new(capacity_bits),
    )));
    let link = b.add(Element::Link(augur::elements::Link::constant(
        BitRate::from_bps(rate_bps),
    )));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buf, link);
    b.connect(link, rx);
    let mut net = b.build();

    for (i, &(t_ms, bits)) in sends.iter().enumerate() {
        net.run_until(Time::from_millis(t_ms));
        net.inject(
            buf,
            Packet::new(
                FlowId::SELF,
                i as u64,
                Bits::new(bits.max(1)),
                Time::from_millis(t_ms),
            ),
        );
    }
    net.run_until(Time::from_secs(horizon_s));
    let deliveries: Vec<(u64, Time)> = net
        .take_deliveries()
        .into_iter()
        .map(|(_, d)| (d.packet.seq, d.at))
        .collect();
    let drops = net.take_drops().len();
    let in_flight = sends.len() - deliveries.len() - drops;
    (deliveries, drops, in_flight)
}

/// Every injected packet is delivered, dropped, or still in flight.
#[test]
fn conservation() {
    for_cases(64, |seed, rng| {
        let capacity = draw(rng, 12_000, 200_000);
        let rate = draw(rng, 1_000, 1_000_000);
        let sends = workload(rng, 40, 5_000, (100, 12_000));
        let n = sends.len();
        let (deliveries, drops, in_flight) = run_path(capacity, rate, &sends, 10_000);
        assert_eq!(deliveries.len() + drops + in_flight, n, "case seed {seed}");
        // 10,000 s is far beyond any queue's drain time here.
        assert_eq!(in_flight, 0, "case seed {seed}: packets vanished in flight");
    });
}

/// FIFO: deliveries leave in injection order with nondecreasing times.
#[test]
fn fifo_ordering() {
    for_cases(64, |seed, rng| {
        let rate = draw(rng, 1_000, 100_000);
        let sends = workload(rng, 30, 3_000, (1_000, 12_000));
        // Huge buffer: no drops, pure queueing.
        let (deliveries, drops, _) = run_path(10_000_000, rate, &sends, 10_000);
        assert_eq!(drops, 0, "case seed {seed}");
        for w in deliveries.windows(2) {
            assert!(w[0].0 < w[1].0, "case seed {seed}: sequence order violated");
            assert!(
                w[0].1 <= w[1].1,
                "case seed {seed}: delivery times non-monotone"
            );
        }
    });
}

/// The link never delivers faster than its rate allows: the k-th
/// delivery cannot complete before the serialization time of
/// everything delivered up to and including it.
#[test]
fn rate_conformance() {
    for_cases(64, |seed, rng| {
        let rate = draw(rng, 1_000, 200_000);
        let sends = workload(rng, 25, 1_000, (1_000, 12_000));
        let (deliveries, _, _) = run_path(10_000_000, rate, &sends, 10_000);
        let mut bits_so_far = 0u64;
        for (i, &(seq, at)) in deliveries.iter().enumerate() {
            bits_so_far += sends[seq as usize].1.max(1);
            // Serialization of `bits_so_far` bits takes at least this long.
            let min_us = bits_so_far as u128 * 1_000_000 / rate as u128;
            assert!(
                at.as_micros() as u128 >= min_us,
                "case seed {seed}: delivery {i} at {at} beats the link rate"
            );
        }
    });
}

/// Tail-drop honors capacity: with sends batched at t=0, everything
/// beyond (capacity + one in service) drops.
#[test]
fn tail_drop_capacity() {
    for_cases(64, |seed, rng| {
        let pkts = draw(rng, 2, 30);
        let capacity_pkts = draw(rng, 1, 10);
        let sends: Vec<(u64, u64)> = (0..pkts).map(|_| (0u64, 12_000u64)).collect();
        let (deliveries, drops, _) = run_path(capacity_pkts * 12_000, 12_000, &sends, 10_000);
        let kept = (capacity_pkts + 1).min(pkts); // queue + in service
        assert_eq!(deliveries.len() as u64, kept, "case seed {seed}");
        assert_eq!(drops as u64, pkts - kept, "case seed {seed}");
    });
}

/// The utility identity the paper quotes (TXT3):
/// Σ e^(−t/(1000r)) = 1/(1 − e^(−1/(1000r))) ≈ 1000r + 0.5.
#[test]
fn utility_stream_identity() {
    for_cases(32, |seed, rng| {
        let r = 0.01 + rng.uniform_f64() * (1_000.0 - 0.01);
        let exact = augur::core::discounted_stream_sum(r);
        let approx = 1000.0 * r + 0.5;
        let rel = (exact - approx).abs() / exact;
        assert!(
            rel < 0.01,
            "case seed {seed}: r={r}: exact={exact}, approx={approx}"
        );
    });
}

/// Discounting is monotone: later delivery is never worth more.
#[test]
fn discount_monotone() {
    for_cases(32, |seed, rng| {
        let tau1 = rng.uniform_f64() * 1e6;
        let dtau = rng.uniform_f64() * 1e6;
        let u = augur::core::DiscountedThroughput::own_only();
        assert!(
            u.discount(tau1) >= u.discount(tau1 + dtau),
            "case seed {seed}: tau1={tau1}, dtau={dtau}"
        );
    });
}
