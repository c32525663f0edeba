//! Single-flow TCP on the flow driver.
//!
//! 1. The shipped TCP closed-loop experiments (fig1, ext-aqm,
//!    replay-cellular) are pinned by an FNV-1a digest of their 20 s
//!    sweep CSVs, so any change to how a TCP download is driven shows up
//!    as a digest mismatch.
//! 2. The TCP baseline's behaviour over hand-built paths: one
//!    [`TcpPeerAgent`] driven through [`run_multi_agent`] over a one-flow
//!    [`MultiFlowTruth`], exactly as the scenario runner drives a
//!    `tcp-reno` / `tcp-cubic` closed loop.

use augur_core::{run_multi_agent, FlowEndpoint, MultiFlowTruth, SenderAgent};
use augur_elements::{Buffer, Element, Link, Network, NetworkBuilder, NodeId, ReceiverEl};
use augur_scenario::{load_shipped, SweepRunner, TcpPeerAgent};
use augur_sim::{BitRate, Bits, Dur, SimRng, Time};
use augur_tcp::{CongestionControl, Cubic, Reno, TcpConfig, TcpTrace};

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(spec name, digest of its 20 s sweep CSV)`, recorded while single-flow
/// TCP still ran on a private event loop of its own.
const CSV_PINS: [(&str, u64); 3] = [
    ("fig1", 0x8d96_3a78_4bc3_ef91),
    ("ext-aqm", 0x8679_bb58_2304_8ad2),
    ("replay-cellular", 0x4bac_4558_596d_949d),
];

#[test]
fn shipped_tcp_closed_loops_match_their_pinned_csvs() {
    for (name, digest) in CSV_PINS {
        let mut grid = load_shipped(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        grid.set_duration(Dur::from_secs(20));
        let csv = SweepRunner::serial().run(&grid.expand()).to_csv_string();
        assert_eq!(fnv1a(&csv), digest, "{name}: sweep CSV changed:\n{csv}");
    }
}

/// buffer → link → receiver with the given rate and buffer depth.
fn path(rate_kbps: u64, buffer_pkts: u64) -> (Network, NodeId, NodeId) {
    let mut b = NetworkBuilder::new();
    let buf = b.add(Element::Buffer(Buffer::drop_tail(Bits::new(
        buffer_pkts * 12_000,
    ))));
    let link = b.add(Element::Link(Link::constant(BitRate::from_kbps(rate_kbps))));
    let rx = b.add(Element::Receiver(ReceiverEl));
    b.connect(buf, link);
    b.connect(link, rx);
    (b.build(), buf, rx)
}

/// A TCP bulk download over `net` until `t_end`: one [`TcpPeerAgent`]
/// on the flow driver, with the network's choices sampled from `seed`.
fn download(
    (net, entry, rx): (Network, NodeId, NodeId),
    cfg: TcpConfig,
    seed: u64,
    cc: Box<dyn CongestionControl>,
    t_end: Time,
) -> TcpTrace {
    let mut truth = MultiFlowTruth::new(
        net,
        vec![FlowEndpoint { entry, rx }],
        SimRng::seed_from_u64(seed),
    )
    .expect("one flow");
    let mut tcp = TcpPeerAgent::new(cfg, cc);
    let mut traces =
        run_multi_agent(&mut truth, &mut [&mut tcp as &mut dyn SenderAgent], t_end).unwrap();
    tcp.trace.drops = traces.swap_remove(0).drops;
    tcp.trace
}

fn reno() -> Box<dyn CongestionControl> {
    Box::<Reno>::default()
}

#[test]
fn tcp_fills_a_clean_pipe() {
    // Receiver-window-limited: the 64-packet window never overflows
    // the 100-packet buffer, so the pipe is genuinely loss-free.
    let cfg = TcpConfig {
        max_window: 64,
        ..TcpConfig::default()
    };
    let trace = download(path(1_000, 100), cfg, 1, reno(), Time::from_secs(60));
    // 1 Mbps link, long run: goodput should be close to the link rate.
    let goodput = trace.mean_goodput_bps(Time::from_secs(60));
    assert!(
        goodput > 800_000.0,
        "goodput {goodput} bps on a 1 Mbps link"
    );
    assert_eq!(trace.timeouts, 0, "clean pipe should not time out");
}

#[test]
fn shallow_buffer_causes_loss_and_recovery() {
    let trace = download(
        path(1_000, 5),
        TcpConfig::default(),
        2,
        reno(),
        Time::from_secs(60),
    );
    assert!(
        !trace.drops.is_empty(),
        "5-packet buffer must overflow under Reno"
    );
    assert!(trace.retransmissions > 0);
    // Still gets decent goodput via fast retransmit.
    let goodput = trace.mean_goodput_bps(Time::from_secs(60));
    assert!(goodput > 500_000.0, "goodput {goodput}");
}

#[test]
fn deep_buffer_inflates_rtt() {
    let run = |buffer_pkts| {
        download(
            path(500, buffer_pkts),
            TcpConfig::default(),
            3,
            reno(),
            Time::from_secs(60),
        )
    };
    let (shallow, deep) = (run(10), run(400));
    let max_rtt = |t: &TcpTrace| {
        t.rtt_samples
            .iter()
            .map(|(_, r)| r.as_micros())
            .max()
            .unwrap_or(0)
    };
    assert!(
        max_rtt(&deep) > 4 * max_rtt(&shallow),
        "deep {}us vs shallow {}us",
        max_rtt(&deep),
        max_rtt(&shallow)
    );
}

#[test]
fn rtt_samples_skip_retransmissions() {
    let trace = download(
        path(1_000, 3),
        TcpConfig::default(),
        4,
        reno(),
        Time::from_secs(30),
    );
    // All RTT samples must be plausible (>= service time of one
    // packet): retransmission ambiguity would produce wild samples.
    for (_, rtt) in &trace.rtt_samples {
        assert!(*rtt >= Dur::from_millis(12), "implausible rtt {rtt}");
    }
}

#[test]
fn cubic_fills_a_clean_pipe() {
    let cfg = TcpConfig {
        max_window: 64,
        ..TcpConfig::default()
    };
    let trace = download(
        path(1_000, 100),
        cfg,
        1,
        Box::<Cubic>::default(),
        Time::from_secs(60),
    );
    let goodput = trace.mean_goodput_bps(Time::from_secs(60));
    assert!(goodput > 800_000.0, "goodput {goodput} on a 1 Mbps link");
}

#[test]
fn cubic_recovers_from_loss_faster_than_reno_grows() {
    // On a shallow buffer both lose packets; CUBIC's post-reduction
    // window (β = 0.7) stays above Reno's (1/2), so its cwnd samples
    // after recovery should on average be at least Reno's.
    let run = |cc: Box<dyn CongestionControl>| {
        let trace = download(
            path(2_000, 20),
            TcpConfig::default(),
            5,
            cc,
            Time::from_secs(120),
        );
        let tail: Vec<f64> = trace
            .cwnd_samples
            .iter()
            .filter(|(t, _)| *t > Time::from_secs(30))
            .map(|(_, w)| *w)
            .collect();
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    };
    let reno_avg = run(reno());
    let cubic_avg = run(Box::<Cubic>::default());
    assert!(
        cubic_avg > reno_avg * 0.8,
        "cubic mean cwnd {cubic_avg:.1} vs reno {reno_avg:.1}"
    );
}
