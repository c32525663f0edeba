//! The motivating problem (paper §1, Figure 1): a loss-based TCP download
//! over a cellular path whose link layer zealously hides losses behind a
//! deep buffer — round-trip times balloon from ~100 ms into the seconds.
//!
//! ```sh
//! cargo run --release --example lte_bufferbloat
//! ```

use augur::core::{run_multi_agent, FlowEndpoint, MultiFlowTruth};
use augur::prelude::*;
use augur::scenario::TcpPeerAgent;
use augur::tcp::Reno;

fn main() {
    // A synthetic LTE-like downlink: 750 kB drop-tail buffer, fading rate
    // (4 Mbit/s down to 250 kbit/s), 10 % transmission loss hidden by
    // link-layer ARQ, 25 ms propagation.
    let params = CellularParams::lte_like();
    let cell = build_cellular(&params);

    // TCP Reno bulk download for two minutes: one TCP agent on the flow
    // driver, over a one-flow ground truth.
    let mut truth = MultiFlowTruth::new(
        cell.net,
        vec![FlowEndpoint {
            entry: cell.entry,
            rx: cell.rx,
        }],
        SimRng::seed_from_u64(1),
    )
    .expect("one flow");
    let mut tcp = TcpPeerAgent::new(TcpConfig::default(), Box::<Reno>::default());
    let t_end = Time::from_secs(120);
    let run = run_multi_agent(&mut truth, &mut [&mut tcp as &mut dyn SenderAgent], t_end)
        .expect("TCP carries no belief");
    let trace = tcp.trace;
    let drops = &run[0].drops;

    let mut rtt = Series::new("rtt (s)");
    for (t, r) in &trace.rtt_samples {
        rtt.push(t.as_secs_f64(), r.as_secs_f64());
    }
    println!(
        "{}",
        render(
            &[&rtt],
            &PlotConfig {
                title: "TCP RTT over an LTE-like path (log y) — the bufferbloat of Figure 1".into(),
                log_y: true,
                ..PlotConfig::default()
            }
        )
    );

    let rtts: Vec<f64> = rtt.values().collect();
    let s = augur::trace::summarize(&rtts);
    println!(
        "RTT min {:.3}s / median {:.3}s / max {:.3}s — a {:.0}x blow-up.",
        s.min,
        s.median,
        s.max,
        s.max / s.min
    );
    println!(
        "All {} drops were buffer overflows; the link layer hid every stochastic loss.",
        drops.len()
    );
    println!(
        "TCP kept the pipe busy ({:.0} bit/s goodput) but at seconds of latency —",
        trace.mean_goodput_bps(t_end)
    );
    println!("exactly the failure mode the paper's model-based sender is designed to avoid.");
}
