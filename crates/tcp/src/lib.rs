#![forbid(unsafe_code)]
//! `augur-tcp` — the TCP baseline the paper contrasts with.
//!
//! "Most implemented schemes share the basic structure developed by
//! Jacobson … all TCP variants model the entire network path using a
//! single variable, cwnd" (§2). This crate implements that structure —
//! Reno (and CUBIC) congestion control with Jacobson RTT estimation — as
//! a network-free bulk-transfer endpoint, [`TcpEndpoint`]. Wrapped as a
//! sender agent (`augur_scenario::TcpPeerAgent`), it runs on
//! `augur-core`'s flow driver over `augur-elements` networks like every
//! other sender, to reproduce Figure 1's bufferbloat measurement
//! and the ISender-vs-TCP extension experiments.

pub mod cc;
pub mod cubic;
pub mod endpoint;
pub mod reno;
pub mod rtt;

pub use cc::CongestionControl;
pub use cubic::Cubic;
pub use endpoint::{TcpConfig, TcpEndpoint, TcpTrace};
pub use reno::{Reno, RenoSignal};
pub use rtt::RttEstimator;
