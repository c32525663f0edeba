#![forbid(unsafe_code)]
//! `augur-scenario` — experiments as data.
//!
//! The paper's results are all parameter sweeps over (topology, prior,
//! sender, utility α, seed) tuples. This crate turns such an experiment
//! into a value instead of a hand-rolled binary:
//!
//! * [`ScenarioSpec`] describes one experiment — ground-truth topology
//!   ([`augur_elements::ModelParams`]), prior ([`PriorSpec`]), sender
//!   kind ([`SenderSpec`]: exact ISender, particle ISender, TCP Reno or
//!   CUBIC), workload ([`WorkloadSpec`]), duration and base seed;
//! * [`SweepGrid`] expands [`Axis`] lists (α values × buffer sizes ×
//!   seed replicates × …) into a cartesian run list, each run's seed
//!   derived deterministically from `(base_seed, run_index)`;
//! * [`SweepRunner`] executes runs in parallel on scoped worker threads
//!   — results are byte-identical to a serial execution because every
//!   run is a pure function of its spec and derived seed;
//! * [`SweepReport`] collects per-run [`RunSummary`]s (throughput, delay
//!   percentiles, realized utility, overflow counts) and exports
//!   deterministic CSV / JSON-lines through [`augur_trace::Table`];
//! * [`config`] loads a whole grid from a TOML spec file, so new
//!   experiments are data changes, not code changes. The files under
//!   `experiments/specs/` are the only definition of the shipped
//!   experiments, and [`load_shipped`] loads one by name.
//!
//! # Example
//!
//! ```no_run
//! use augur_scenario::{load_shipped, SweepRunner};
//! use augur_sim::Dur;
//!
//! // Figure 3's α sweep, shortened and at a smaller branch cap,
//! // executed across all cores.
//! let mut grid = load_shipped("fig3").expect("shipped spec parses");
//! grid.set_duration(Dur::from_secs(60));
//! grid.set_max_branches(2_000);
//! let report = SweepRunner::parallel().run(&grid.expand());
//! print!("{}", report.to_csv_string());
//! ```

pub mod config;
pub mod grid;
pub mod report;
pub mod runner;
pub mod spec;
pub mod traces;

pub use augur_topo::{FlowSpec, GraphTopology, LinkSpec};
pub use config::{
    experiments_dir, load_grid, load_shipped, parse_grid, parse_grid_at, shipped_spec_path,
    ConfigError,
};
pub use grid::{Axis, RunSpec, SweepGrid};
pub use report::{RunStatus, RunSummary, SweepReport};
pub use runner::{
    execute_run, execute_run_observed_in, execute_run_traced, execute_run_traced_in, spec_belief,
    spec_belief_in, spec_ground_truth, spec_isender, PriorCache, RunArtifact, SweepRunner,
    TcpPeerAgent,
};
pub use spec::{
    CoexistSpec, ObserveSpec, PeerSpec, PriorSpec, QueueSpec, ScenarioSpec, SenderSpec,
    TopologySpec, WorkloadSpec,
};
