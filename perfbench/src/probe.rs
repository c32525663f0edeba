//! The benchmark's own tracer.
//!
//! Every timed boundary is a call from benchmark code into a layer's
//! public function, wrapped in [`span`]. Untraced passes record only the
//! agent-wake durations (the `wake_us_*` metrics); traced passes record
//! every span — name, start, end, parent, run — in memory, together with
//! the `augur_sim::perf` counter delta between its start and end, and
//! write them out once the measurement is over. The program under test
//! is never edited: counters are read through `augur_sim::perf::snapshot`.

use augur_sim::perf::{self, WorkCounters};
use std::cell::RefCell;
use std::time::Instant;

/// A traced boundary. The layer each one is charged to is given by
/// [`Name::layer`]; `Pass`, `Setup` and `Run` are containers whose self
/// time is the untraced gap between their children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One whole measurement pass: set-up, every run, report.
    Pass,
    /// Grid load and prior enumeration.
    Setup,
    /// `load_grid` plus expansion with the benchmark's seed and length.
    Grid,
    /// `PriorCache::for_runs`.
    PriorEnum,
    /// Building a run's ground-truth network, at the start of the run.
    TruthBuild,
    /// One grid run.
    Run,
    /// Building a run's agents (beliefs cloned from the prior cache).
    AgentBuild,
    /// The `FlowDriver` loop (`run_closed_loop` / `run_multi_agent`).
    Drive,
    /// Turning a run's traces into its report row.
    Summarize,
    /// Serialising the pass's report rows.
    Report,
    /// One `on_wake` of a belief-carrying sender.
    IsenderWake,
    /// One `on_wake` of a belief-free peer (AIMD, TCP).
    PeerWake,
    /// One `Belief::advance`.
    Advance,
    /// One `planner::decide`.
    Decide,
    /// One `Belief::inject`.
    Inject,
}

/// Number of [`Name`] variants.
pub const NAMES: usize = 15;

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Pass => "pass",
            Name::Setup => "setup",
            Name::Grid => "grid",
            Name::PriorEnum => "prior_enum",
            Name::TruthBuild => "truth_build",
            Name::Run => "run",
            Name::AgentBuild => "agent_build",
            Name::Drive => "drive",
            Name::Summarize => "summarize",
            Name::Report => "report",
            Name::IsenderWake => "isender_wake",
            Name::PeerWake => "peer_wake",
            Name::Advance => "advance",
            Name::Decide => "decide",
            Name::Inject => "inject",
        }
    }

    /// The repository module a span's self time is charged to; `bench`
    /// marks the untraced gaps inside container spans.
    pub fn layer(self) -> &'static str {
        match self {
            Name::Pass | Name::Setup | Name::Run => "bench",
            Name::Grid | Name::PriorEnum | Name::TruthBuild | Name::AgentBuild => "scenario",
            Name::Summarize | Name::Report => "scenario",
            Name::Drive => "driver",
            Name::IsenderWake | Name::PeerWake => "agents",
            Name::Advance | Name::Inject => "inference",
            Name::Decide => "planner",
        }
    }

    fn is_wake(self) -> bool {
        matches!(self, Name::IsenderWake | Name::PeerWake)
    }
}

/// One recorded span. Times are nanoseconds since the probe's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Grid run index the span belongs to, `u32::MAX` outside runs.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Side observations made at span boundaries, summed over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Notes {
    /// Successful `advance` calls and the branch counts they left.
    pub advances: u64,
    pub branches_sum: u64,
    pub branches_max: u64,
    /// Sum over advances of `effective_count / branch_count`.
    pub ess_ratio_sum: f64,
    /// Branches offered to the planner (capped at its planning budget).
    pub planner_branches_sum: u64,
    /// Decisions whose action was `SendNow`.
    pub send_now: u64,
}

struct Probe {
    traced: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, WorkCounters)>,
    run: u32,
    /// Inclusive counter deltas per span name.
    work: [WorkCounters; NAMES],
    /// Untraced passes: each wake's duration in nanoseconds.
    wake_ns: Vec<u32>,
    notes: Notes,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe {
        traced: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        run: u32::MAX,
        work: [WorkCounters::default(); NAMES],
        wake_ns: Vec::new(),
        notes: Notes::default(),
    });
}

/// Everything one pass recorded.
pub struct Record {
    pub spans: Vec<Span>,
    pub work: [WorkCounters; NAMES],
    pub wake_ns: Vec<u32>,
    pub notes: Notes,
}

/// Clear the probe and arm it for one pass.
pub fn begin_pass(traced: bool) {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        p.traced = traced;
        p.spans.clear();
        p.open.clear();
        p.run = u32::MAX;
        p.work = [WorkCounters::default(); NAMES];
        p.wake_ns.clear();
        p.notes = Notes::default();
    });
}

/// Take what the pass recorded.
pub fn end_pass() -> Record {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        assert!(
            p.open.is_empty(),
            "a span is still open at the end of a pass"
        );
        Record {
            spans: std::mem::take(&mut p.spans),
            work: p.work,
            wake_ns: std::mem::take(&mut p.wake_ns),
            notes: p.notes,
        }
    })
}

/// Attribute the spans opened from now on to grid run `run`.
pub fn set_run(run: Option<usize>) {
    PROBE.with(|p| p.borrow_mut().run = run.map_or(u32::MAX, |r| r as u32));
}

/// Whether the current pass records spans.
pub fn traced() -> bool {
    PROBE.with(|p| p.borrow().traced)
}

/// Record side observations (traced passes only).
pub fn note(f: impl FnOnce(&mut Notes)) {
    PROBE.with(|p| f(&mut p.borrow_mut().notes));
}

/// Run `f` as one `name` span. Traced: record the span and its counter
/// delta. Untraced: time wakes only and pass everything else straight
/// through.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let traced = traced();
    if !traced {
        if !name.is_wake() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        PROBE.with(|p| p.borrow_mut().wake_ns.push(ns));
        return out;
    }
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let idx = p.spans.len() as u32;
        let parent = p.open.last().map_or(u32::MAX, |&(i, _)| i);
        let run = p.run;
        p.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            run,
        });
        p.open.push((idx, perf::snapshot()));
        // Stamp the start last so the bookkeeping above is charged to
        // the parent, not to this span.
        p.spans[idx as usize].start_ns = p.epoch.elapsed().as_nanos() as u64;
    });
    let out = f();
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let end_ns = p.epoch.elapsed().as_nanos() as u64;
        let (idx, before) = p.open.pop().expect("span stack underflow");
        p.spans[idx as usize].end_ns = end_ns;
        let delta = perf::snapshot().since(&before);
        p.work[name as usize] += delta;
    });
    out
}
