//! Per-layer metrics from one traced pass: self times from the span
//! tree, counts from the counter deltas recorded at span boundaries.

use crate::probe::{Name, Record, Span, NAMES};
use crate::stats::percentile;
use augur_sim::perf::WorkCounters;

/// A metric, as named in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// A pure function of the simulated work (a count or a ratio of
    /// counts), so every pass of one seed must report the same value.
    pub exact: bool,
}

/// Self time per span name, in nanoseconds, after checking that the
/// spans nest: every child lies inside its parent and siblings do not
/// overlap. Returns the self times and the summed root durations.
pub fn self_times(spans: &[Span]) -> Result<([u64; NAMES], u64), String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_end = vec![0u64; spans.len()];
    let mut roots = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                s.name.label()
            ));
        }
        if s.parent == u32::MAX {
            roots += s.dur_ns();
            continue;
        }
        let p = s.parent as usize;
        let parent = &spans[p];
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {p} ({})",
                s.name.label(),
                parent.name.label()
            ));
        }
        if s.start_ns < last_end[p] {
            return Err(format!(
                "span {i} ({}) overlaps an earlier sibling",
                s.name.label()
            ));
        }
        last_end[p] = s.end_ns;
        child_ns[p] += s.dur_ns();
    }
    let mut self_ns = [0u64; NAMES];
    for (s, &c) in spans.iter().zip(&child_ns) {
        self_ns[s.name as usize] += s.dur_ns() - c;
    }
    Ok((self_ns, roots))
}

fn durations_ns(spans: &[Span], name: Name) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced pass whose runs took `sweep_s`.
/// Errors if the spans do not nest or the layer self times do not add up
/// to the traced pass span.
pub fn per_layer(rec: &Record, sweep_s: f64) -> Result<Vec<Metric>, String> {
    let (self_ns, roots_ns) = self_times(&rec.spans)?;
    let total: u64 = self_ns.iter().sum();
    if total != roots_ns {
        return Err(format!(
            "layer self times sum to {total} ns but the pass spans cover {roots_ns} ns"
        ));
    }
    let s = |names: &[Name]| names.iter().map(|&n| self_ns[n as usize]).sum::<u64>() as f64 * 1e-9;
    let w = |n: Name| rec.work[n as usize];
    let count = |n: Name| rec.spans.iter().filter(|s| s.name == n).count() as f64;
    let us = |v: &[u64], pct: f64| percentile(v, pct) as f64 * 1e-3;

    let advance_ns = durations_ns(&rec.spans, Name::Advance);
    let decide_ns = durations_ns(&rec.spans, Name::Decide);
    let notes = rec.notes;
    let mut inference = w(Name::Advance);
    inference += w(Name::Inject);
    let mut wakes = w(Name::IsenderWake);
    wakes += w(Name::PeerWake);
    let drive = w(Name::Drive);
    let elements = WorkCounters {
        events_processed: drive.events_processed - wakes.events_processed,
        packets_forwarded: drive.packets_forwarded - wakes.packets_forwarded,
        ..WorkCounters::default()
    };
    let planner_s = s(&[Name::Decide]);
    let inference_s = s(&[Name::Advance, Name::Inject]);
    let driver_s = s(&[Name::Drive]);
    let agents_s = s(&[Name::IsenderWake, Name::PeerWake]);
    let decides = count(Name::Decide);
    // Set-up work: the pass's set-up plus each run's ground-truth build.
    let mut setup = w(Name::Setup);
    setup += w(Name::TruthBuild);

    let m = |name, unit, value| Metric {
        name,
        unit,
        value,
        exact: false,
    };
    let c = |name, unit, value| Metric {
        name,
        unit,
        value,
        exact: true,
    };
    Ok(vec![
        m("scenario.grid_s", "s", s(&[Name::Grid])),
        m("scenario.prior_enum_s", "s", s(&[Name::PriorEnum])),
        m("scenario.truth_build_s", "s", s(&[Name::TruthBuild])),
        m("scenario.agent_build_s", "s", s(&[Name::AgentBuild])),
        m(
            "scenario.report_s",
            "s",
            s(&[Name::Summarize, Name::Report]),
        ),
        c(
            "scenario.networks_built",
            "count",
            setup.networks_built as f64,
        ),
        c(
            "scenario.structures_built",
            "count",
            setup.structures_built as f64,
        ),
        c("inference.advance_calls", "count", count(Name::Advance)),
        m("inference.advance_self_s", "s", s(&[Name::Advance])),
        m("inference.advance_us_p50", "us", us(&advance_ns, 50.0)),
        m("inference.advance_us_p99", "us", us(&advance_ns, 99.0)),
        m("inference.inject_self_s", "s", s(&[Name::Inject])),
        c(
            "inference.events",
            "count",
            inference.events_processed as f64,
        ),
        c(
            "inference.hypothesis_updates",
            "count",
            inference.hypothesis_updates as f64,
        ),
        c(
            "inference.state_clones",
            "count",
            inference.state_clones as f64,
        ),
        c(
            "inference.branches_mean",
            "count",
            ratio(notes.branches_sum as f64, notes.advances as f64),
        ),
        c("inference.branches_max", "count", notes.branches_max as f64),
        c(
            "inference.ess_ratio",
            "ratio",
            ratio(notes.ess_ratio_sum, notes.advances as f64),
        ),
        m("inference.sweep_frac", "ratio", ratio(inference_s, sweep_s)),
        c("planner.decide_calls", "count", decides),
        m("planner.self_s", "s", planner_s),
        m("planner.decide_us_p50", "us", us(&decide_ns, 50.0)),
        m("planner.decide_us_p99", "us", us(&decide_ns, 99.0)),
        c(
            "planner.branches_mean",
            "count",
            ratio(notes.planner_branches_sum as f64, decides),
        ),
        c(
            "planner.rollout_events",
            "count",
            w(Name::Decide).events_processed as f64,
        ),
        c(
            "planner.rollout_forwards",
            "count",
            w(Name::Decide).packets_forwarded as f64,
        ),
        c(
            "planner.state_clones",
            "count",
            w(Name::Decide).state_clones as f64,
        ),
        m(
            "planner.ns_per_rollout_event",
            "ns",
            ratio(planner_s * 1e9, w(Name::Decide).events_processed as f64),
        ),
        c(
            "planner.send_ratio",
            "ratio",
            ratio(notes.send_now as f64, decides),
        ),
        m("planner.sweep_frac", "ratio", ratio(planner_s, sweep_s)),
        c("driver.flow_wakes", "count", drive.flow_wakes as f64),
        m("driver.self_s", "s", driver_s),
        m("driver.sweep_frac", "ratio", ratio(driver_s, sweep_s)),
        c("elements.events", "count", elements.events_processed as f64),
        c(
            "elements.packets_forwarded",
            "count",
            elements.packets_forwarded as f64,
        ),
        m(
            "elements.ns_per_event",
            "ns",
            ratio(driver_s * 1e9, elements.events_processed as f64),
        ),
        c("agents.wake_calls", "count", count(Name::PeerWake)),
        m("agents.wake_self_s", "s", s(&[Name::PeerWake])),
        m("agents.isender_wake_self_s", "s", s(&[Name::IsenderWake])),
        m("agents.sweep_frac", "ratio", ratio(agents_s, sweep_s)),
        m("bench.gap_s", "s", s(&[Name::Pass, Name::Setup, Name::Run])),
    ])
}
