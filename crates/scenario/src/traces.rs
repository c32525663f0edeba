//! Rate-trace files: the CSV loader behind the spec schema's
//! `rate = { kind = "trace", … }`.
//!
//! # File format
//!
//! A trace is a CSV of `(time, rate)` samples, one per line:
//!
//! ```text
//! # comment lines and blank lines are ignored
//! time_s,bps
//! 0.0,4000000
//! 0.5,3100000
//! 1.0,250000
//! ```
//!
//! The `time_s,bps` header is mandatory (it makes the file
//! self-describing), times are seconds from the start of the trace
//! (first sample at 0, strictly increasing, rounded to the simulator's
//! microsecond grid), and rates are whole bits per second (positive).
//! Sample `i`'s rate applies until sample `i + 1`'s instant; the spec's
//! `end` policy (`loop` / `hold-last`) decides what happens after the
//! last sample. Loader errors carry the CSV's own line and column, and
//! the spec decoder prefixes them with the trace file's path.
//!
//! # Shipped traces
//!
//! Real measured traces (e.g. the Verizon LTE download behind the
//! paper's Figure 1) are not redistributable, so the repo ships two
//! synthetic LTE-like traces, `experiments/traces/lte-fade.csv` and
//! `lte-scatter.csv`; each file's header says how it was made. Both
//! are authored to loop: the final sample closes the cycle.

use crate::config::ConfigError;
use augur_sim::{BitRate, Dur};

/// Parse trace-CSV text into validated samples. Errors are positioned
/// within the CSV text itself; callers loading a file prefix the path.
pub fn parse_trace_csv(src: &str) -> Result<Vec<(Dur, BitRate)>, ConfigError> {
    let err = |line: u32, col: u32, message: String| ConfigError { line, col, message };
    let mut samples: Vec<(Dur, BitRate)> = Vec::new();
    let mut saw_header = false;
    for (i, raw) in src.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim_end();
        let indent = (raw.len() - raw.trim_start().len()) as u32;
        let body = line.trim_start();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        if !saw_header {
            if body != "time_s,bps" {
                return Err(err(
                    lineno,
                    indent + 1,
                    format!("expected the `time_s,bps` header, found {body:?}"),
                ));
            }
            saw_header = true;
            continue;
        }
        let (time_field, bps_field) = body.split_once(',').ok_or_else(|| {
            err(
                lineno,
                indent + 1,
                format!("expected `time_s,bps`, found {body:?}"),
            )
        })?;
        let bps_col = indent + time_field.len() as u32 + 2;
        let secs: f64 = time_field.trim().parse().map_err(|_| {
            err(
                lineno,
                indent + 1,
                format!("bad time (seconds) {:?}", time_field.trim()),
            )
        })?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(err(
                lineno,
                indent + 1,
                format!("time must be >= 0 seconds, got {secs}"),
            ));
        }
        let bps: u64 = bps_field.trim().parse().map_err(|_| {
            err(
                lineno,
                bps_col,
                format!("bad rate (bits/s) {:?}", bps_field.trim()),
            )
        })?;
        if bps == 0 {
            return Err(err(lineno, bps_col, "rate must be positive".into()));
        }
        let t = Dur::from_secs_f64(secs);
        match samples.last() {
            None if t != Dur::ZERO => {
                return Err(err(
                    lineno,
                    indent + 1,
                    "the first sample must be at time 0".into(),
                ))
            }
            Some(&(prev, _)) if t <= prev => {
                return Err(err(
                    lineno,
                    indent + 1,
                    format!("sample times must be strictly increasing ({t} after {prev})"),
                ))
            }
            _ => {}
        }
        samples.push((t, BitRate::from_bps(bps)));
    }
    if samples.is_empty() {
        return Err(err(1, 1, "trace has no samples".into()));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_traces_load_deterministically_and_are_loopable() {
        let dir = crate::experiments_dir().join("traces");
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(
            !files.is_empty(),
            "no committed traces under {}",
            dir.display()
        );
        for path in files {
            let name = path.display();
            let csv = std::fs::read_to_string(&path).unwrap();
            let a = parse_trace_csv(&csv).unwrap_or_else(|e| panic!("{name}: {e}"));
            let b = parse_trace_csv(&csv).unwrap();
            assert_eq!(a, b, "{name}: loading must be deterministic");
            assert!(a.len() >= 2, "{name}: loopable traces need >= 2 samples");
            assert_eq!(a[0].0, Dur::ZERO, "{name}: first sample at 0");
            assert!(
                a.windows(2).all(|w| w[0].0 < w[1].0),
                "{name}: times must increase"
            );
        }
    }

    #[test]
    fn csv_round_trips_sample_for_sample() {
        // Comments, blank lines and padding are skipped; every time
        // lands on the microsecond grid and every rate is kept exactly.
        let csv = "# a comment\n\ntime_s,bps\n0.0,4000000\n  0.5, 3657937\n60.0,4000000\n\
                   60.000001,1\n";
        let parsed = parse_trace_csv(csv).unwrap();
        assert_eq!(
            parsed,
            vec![
                (Dur::ZERO, BitRate::from_bps(4_000_000)),
                (Dur::from_millis(500), BitRate::from_bps(3_657_937)),
                (Dur::from_secs(60), BitRate::from_bps(4_000_000)),
                (Dur::from_micros(60_000_001), BitRate::from_bps(1)),
            ]
        );
    }

    #[test]
    fn loader_errors_carry_csv_positions() {
        let missing_header = "0.0,1000\n";
        let e = parse_trace_csv(missing_header).unwrap_err();
        assert!(e.message.contains("time_s,bps"), "got: {e}");
        assert_eq!((e.line, e.col), (1, 1));

        let bad_rate = "time_s,bps\n0.0,1000\n0.5,fast\n";
        let e = parse_trace_csv(bad_rate).unwrap_err();
        assert!(e.message.contains("bad rate"), "got: {e}");
        assert_eq!((e.line, e.col), (3, 5));

        let not_increasing = "time_s,bps\n0.0,1000\n2.0,900\n1.0,800\n";
        let e = parse_trace_csv(not_increasing).unwrap_err();
        assert!(e.message.contains("strictly increasing"), "got: {e}");
        assert_eq!(e.line, 4);

        let late_start = "time_s,bps\n1.0,1000\n";
        let e = parse_trace_csv(late_start).unwrap_err();
        assert!(e.message.contains("first sample"), "got: {e}");

        let zero_rate = "time_s,bps\n0.0,0\n";
        let e = parse_trace_csv(zero_rate).unwrap_err();
        assert!(e.message.contains("must be positive"), "got: {e}");
    }
}
