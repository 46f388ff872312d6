//! `benchmark compare A.json B.json`: apply `BENCHMARK.json`'s
//! regression bounds to two suite result files, one row per workload
//! and end-to-end metric.
//!
//! With `worse` the relative change of B's value against A's in the
//! metric's bad direction, `spread` the wider of the two runs' own
//! sub-window ranges relative to their values, and *overlap* meaning
//! the two ranges intersect:
//!
//! * `regressed` — `worse > bound`, and the runs' own spreads do not
//!   explain it (ranges disjoint, or `spread ≤ bound`);
//! * `improved` — better by more than `bound`, likewise;
//! * `unresolved` — the spread is wider than the bound, so this pair of
//!   runs cannot tell a change of `bound` from noise: either the medians
//!   differ by more than `bound` but the ranges overlap, or they agree
//!   but `spread > bound`. Re-run, or compare more runs;
//! * `ok` — within `bound`, and the spread is tight enough to say so.
//!
//! The recorded metrics the driver does not gate are compared too:
//! `latency_p95_us`, `latency_p99_us` and `cpu_us_per_req` (bound 25 %)
//! and `failed_share` (absolute bound 0.002). Exit code is nonzero on
//! any `regressed`.

use std::path::Path;

use crate::report::Metric;
use crate::spec::BenchmarkSpec;
use crate::suite::SuiteResults;

/// Absolute bound on `failed_share` (rejects + unanswered, or the graph
/// workload's blocking probability).
const FAILED_SHARE_BOUND: f64 = 0.002;
/// Bound on the recorded metrics the driver does not gate.
const UNGATED_BOUND: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `higher_is_better` flips the direction; `bound`
/// is relative to A's value unless `absolute`.
pub fn judge(
    a: &Metric,
    b: &Metric,
    higher_is_better: bool,
    bound: f64,
    absolute: bool,
) -> (f64, Verdict) {
    let scale = |m: &Metric| {
        if absolute {
            1.0
        } else {
            m.value.abs().max(f64::MIN_POSITIVE)
        }
    };
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (b.value - a.value) / scale(a);
    let spread = ((a.max - a.min) / scale(a)).max((b.max - b.min) / scale(b));
    let overlap = a.min <= b.max && b.min <= a.max;
    let noisy = spread > bound;
    let verdict = if worse.abs() > bound {
        if noisy && overlap {
            Verdict::Unresolved
        } else if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn load(path: &Path) -> Result<SuiteResults, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Print the rows; `Ok(false)` when anything regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = BenchmarkSpec::embedded();
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut regressed = 0;
    for ra in a.runs.iter().filter(|r| !r.trace) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| !r.trace && r.workload == ra.workload)
        else {
            return Err(format!("B has no untraced run of {}", ra.workload));
        };
        let rows = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.better == "higher", m.bound, false))
            .chain([
                ("latency_p95_us", false, UNGATED_BOUND, false),
                ("latency_p99_us", false, UNGATED_BOUND, false),
                ("cpu_us_per_req", false, UNGATED_BOUND, false),
                ("failed_share", false, FAILED_SHARE_BOUND, true),
            ]);
        for (name, higher, bound, absolute) in rows {
            let (Some(ma), Some(mb)) = (ra.metrics.get(name), rb.metrics.get(name)) else {
                return Err(format!("{}: metric {name} missing from a run", ra.workload));
            };
            let (worse, verdict) = judge(ma, mb, higher, bound, absolute);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<24} {:<18} {:>14.4} {:>14.4} {:>+8.2}{} {:>7}  {}",
                ra.workload,
                name,
                ma.value,
                mb.value,
                if absolute { worse } else { worse * 100.0 },
                if absolute { " " } else { "%" },
                if absolute {
                    format!("{bound}")
                } else {
                    format!("{}%", bound * 100.0)
                },
                verdict.label()
            );
        }
        if !(ra.correct && rb.correct) {
            println!("{:<24} a run failed its correctness checks", ra.workload);
            regressed += 1;
        }
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, min: f64, max: f64) -> Metric {
        Metric {
            value,
            unit: "us".into(),
            min,
            max,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_runs_own_spread() {
        // Tight runs, lower is better, bound 10 %.
        let a = m(100.0, 99.0, 101.0);
        assert_eq!(
            judge(&a, &m(105.0, 104.0, 106.0), false, 0.1, false).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &m(120.0, 119.0, 121.0), false, 0.1, false).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &m(80.0, 79.0, 81.0), false, 0.1, false).1,
            Verdict::Improved
        );
        // Direction flips for throughput.
        assert_eq!(
            judge(&a, &m(120.0, 119.0, 121.0), true, 0.1, false).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &m(80.0, 79.0, 81.0), true, 0.1, false).1,
            Verdict::Regressed
        );
        // Noisy runs whose ranges overlap cannot resolve a 10 % change…
        let noisy = m(100.0, 85.0, 125.0);
        assert_eq!(
            judge(&noisy, &m(120.0, 90.0, 140.0), false, 0.1, false).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &m(101.0, 90.0, 130.0), false, 0.1, false).1,
            Verdict::Unresolved
        );
        // …but disjoint ranges do, however wide.
        assert_eq!(
            judge(&noisy, &m(200.0, 150.0, 260.0), false, 0.1, false).1,
            Verdict::Regressed
        );
        // Absolute bound (failed_share): 0 → 0.001 is fine, 0 → 0.01 is not.
        let zero = m(0.0, 0.0, 0.0);
        assert_eq!(
            judge(&zero, &m(0.001, 0.001, 0.001), false, 0.002, true).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&zero, &m(0.01, 0.01, 0.01), false, 0.002, true).1,
            Verdict::Regressed
        );
        let (worse, _) = judge(&a, &m(110.0, 110.0, 110.0), false, 0.2, false);
        assert!((worse - 0.1).abs() < 1e-12);
    }
}
