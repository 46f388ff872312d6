//! One run's result: named metrics with units and spread, the
//! correctness verdict, and the three ways it leaves the process — lines
//! a person reads, a record the suite and `compare` read, and the one
//! JSON line the driver's contract asks for last on standard output.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::spec::{BenchmarkSpec, Workload};
use crate::stats::Spread;

/// A reported metric. `min`/`max` are the run's own spread (best
/// sub-window to better-side quartile) and equal `value` for metrics
/// measured once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub min: f64,
    pub max: f64,
}

/// Everything one `--workload` invocation found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
    /// Requests sent, and those whose outcome was wrong: rejected at
    /// the Theorem-1 bound, unanswered, or (graph) a verdict differing
    /// from the dry run. A legitimately blocked graph request is a
    /// correct outcome and counts in `failed_share`, not here.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// The contract's last line: exactly these four keys.
#[derive(Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractMetric>,
}

#[derive(Serialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

impl RunRecord {
    pub fn new(workload: Workload, trace: bool, seed: u64, seconds: f64) -> RunRecord {
        RunRecord {
            workload: workload.name().to_string(),
            trace,
            seed,
            seconds,
            correct: true,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Record a correctness failure; the process will exit nonzero.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    /// Fail the run unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Report a metric `BENCHMARK.json` names; the unit comes from there.
    pub fn put(&mut self, spec: &BenchmarkSpec, name: &str, s: Spread) {
        let unit = spec
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(spec.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, unit)| unit.clone());
        match unit {
            Some(unit) => self.put_extra(name, s, &unit),
            None => self.problem(format!("metric {name} is not named in BENCHMARK.json")),
        }
    }

    /// [`RunRecord::put`] for a metric measured once.
    pub fn put1(&mut self, spec: &BenchmarkSpec, name: &str, value: f64) {
        self.put(spec, name, Spread::single(value));
    }

    /// Report something beside the registry (sample counts, p99.9,
    /// `failed_share`): printed and recorded, never in the contract line.
    pub fn put_extra(&mut self, name: &str, s: Spread, unit: &str) {
        if ![s.value, s.min, s.max].iter().all(|v| v.is_finite()) {
            self.problem(format!("metric {name} is not a finite number: {s:?}"));
            return;
        }
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: s.value,
                unit: unit.to_string(),
                min: s.min,
                max: s.max,
            },
        );
    }

    /// Names the registry expects from this run: the end-to-end metrics
    /// untraced, the per-layer metrics traced.
    fn expected<'a>(&self, spec: &'a BenchmarkSpec) -> Vec<(&'a str, &'a str)> {
        if self.trace {
            spec.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            spec.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }

    /// Last correctness check: every metric `BENCHMARK.json` names for
    /// this kind of run, and that this workload measures, was reported.
    pub fn close(&mut self, spec: &BenchmarkSpec, workload: Workload) {
        let missing: Vec<&str> = self
            .expected(spec)
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| workload.measures(name) && !self.metrics.contains_key(*name))
            .collect();
        for name in missing {
            self.problem(format!(
                "metric {name} named in BENCHMARK.json is missing from the output"
            ));
        }
    }

    /// Human-readable lines: every metric by name and unit, with the
    /// sub-window spread where there is one.
    pub fn print_lines(&self) {
        println!(
            "# {} trace={} seed={} seconds={}",
            self.workload, self.trace as u8, self.seed, self.seconds
        );
        for (name, m) in &self.metrics {
            if m.min == m.max {
                println!("{name:<44} {:>16.4} {}", m.value, m.unit);
            } else {
                println!(
                    "{name:<44} {:>16.4} {:<6} [{:.4} .. {:.4}]",
                    m.value, m.unit, m.min, m.max
                );
            }
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }

    /// The contract's last line. It must carry *every* metric the
    /// registry names for this kind of run, so a per-layer metric this
    /// workload has no layer for reads 0 here (and only here — it is
    /// absent from the record and the printed lines).
    pub fn contract_line(&self, spec: &BenchmarkSpec) -> String {
        let metrics = self
            .expected(spec)
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).map_or(0.0, |m| m.value);
                let unit = unit.to_string();
                (name.to_string(), ContractMetric { value, unit })
            })
            .collect();
        serde_json::to_string(&ContractLine {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        })
        .expect("contract line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_names_every_registry_metric_and_close_finds_gaps() {
        let spec = BenchmarkSpec::embedded();
        let w = Workload::EngineMulticastBatch;
        let mut r = RunRecord::new(w, false, 42, 1.0);
        for m in &spec.end_to_end {
            r.put1(&spec, &m.name, 1.5);
        }
        r.put_extra("latency_samples", Spread::single(10.0), "count");
        r.attempted = 10;
        r.close(&spec, w);
        assert!(r.correct, "{:?}", r.problems);
        let line = r.contract_line(&spec);
        for m in &spec.end_to_end {
            assert!(
                line.contains(&format!("\"{}\":{{\"value\":1.5", m.name)),
                "{line}"
            );
        }
        assert!(!line.contains("latency_samples"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));

        // A traced run of a non-wire workload: net.* is absent from the
        // record, zero in the contract line, and not a gap.
        let mut t = RunRecord::new(w, true, 42, 1.0);
        for m in spec.per_layer.iter().filter(|m| w.measures(&m.name)) {
            t.put1(&spec, &m.name, 2.0);
        }
        t.close(&spec, w);
        assert!(t.correct, "{:?}", t.problems);
        assert!(!t.metrics.keys().any(|k| k.starts_with("net.")));
        assert!(t
            .contract_line(&spec)
            .contains("\"net.reactor.shed\":{\"value\":0.0"));

        let mut gap = RunRecord::new(w, false, 42, 1.0);
        gap.put1(&spec, "setup_s", 1.0);
        gap.close(&spec, w);
        assert!(!gap.correct);
        gap.put1(&spec, "no.such.metric", 1.0);
        assert!(gap.problems.iter().any(|p| p.contains("no.such.metric")));
        let mut nan = RunRecord::new(w, false, 42, 1.0);
        nan.put1(&spec, "setup_s", f64::NAN);
        assert!(!nan.correct);
    }

    #[test]
    fn record_round_trips_through_json() {
        let spec = BenchmarkSpec::embedded();
        let mut r = RunRecord::new(Workload::GraphHotspotSerial, false, 7, 2.0);
        r.put(
            &spec,
            "latency_p50_us",
            Spread {
                value: 2.0,
                min: 1.0,
                max: 3.0,
            },
        );
        r.problem("example");
        let back: RunRecord = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(
            (back.correct, back.problems.len(), back.seed),
            (false, 1, 7)
        );
    }
}
