//! Metric derivations the workloads share: the end-to-end five from a
//! [`Window`], set-up phases, engine counters from `MetricsSnapshot`
//! deltas, and the traced run's per-segment budget.

use serde::Serialize;
use std::sync::atomic::Ordering;
use wdm_runtime::MetricsSnapshot;

use crate::report::RunRecord;
use crate::spec::{BenchmarkSpec, Workload};
use crate::stats::{self, Hist, Spread, Window, SUB_WINDOWS};
use crate::trace::{JoinedRequest, TraceCounters, TraceSink};
use crate::RunArgs;

/// What the measured windows (one per system) yield: the two gated
/// end-to-end metrics — set-up time and peak RSS are per run — and,
/// beside the registry, the tail latencies and the CPU cost. Those
/// could not hold a bound within the contract's 25 % cap on a shared
/// host (see README), so they are printed, recorded and compared by
/// `benchmark compare`, but not gated by the driver.
pub fn put_end_to_end(rec: &mut RunRecord, spec: &BenchmarkSpec, windows: &[&Window]) {
    rec.put(spec, "admissions_per_s", stats::admissions_per_s(windows));
    rec.put(spec, "latency_p50_us", stats::latency_us(windows, 0.50));
    rec.put_extra("latency_p95_us", stats::latency_us(windows, 0.95), "us");
    rec.put_extra("latency_p99_us", stats::latency_us(windows, 0.99), "us");
    rec.put_extra("cpu_us_per_req", stats::cpu_us_per_req(windows), "us");
    let all = stats::merged_latency(windows);
    rec.put_extra(
        "latency_samples",
        Spread::single(all.count() as f64),
        "count",
    );
    rec.put_extra(
        "latency_p999_us",
        Spread::single(all.quantile(0.999) / 1e3),
        "us",
    );
}

/// The frame of every untraced run. Several systems are built one after
/// another; `system` sets one up, measures it for the given nanoseconds
/// in the given number of sub-windows, tears it down with every
/// end-of-life check, and returns its set-up time and what it measured.
/// `setup_s` is the median set-up time; the other metrics pool the
/// systems' sub-windows, which puts what differs between two starts of
/// the same system (which threads share a core, how the shards' cycles
/// interleave) inside one run instead of between runs.
pub fn measure_systems<M>(
    args: &RunArgs,
    spec: &BenchmarkSpec,
    rec: &mut RunRecord,
    window_of: impl Fn(&M) -> &Window,
    mut system: impl FnMut(&mut RunRecord, u64, usize) -> Result<(f64, M), String>,
) -> Result<Vec<M>, String> {
    let systems = args.scale.setups;
    let len_ns = (args.seconds * 1e9) as u64 / systems as u64;
    let (mut setup_s, mut measured) = (Vec::new(), Vec::new());
    for _ in 0..systems {
        let (s, m) = system(rec, len_ns, SUB_WINDOWS / systems)?;
        setup_s.push(s);
        measured.push(m);
    }
    rec.put1(spec, "setup_s", stats::median(&setup_s));
    let windows: Vec<&Window> = measured.iter().map(window_of).collect();
    put_end_to_end(rec, spec, &windows);
    rec.put1(spec, "peak_rss_mib", crate::sys::peak_rss_mib());
    Ok(measured)
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    pub backend_build_s: f64,
    pub slotgen_s: f64,
    pub tracegen_s: f64,
    pub server_start_s: f64,
    pub connect_s: f64,
    pub warmup_s: f64,
}

impl SetupPhases {
    pub fn put(&self, rec: &mut RunRecord, spec: &BenchmarkSpec, workload: Workload) {
        for (name, value) in [
            ("setup.backend_build_s", self.backend_build_s),
            ("workload.slotgen_us", self.slotgen_s * 1e6),
            ("setup.tracegen_s", self.tracegen_s),
            ("setup.server_start_s", self.server_start_s),
            ("setup.connect_s", self.connect_s),
            ("setup.warmup_s", self.warmup_s),
        ] {
            if workload.measures(name) {
                rec.put1(spec, name, value);
            }
        }
    }
}

/// Conservation law of the engine's counters after a drain: every
/// offered connect was admitted, blocked or expired (at the bound the
/// other fates — component down, shed, fatal — would be failures too).
pub fn check_engine_conservation(rec: &mut RunRecord, s: &MetricsSnapshot) {
    rec.check(s.offered == s.admitted + s.blocked + s.expired, || {
        format!(
            "engine offered {} != admitted {} + blocked {} + expired {}",
            s.offered, s.admitted, s.blocked, s.expired
        )
    });
}

/// `runtime.engine.*` counters over one window, from two snapshots.
pub fn put_engine_window(
    rec: &mut RunRecord,
    spec: &BenchmarkSpec,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let offered = after.offered - before.offered;
    let admitted = after.admitted - before.admitted;
    rec.put1(spec, "runtime.engine.offered", offered as f64);
    rec.put1(spec, "runtime.engine.admitted", admitted as f64);
    rec.put1(
        spec,
        "runtime.engine.blocked",
        (after.blocked - before.blocked) as f64,
    );
    rec.put1(
        spec,
        "runtime.engine.expired",
        (after.expired - before.expired) as f64,
    );
    rec.put1(
        spec,
        "runtime.engine.retry_ratio",
        (after.retried - before.retried) as f64 / offered.max(1) as f64,
    );
    // The snapshot's mean covers the engine's life; un-mix the window's
    // share (one latency sample per admission).
    let sum_after = after.mean_admit_ns * after.admitted as f64;
    let sum_before = before.mean_admit_ns * before.admitted as f64;
    rec.put1(
        spec,
        "runtime.engine.mean_admit_ns",
        (sum_after - sum_before) / admitted.max(1) as f64,
    );
}

/// Share of the window the (single, locked) backend was inside a call,
/// and requests carried per call, from the `TracedBackend` counters.
pub fn put_backend_share(
    rec: &mut RunRecord,
    spec: &BenchmarkSpec,
    calls: &TraceCounters,
    wall_ns: u64,
) {
    rec.put1(
        spec,
        "runtime.engine.backend_busy_share",
        calls.busy_ns as f64 / wall_ns.max(1) as f64,
    );
    rec.put1(
        spec,
        "runtime.engine.batch_items_mean",
        calls.items as f64 / calls.calls.max(1) as f64,
    );
}

/// `trace.*_us_mean` / `_p99`: the request span and its four segments.
/// The means sum to the request mean by construction; the run fails if
/// any request could not be joined to its backend span.
pub fn put_trace_segments(rec: &mut RunRecord, spec: &BenchmarkSpec, sink: &TraceSink) {
    let segments: [(&str, &Hist); 5] = [
        ("request", &sink.request),
        ("loadgen_late", &sink.late),
        ("pre_backend", &sink.pre_backend),
        ("backend", &sink.backend),
        ("post_backend", &sink.post_backend),
    ];
    for (name, hist) in segments {
        rec.put1(spec, &format!("trace.{name}_us_mean"), hist.mean() / 1e3);
        rec.put1(
            spec,
            &format!("trace.{name}_us_p99"),
            hist.quantile(0.99) / 1e3,
        );
    }
    rec.put_extra(
        "trace.requests_joined",
        Spread::single(sink.request.count() as f64),
        "count",
    );
    let mismatches = sink.mismatches.load(Ordering::Relaxed);
    rec.check(mismatches == 0 && sink.request.count() > 0, || {
        format!(
            "{mismatches} traced requests could not be joined to a backend span ({} joined)",
            sink.request.count()
        )
    });
    let parts: f64 = segments[1..].iter().map(|(_, h)| h.mean()).sum();
    rec.check(
        (parts - sink.request.mean()).abs() <= 0.01 * sink.request.mean(),
        || {
            format!(
                "trace segments sum to {parts:.1} ns but the request span is {:.1} ns",
                sink.request.mean()
            )
        },
    );
}

/// `trace.overhead_share` = (untraced − traced admissions/s) ÷ untraced,
/// both halves measured in this process (reported, not gated).
pub fn put_trace_overhead(
    rec: &mut RunRecord,
    spec: &BenchmarkSpec,
    reference: &Window,
    traced: &Window,
) {
    let (untraced, with_trace) = (
        stats::admissions_per_s(&[reference]).value,
        stats::admissions_per_s(&[traced]).value,
    );
    rec.put1(
        spec,
        "trace.overhead_share",
        (untraced - with_trace) / untraced.max(f64::MIN_POSITIVE),
    );
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    clock: &'static str,
    note: &'static str,
    requests_joined: u64,
    requests: Vec<JoinedRequest>,
}

/// Write the joined requests kept whole to
/// `benchmark/out/<workload>.trace.json`.
pub fn write_trace_file(args: &RunArgs, sink: &TraceSink) -> Result<(), String> {
    let dir = crate::out_dir()?;
    let path = dir.join(format!("{}.trace.json", args.workload.name()));
    let file = TraceFile {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        clock: "nanoseconds since the run's clock started; one monotonic clock for all stamps",
        note: "each request is a root span intended_ns..received_ns with one child span \
               backend_enter_ns..backend_exit_ns; only the first requests of the traced \
               window are kept whole, the distributions cover all of them",
        requests_joined: sink.request.count(),
        requests: sink.head(),
    };
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
