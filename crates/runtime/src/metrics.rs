//! Lock-free runtime telemetry: atomic counters, log-scaled latency and
//! holding-time histograms, per-wavelength occupancy gauges, and the
//! serializable [`MetricsSnapshot`] emitted periodically for offline
//! analysis (tables/plots via `wdm-analysis`, JSON via `serde_json`).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;
const MAX_NOTED_ERRORS: usize = 32;

/// Power-of-two bucketed histogram, safe for concurrent recording.
///
/// Bucket `i` holds values whose bit width is `i` (`0` for the value 0),
/// so relative error of a reported quantile is at most 2×; that is
/// plenty for p50/p99 admission-latency telemetry and costs a single
/// atomic increment on the hot path.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the geometric midpoint of
    /// the bucket containing the `q`-th ranked value.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_midpoint(i);
            }
        }
        bucket_midpoint(BUCKETS - 1)
    }
}

/// The bucket `value` falls in: its bit width, the widest values sharing
/// the last bucket.
fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Representative value for bucket `i` (values in `[2^(i-1), 2^i)`).
fn bucket_midpoint(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => 3u64 << (i - 2), // 1.5 · 2^(i-1)
    }
}

/// A [`LogHistogram`]'s buckets as plain integers, recorded by one
/// thread and added into a shared histogram in one go.
struct LocalHistogram {
    buckets: [u64; BUCKETS],
    /// Bit `i` is set iff `buckets[i] > 0` (`BUCKETS` is 64).
    touched: u64,
    count: u64,
    sum: u64,
}

impl LocalHistogram {
    fn new() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            touched: 0,
            count: 0,
            sum: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let i = bucket_of(value);
        self.buckets[i] += 1;
        self.touched |= 1 << i;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Add everything recorded into `shared` and start over.
    fn publish(&mut self, shared: &LogHistogram) {
        while self.touched != 0 {
            let i = self.touched.trailing_zeros() as usize;
            shared.buckets[i].fetch_add(self.buckets[i], Ordering::Relaxed);
            self.buckets[i] = 0;
            self.touched &= self.touched - 1;
        }
        if self.count > 0 {
            shared.count.fetch_add(self.count, Ordering::Relaxed);
            self.count = 0;
        }
        if self.sum > 0 {
            shared.sum.fetch_add(self.sum, Ordering::Relaxed);
            self.sum = 0;
        }
    }
}

/// One shard slice's hot-path counter updates, as plain integers: a
/// slice adds to its tally per event and [`Tally::publish`]es it into
/// the shared [`RuntimeMetrics`] once, instead of paying a relaxed
/// atomic RMW per counter per event. Reused across slices; it allocates
/// only when minted. Rare outcomes (blocked, expired, fatal, shed…)
/// still update [`RuntimeMetrics`] directly.
pub(crate) struct Tally {
    pub(crate) offered: u64,
    pub(crate) admitted: u64,
    pub(crate) departed: u64,
    /// Net change of the live-connection gauge per source wavelength.
    wavelength_delta: Vec<i64>,
    /// Samples bound for [`RuntimeMetrics::admit_latency_ns`].
    admit_wait: LocalHistogram,
    /// Samples bound for [`RuntimeMetrics::holding_micros`].
    holding: LocalHistogram,
}

impl Tally {
    /// An empty tally for a network with `k` wavelengths.
    pub(crate) fn new(wavelengths: u32) -> Self {
        Tally {
            offered: 0,
            admitted: 0,
            departed: 0,
            wavelength_delta: vec![0; wavelengths.max(1) as usize],
            admit_wait: LocalHistogram::new(),
            holding: LocalHistogram::new(),
        }
    }

    /// A connection on source wavelength `w` went live (ignored out of
    /// range, like [`RuntimeMetrics::wavelength_up`]).
    pub(crate) fn wavelength_up(&mut self, w: usize) {
        if let Some(d) = self.wavelength_delta.get_mut(w) {
            *d += 1;
        }
    }

    /// A connection on source wavelength `w` departed.
    pub(crate) fn wavelength_down(&mut self, w: usize) {
        if let Some(d) = self.wavelength_delta.get_mut(w) {
            *d -= 1;
        }
    }

    pub(crate) fn record_admit_wait(&mut self, nanos: u64) {
        self.admit_wait.record(nanos);
    }

    pub(crate) fn record_holding(&mut self, micros: u64) {
        self.holding.record(micros);
    }

    /// Add the tally into `m` and zero it.
    pub(crate) fn publish(&mut self, m: &RuntimeMetrics) {
        for (counter, n) in [
            (&m.offered, &mut self.offered),
            (&m.admitted, &mut self.admitted),
            (&m.departed, &mut self.departed),
        ] {
            if *n > 0 {
                counter.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        for (gauge, d) in m.wavelength_live.iter().zip(&mut self.wavelength_delta) {
            // Two's-complement wrap makes a negative delta a subtraction.
            if *d != 0 {
                gauge.fetch_add(std::mem::take(d) as u64, Ordering::Relaxed);
            }
        }
        self.admit_wait.publish(&m.admit_latency_ns);
        self.holding.publish(&m.holding_micros);
    }
}

/// Shared counters and gauges for one engine run. All updates are
/// relaxed atomics, and engine shards make their hot-path ones once per
/// slice; consistency across counters is only needed at snapshot time
/// and after drain, when the shards have quiesced.
#[derive(Debug)]
pub struct RuntimeMetrics {
    /// Connect requests handed to the engine.
    pub offered: AtomicU64,
    /// Connect requests admitted by the backend.
    pub admitted: AtomicU64,
    /// Hard blocks (middle-stage exhaustion — the theorems' event).
    pub blocked: AtomicU64,
    /// Retry attempts across all requests (busy-endpoint conflicts).
    pub retried: AtomicU64,
    /// Requests dropped after exhausting retries or their deadline.
    pub expired: AtomicU64,
    /// Connections torn down.
    pub departed: AtomicU64,
    /// Departure events for requests that were never admitted.
    pub skipped_departures: AtomicU64,
    /// Requests refused because they touched a failed component.
    pub component_down: AtomicU64,
    /// Faults injected into the backend.
    pub faults_injected: AtomicU64,
    /// Faults repaired.
    pub faults_repaired: AtomicU64,
    /// Live connections evicted by a fault.
    pub connections_hit: AtomicU64,
    /// Evicted connections successfully re-admitted on surviving
    /// hardware.
    pub healed: AtomicU64,
    /// Evicted connections the degraded fabric could not re-admit.
    pub heal_failed: AtomicU64,
    /// Departure events for connections a failed heal already removed.
    pub orphaned_departures: AtomicU64,
    /// Structural errors (must stay 0 in a healthy run).
    pub fatal: AtomicU64,
    /// Requests shed early under sustained blocking pressure.
    pub overloaded: AtomicU64,
    /// Physical rearrangement moves started (make phase entered),
    /// including moves later reverted.
    pub repack_moves_attempted: AtomicU64,
    /// Rearrangement moves whose old branch was released (break phase).
    pub repack_moves_committed: AtomicU64,
    /// Rearrangement moves undone, leaving the original route intact.
    pub repack_moves_aborted: AtomicU64,
    /// Seqlock retries of lock-free gauge reads against a concurrent
    /// backend (a retry means a snapshot genuinely overlapped an
    /// in-flight fine-grained commit).
    pub snapshot_retries: AtomicU64,
    /// Retry wait of each admitted connect, nanoseconds: its shard
    /// slice's clock stamp minus the stamp of its first attempt. 0 for a
    /// connect admitted on its first attempt; for one a retry admitted,
    /// the time from its first attempt to that retry.
    pub admit_latency_ns: LogHistogram,
    /// Wall-clock latency of repack attempts (the extra work past the
    /// plain connect that blocked), nanoseconds.
    pub repack_latency_ns: LogHistogram,
    /// Wall-clock per-connection heal latency (teardown to re-admit),
    /// nanoseconds.
    pub heal_latency_ns: LogHistogram,
    /// Holding time in simulation micro-units (sim time × 10⁶).
    pub holding_micros: LogHistogram,
    /// Live connections per source wavelength.
    wavelength_live: Vec<AtomicU64>,
    /// First few error messages, for the drain report.
    errors: Mutex<Vec<String>>,
}

impl RuntimeMetrics {
    /// Metrics for a network with `k` wavelengths.
    pub fn new(wavelengths: u32) -> Self {
        RuntimeMetrics {
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            departed: AtomicU64::new(0),
            skipped_departures: AtomicU64::new(0),
            component_down: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            faults_repaired: AtomicU64::new(0),
            connections_hit: AtomicU64::new(0),
            healed: AtomicU64::new(0),
            heal_failed: AtomicU64::new(0),
            orphaned_departures: AtomicU64::new(0),
            fatal: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            repack_moves_attempted: AtomicU64::new(0),
            repack_moves_committed: AtomicU64::new(0),
            repack_moves_aborted: AtomicU64::new(0),
            snapshot_retries: AtomicU64::new(0),
            admit_latency_ns: LogHistogram::new(),
            repack_latency_ns: LogHistogram::new(),
            heal_latency_ns: LogHistogram::new(),
            holding_micros: LogHistogram::new(),
            wavelength_live: (0..wavelengths.max(1)).map(|_| AtomicU64::new(0)).collect(),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Gauge up: a connection on source wavelength `w` went live.
    pub fn wavelength_up(&self, w: usize) {
        if let Some(g) = self.wavelength_live.get(w) {
            g.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Gauge down: a connection on source wavelength `w` departed.
    pub fn wavelength_down(&self, w: usize) {
        if let Some(g) = self.wavelength_live.get(w) {
            g.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Current per-wavelength live-connection gauges.
    ///
    /// A shard publishes its admissions after it releases the backend
    /// lock, so a failed heal's gauge-down can land first and leave a
    /// gauge briefly below zero; it reads as 0 until the publish lands.
    pub fn wavelength_gauges(&self) -> Vec<u64> {
        self.wavelength_live
            .iter()
            .map(|g| (g.load(Ordering::Relaxed) as i64).max(0) as u64)
            .collect()
    }

    /// Remember an error message (bounded; counted in `fatal` by the
    /// caller).
    pub fn note_error(&self, msg: String) {
        let mut errs = self.errors.lock();
        if errs.len() < MAX_NOTED_ERRORS {
            errs.push(msg);
        }
    }

    /// Errors noted so far.
    pub fn errors(&self) -> Vec<String> {
        self.errors.lock().clone()
    }

    /// Point-in-time snapshot. `active` and `middle_loads` come from the
    /// backend (the caller holds its lock briefly).
    pub fn snapshot(
        &self,
        elapsed_secs: f64,
        active: u64,
        middle_loads: Vec<u64>,
    ) -> MetricsSnapshot {
        let offered = self.offered.load(Ordering::Relaxed);
        let blocked = self.blocked.load(Ordering::Relaxed);
        MetricsSnapshot {
            elapsed_secs,
            offered,
            admitted: self.admitted.load(Ordering::Relaxed),
            blocked,
            retried: self.retried.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            departed: self.departed.load(Ordering::Relaxed),
            skipped_departures: self.skipped_departures.load(Ordering::Relaxed),
            component_down: self.component_down.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            faults_repaired: self.faults_repaired.load(Ordering::Relaxed),
            connections_hit: self.connections_hit.load(Ordering::Relaxed),
            healed: self.healed.load(Ordering::Relaxed),
            heal_failed: self.heal_failed.load(Ordering::Relaxed),
            orphaned_departures: self.orphaned_departures.load(Ordering::Relaxed),
            fatal: self.fatal.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            repack_moves_attempted: self.repack_moves_attempted.load(Ordering::Relaxed),
            repack_moves_committed: self.repack_moves_committed.load(Ordering::Relaxed),
            repack_moves_aborted: self.repack_moves_aborted.load(Ordering::Relaxed),
            snapshot_retries: self.snapshot_retries.load(Ordering::Relaxed),
            active,
            blocking_probability: if offered == 0 {
                0.0
            } else {
                blocked as f64 / offered as f64
            },
            p50_admit_ns: self.admit_latency_ns.quantile(0.50),
            p99_admit_ns: self.admit_latency_ns.quantile(0.99),
            mean_admit_ns: self.admit_latency_ns.mean(),
            p99_heal_ns: self.heal_latency_ns.quantile(0.99),
            p99_repack_ns: self.repack_latency_ns.quantile(0.99),
            mean_holding: self.holding_micros.mean() / 1e6,
            wavelength_live: self.wavelength_gauges(),
            middle_loads,
        }
    }
}

/// A serializable point-in-time view of a running (or drained) engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wall-clock seconds since the engine started.
    pub elapsed_secs: f64,
    /// Connect requests handed to the engine so far.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Hard blocks (middle-stage exhaustion).
    pub blocked: u64,
    /// Total retry attempts.
    pub retried: u64,
    /// Requests dropped at their deadline.
    pub expired: u64,
    /// Connections torn down.
    pub departed: u64,
    /// Departures skipped because admission failed.
    pub skipped_departures: u64,
    /// Requests refused for touching a failed component.
    pub component_down: u64,
    /// Faults injected so far.
    pub faults_injected: u64,
    /// Faults repaired so far.
    pub faults_repaired: u64,
    /// Live connections evicted by faults.
    pub connections_hit: u64,
    /// Evicted connections re-admitted on surviving hardware.
    pub healed: u64,
    /// Evicted connections lost for good.
    pub heal_failed: u64,
    /// Departures for connections a failed heal already removed.
    pub orphaned_departures: u64,
    /// Structural errors.
    pub fatal: u64,
    /// Requests shed early under sustained blocking pressure.
    pub overloaded: u64,
    /// Rearrangement moves started (including later-reverted ones).
    pub repack_moves_attempted: u64,
    /// Rearrangement moves committed (old branch released).
    pub repack_moves_committed: u64,
    /// Rearrangement moves aborted (original route kept).
    pub repack_moves_aborted: u64,
    /// Seqlock retries of lock-free gauge reads against a concurrent
    /// backend (absent in pre-concurrency serialized snapshots).
    #[serde(default)]
    pub snapshot_retries: u64,
    /// Live connections at snapshot time.
    pub active: u64,
    /// `blocked / offered` (0 when nothing offered).
    pub blocking_probability: f64,
    /// Median retry wait of admitted connects, nanoseconds (log-bucket
    /// approximation): the wait busy-endpoint retries added before
    /// admission, 0 for a first-attempt admission. Not the time spent
    /// admitting (see [`RuntimeMetrics::admit_latency_ns`]).
    pub p50_admit_ns: u64,
    /// 99th-percentile retry wait of admitted connects, nanoseconds.
    pub p99_admit_ns: u64,
    /// Mean retry wait of admitted connects, nanoseconds.
    pub mean_admit_ns: f64,
    /// 99th-percentile per-connection heal latency, nanoseconds (0 when
    /// no heals ran).
    pub p99_heal_ns: u64,
    /// 99th-percentile repack-attempt latency, nanoseconds (0 when no
    /// repacks ran).
    pub p99_repack_ns: u64,
    /// Mean holding time in simulation time units.
    pub mean_holding: f64,
    /// Live connections per source wavelength.
    pub wavelength_live: Vec<u64>,
    /// Per-middle-switch loads (empty for single-stage backends).
    pub middle_loads: Vec<u64>,
}

impl MetricsSnapshot {
    /// Admitted connections per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.admitted as f64 / self.elapsed_secs
        }
    }

    /// Render as a JSON line (for log shipping / offline analysis).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        // True median 500; log buckets give the [256, 512) midpoint.
        assert!((256..=768).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 512, "p99 = {p99}");
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn gauges_track_up_down() {
        let m = RuntimeMetrics::new(3);
        m.wavelength_up(0);
        m.wavelength_up(0);
        m.wavelength_up(2);
        m.wavelength_down(0);
        assert_eq!(m.wavelength_gauges(), vec![1, 0, 1]);
        // Out-of-range wavelength is ignored, not a panic.
        m.wavelength_up(99);
        // A failed heal's gauge-down ahead of the admitting slice's
        // publish reads as 0, not as a wrapped count.
        m.wavelength_down(1);
        assert_eq!(m.wavelength_gauges(), vec![1, 0, 1]);
        m.wavelength_up(1);
        assert_eq!(m.wavelength_gauges(), vec![1, 0, 1]);
    }

    #[test]
    fn a_published_tally_equals_the_per_event_updates() {
        let (direct, tallied) = (RuntimeMetrics::new(3), RuntimeMetrics::new(3));
        direct.wavelength_up(1);
        tallied.wavelength_up(1);
        let mut tally = Tally::new(3);
        // Two slices: admissions, then departures whose negative gauge
        // deltas publish as subtractions.
        let slices: [&[(u32, u64)]; 2] = [&[(0, 0), (2, 0), (0, 1500)], &[(1, 7), (0, 900)]];
        for (s, slice) in slices.iter().enumerate() {
            for &(w, v) in *slice {
                direct.offered.fetch_add(1, Ordering::Relaxed);
                tally.offered += 1;
                if s == 0 {
                    direct.admitted.fetch_add(1, Ordering::Relaxed);
                    direct.admit_latency_ns.record(v);
                    direct.wavelength_up(w as usize);
                    tally.admitted += 1;
                    tally.record_admit_wait(v);
                    tally.wavelength_up(w as usize);
                } else {
                    direct.departed.fetch_add(1, Ordering::Relaxed);
                    direct.holding_micros.record(v);
                    direct.wavelength_down(w as usize);
                    tally.departed += 1;
                    tally.record_holding(v);
                    tally.wavelength_down(w as usize);
                }
            }
            tally.wavelength_up(99); // out of range: ignored, as on the metrics
            tally.publish(&tallied);
        }
        assert_eq!(
            tallied.snapshot(1.0, 0, Vec::new()),
            direct.snapshot(1.0, 0, Vec::new())
        );
        assert_eq!(tallied.wavelength_gauges(), vec![1, 0, 1]);
        for (a, b) in [
            (&direct.admit_latency_ns, &tallied.admit_latency_ns),
            (&direct.holding_micros, &tallied.holding_micros),
        ] {
            assert_eq!(a.count(), b.count());
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                assert_eq!(a.quantile(q), b.quantile(q));
            }
        }
        // Publishing an empty tally changes nothing.
        tally.publish(&tallied);
        assert_eq!(
            tallied.snapshot(1.0, 0, Vec::new()),
            direct.snapshot(1.0, 0, Vec::new())
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = RuntimeMetrics::new(2);
        m.offered.fetch_add(10, Ordering::Relaxed);
        m.admitted.fetch_add(9, Ordering::Relaxed);
        m.blocked.fetch_add(1, Ordering::Relaxed);
        m.admit_latency_ns.record(1500);
        m.overloaded.fetch_add(2, Ordering::Relaxed);
        m.repack_moves_attempted.fetch_add(3, Ordering::Relaxed);
        m.repack_moves_committed.fetch_add(2, Ordering::Relaxed);
        m.repack_moves_aborted.fetch_add(1, Ordering::Relaxed);
        m.repack_latency_ns.record(900);
        m.snapshot_retries.fetch_add(5, Ordering::Relaxed);
        let snap = m.snapshot(2.0, 4, vec![3, 1]);
        assert_eq!(snap.snapshot_retries, 5);
        assert_eq!(snap.overloaded, 2);
        assert_eq!(snap.repack_moves_attempted, 3);
        assert_eq!(snap.repack_moves_committed, 2);
        assert_eq!(snap.repack_moves_aborted, 1);
        assert!(snap.p99_repack_ns > 0);
        assert!((snap.blocking_probability - 0.1).abs() < 1e-12);
        assert!((snap.throughput() - 4.5).abs() < 1e-12);
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Pre-concurrency snapshots lack the seqlock retry counter; it
        // must default rather than fail deserialization.
        let legacy = json.replace("\"snapshot_retries\":5,", "");
        let back = MetricsSnapshot::from_json(&legacy).unwrap();
        assert_eq!(back.snapshot_retries, 0);
    }

    #[test]
    fn error_notes_are_bounded() {
        let m = RuntimeMetrics::new(1);
        for i in 0..100 {
            m.note_error(format!("e{i}"));
        }
        assert_eq!(m.errors().len(), MAX_NOTED_ERRORS);
    }
}
