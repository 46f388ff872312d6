//! Fixed-size latency histograms, percentiles, and the sub-window
//! statistic every end-to-end metric is reported as.
//!
//! Latencies go into [`Hist`] rather than a sample vector so the
//! generator's memory is constant however long a window runs (peak RSS
//! is itself a reported metric).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sub-buckets per power of two: relative bucket width ≤ 1/64 ≈ 1.6 %,
/// well under the tightest regression bound, and quantiles interpolate
/// inside the bucket.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A run's measuring time is cut into this many equal sub-windows in
/// all, shared evenly among the systems it sets up and measures; a
/// metric's value is a statistic over them (see [`Spread::of`]).
pub const SUB_WINDOWS: usize = 40;

/// Log-linear histogram of `u64` values (nanoseconds here). Recording
/// is one relaxed atomic add per field, so engine-shard callbacks and
/// the generator thread can share one instance.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let (row, sub) = (i as u64 / SUB, i as u64 % SUB);
    if row == 0 {
        return (sub as f64, sub as f64 + 1.0);
    }
    let width = (1u128 << (row - 1)) as f64;
    let lo = (SUB + sub) as f64 * width;
    (lo, lo + width)
}

impl Hist {
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum.load(Ordering::Relaxed) as f64 / n as f64,
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), interpolated linearly by rank
    /// inside the bucket that holds it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * n as f64;
        let mut seen = 0.0;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed) as f64;
            if c > 0.0 && seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                return lo + (hi - lo) * ((rank - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        bucket_range(BUCKETS - 1).1
    }

    /// Add every sample of `other` into `self`.
    pub fn merge(&self, other: &Hist) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Median of a non-empty slice (mean of the two middle values when the
/// length is even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric as reported: a value and the run's own spread around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The statistic over per-sub-window values: the sub-window at the
    /// **best decile** (90th percentile toward `better`), with the
    /// range from the best sub-window to the better-side quartile as
    /// the run's own spread.
    ///
    /// Why not the median: what disturbs a run on a shared host is
    /// one-sided — a neighbour's burst or a descheduled thread only ever
    /// makes sub-windows *worse*, for seconds at a time — so the good
    /// tail is where the program's own behaviour shows. In the sizing
    /// runs a 60 s single-thread series drifted between 157k and 283k
    /// adm/s; over 20 s chunks the median moved 14.5 %, the better-side
    /// quartile 9.9 %, the best decile 4.1 %.
    pub fn of(values: &[f64], better: Better) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if better == Better::Higher {
            v.reverse();
        }
        let (best, quartile) = (v[0], v[v.len() / 4]);
        Spread {
            value: v[v.len() / 10],
            min: best.min(quartile),
            max: best.max(quartile),
        }
    }

    /// A metric measured once per run (set-up time, peak RSS).
    pub fn single(value: f64) -> Spread {
        Spread {
            value,
            min: value,
            max: value,
        }
    }
}

/// What one sub-window accumulates. All atomics: engine-shard callbacks
/// and the generator thread fill it concurrently.
#[derive(Default)]
pub struct SubWindow {
    /// Request latencies, ns.
    pub latency: Hist,
    /// Requests completed (any verdict).
    pub completed: AtomicU64,
    /// `Connect` requests answered `Ok`.
    pub admitted: AtomicU64,
    /// Open loop: how late requests were sent (sent − intended), ns.
    pub late: Hist,
    /// Wall time this sub-window actually covered, ns (edges are
    /// stamped by the first [`Window::advance`] past the nominal edge).
    wall_ns: AtomicU64,
    /// Process CPU consumed inside it, ns.
    cpu_ns: AtomicU64,
}

/// Where the last stamped sub-window edge fell.
struct Edge {
    wall_ns: u64,
    cpu_ns: u64,
}

/// One measured stretch of one system, cut into equal consecutive
/// sub-windows by completion time.
pub struct Window {
    pub subs: Vec<SubWindow>,
    start_ns: u64,
    len_ns: u64,
    /// Sub-window currently being filled by [`Window::advance`].
    current: AtomicUsize,
    edge: Mutex<Edge>,
}

impl Window {
    /// A window of `len_ns` starting at `start_ns` on the run's clock,
    /// cut into `subs` sub-windows.
    pub fn new(start_ns: u64, len_ns: u64, subs: usize) -> Window {
        Window {
            subs: (0..subs.max(1)).map(|_| SubWindow::default()).collect(),
            start_ns,
            len_ns,
            current: AtomicUsize::new(0),
            edge: Mutex::new(Edge {
                wall_ns: start_ns,
                cpu_ns: crate::sys::process_cpu().as_nanos() as u64,
            }),
        }
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.len_ns
    }

    /// Index of the sub-window holding time `now_ns` (clamped, so late
    /// completions count toward the last one).
    pub fn index(&self, now_ns: u64) -> usize {
        let off = now_ns.saturating_sub(self.start_ns) as u128;
        let n = self.subs.len();
        ((off * n as u128 / self.len_ns.max(1) as u128) as usize).min(n - 1)
    }

    /// Called by the generator thread with the current time: when a
    /// sub-window edge has been crossed, stamp the finished sub-window's
    /// wall and CPU extent. Returns the index now being filled.
    pub fn advance(&self, now_ns: u64) -> usize {
        let idx = self.index(now_ns);
        if idx != self.current.load(Ordering::Relaxed) {
            self.stamp_edge(now_ns);
            self.current.store(idx, Ordering::Relaxed);
        }
        idx
    }

    /// Stamp the last sub-window; call once when the window ends.
    pub fn finish(&self, now_ns: u64) {
        self.stamp_edge(now_ns);
    }

    fn stamp_edge(&self, now_ns: u64) {
        let cpu = crate::sys::process_cpu().as_nanos() as u64;
        let mut edge = self.edge.lock().expect("window edge lock poisoned");
        let sub = &self.subs[self.current.load(Ordering::Relaxed)];
        sub.wall_ns
            .fetch_add(now_ns - edge.wall_ns, Ordering::Relaxed);
        sub.cpu_ns.fetch_add(cpu - edge.cpu_ns, Ordering::Relaxed);
        *edge = Edge {
            wall_ns: now_ns,
            cpu_ns: cpu,
        };
    }

    /// `f` of every sub-window, in time order.
    pub fn per_sub(&self, f: impl Fn(&SubWindow) -> f64) -> Vec<f64> {
        self.subs.iter().map(f).collect()
    }

    #[cfg(test)]
    pub fn admitted(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| s.admitted.load(Ordering::Relaxed))
            .sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| s.wall_ns.load(Ordering::Relaxed))
            .sum()
    }

    pub fn cpu_ns(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| s.cpu_ns.load(Ordering::Relaxed))
            .sum()
    }
}

/// `f` of every sub-window of every window: the pool a metric's
/// statistic is taken over.
pub fn pooled(windows: &[&Window], f: impl Fn(&SubWindow) -> f64) -> Vec<f64> {
    windows.iter().flat_map(|w| w.per_sub(&f)).collect()
}

pub fn admissions_per_s(windows: &[&Window]) -> Spread {
    let rates = pooled(windows, |s| {
        let wall_s = s.wall_ns.load(Ordering::Relaxed).max(1) as f64 / 1e9;
        s.admitted.load(Ordering::Relaxed) as f64 / wall_s
    });
    Spread::of(&rates, Better::Higher)
}

pub fn latency_us(windows: &[&Window], q: f64) -> Spread {
    let per_sub = pooled(windows, |s| s.latency.quantile(q) / 1e3);
    Spread::of(&per_sub, Better::Lower)
}

pub fn cpu_us_per_req(windows: &[&Window]) -> Spread {
    let costs = pooled(windows, |s| {
        let done = s.completed.load(Ordering::Relaxed).max(1) as f64;
        s.cpu_ns.load(Ordering::Relaxed) as f64 / 1e3 / done
    });
    Spread::of(&costs, Better::Lower)
}

/// Every sub-window's latencies in one histogram (for the sample count
/// and the informational p99.9).
pub fn merged_latency(windows: &[&Window]) -> Hist {
    let all = Hist::default();
    for s in windows.iter().flat_map(|w| &w.subs) {
        all.merge(&s.latency);
    }
    all
}

/// The run's one monotonic clock: generator and in-process server stamp
/// against the same origin, as nanoseconds since it.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_range() {
        let mut prev_hi = 0.0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(
                lo,
                prev_hi,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert!(hi > lo);
            prev_hi = hi;
        }
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456_789, u64::MAX] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi || v == u64::MAX,
                "{v} in [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_bucket_width() {
        let h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 100_000);
        assert!((h.mean() - 500_005.0).abs() < 1e-6);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_samples() {
        let (a, b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(30);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_best_decile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // 40 sub-windows 1..=40: best decile is the 5th best, spread
        // runs from the best to the better-side quartile (11th best).
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let up = Spread::of(&v, Better::Higher);
        assert_eq!((up.value, up.min, up.max), (36.0, 30.0, 40.0));
        let down = Spread::of(&v, Better::Lower);
        assert_eq!((down.value, down.min, down.max), (5.0, 1.0, 11.0));
        // A burst that ruins a third of the sub-windows moves neither.
        let mut hit = v.clone();
        hit[..13].iter_mut().for_each(|x| *x = 0.0);
        assert_eq!(Spread::of(&hit, Better::Higher), up);
        let few = Spread::of(&[5.0, 1.0, 4.0], Better::Lower);
        assert_eq!((few.value, few.min, few.max), (1.0, 1.0, 1.0));
    }

    #[test]
    fn window_reports_per_sub_window_statistics() {
        let len = 1_000 * SUB_WINDOWS as u64;
        let w = Window::new(1_000, len, SUB_WINDOWS);
        // Sub-window i sees i+1 admissions; latencies 100·(i+1) ns.
        for i in 0..SUB_WINDOWS as u64 {
            let t = 1_000 + i * 1_000 + 1;
            let idx = w.advance(t);
            assert_eq!(idx, i as usize);
            for _ in 0..=i {
                w.subs[idx].admitted.fetch_add(1, Ordering::Relaxed);
                w.subs[idx].completed.fetch_add(2, Ordering::Relaxed);
                w.subs[idx].latency.record(100 * (i + 1));
            }
        }
        w.finish(1_000 + len);
        assert_eq!(w.index(u64::MAX / 2), SUB_WINDOWS - 1);
        assert_eq!(w.index(0), 0);
        assert_eq!(w.wall_ns(), len);
        let n = SUB_WINDOWS as u64;
        assert_eq!(w.admitted(), n * (n + 1) / 2);
        // Best decile of admissions: the 5th busiest sub-window, which
        // saw n-4 admissions in ~1 µs.
        let adm = admissions_per_s(&[&w]);
        let expect = (n - 4) as f64 / 1e-6;
        assert!((adm.value - expect).abs() / expect < 0.01, "{adm:?}");
        assert!(adm.min < adm.value && adm.value < adm.max);
        // Best decile of latency: the 5th fastest sub-window, 500 ns.
        let p50 = latency_us(&[&w], 0.5);
        assert!((p50.value - 0.5).abs() < 0.01, "{p50:?}");
        assert_eq!(merged_latency(&[&w]).count(), n * (n + 1) / 2);
        // Pooling two windows doubles the pool, not the statistic.
        assert_eq!(admissions_per_s(&[&w, &w]).max, adm.max);
        assert_eq!(pooled(&[&w, &w], |_| 1.0).len(), 2 * SUB_WINDOWS);
    }
}
