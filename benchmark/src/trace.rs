//! The traced run: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! [`TracedBackend`] wraps the backend the engine drives and stamps
//! every call (enter, exit, item count, source endpoints). The
//! generator stamps every request (intended, sent, received). The two
//! are joined on *(source endpoint, per-slot sequence number)*: a slot's
//! requests reach the backend in the order they were sent (one TCP
//! connection, one engine shard, FIFO), so the *q*-th backend call for a
//! source is the *q*-th request of its slot. The join therefore needs
//! only the last few spans per source, which keeps tracing memory
//! constant; the first [`HEAD_REQUESTS`] joined requests are kept whole
//! and written to the trace file.
//!
//! By construction the four segments sum to the request span:
//!
//! ```text
//! intended ──late──▶ sent ──pre_backend──▶ enter ──backend──▶ exit ──post_backend──▶ received
//! ```

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wdm_core::{Endpoint, Fault, MulticastConnection, Reject};
use wdm_runtime::{Backend, RepackStats};

use crate::stats::{Clock, Hist};

/// Spans remembered per source. A slot has at most two requests in
/// flight, so the span of request `q` is still there when its response
/// arrives.
const RING: usize = 4;
/// Joined requests kept whole for the trace file.
pub const HEAD_REQUESTS: usize = 10_000;

#[derive(Default)]
struct SourceCell {
    /// Backend calls that carried this source so far.
    calls: AtomicU64,
    enter_ns: [AtomicU64; RING],
    exit_ns: [AtomicU64; RING],
}

/// One request's stamps, as written to the trace file.
#[derive(Debug, Clone, Serialize)]
pub struct JoinedRequest {
    pub source_port: u32,
    pub source_wavelength: u32,
    /// Per-slot sequence number (even = connect, odd = disconnect).
    pub seq: u64,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub backend_enter_ns: u64,
    pub backend_exit_ns: u64,
    pub received_ns: u64,
}

/// Where spans and joined requests accumulate. Shared between the
/// [`TracedBackend`] (written from engine-shard threads) and whoever
/// receives responses (generator thread or engine callbacks).
pub struct TraceSink {
    clock: Clock,
    wavelengths: u32,
    cells: Vec<SourceCell>,
    /// Backend calls, the items they carried, and the time inside them.
    pub calls: AtomicU64,
    pub items: AtomicU64,
    pub busy_ns: AtomicU64,
    /// Per-segment distributions over every joined request, ns.
    pub request: Hist,
    pub late: Hist,
    pub pre_backend: Hist,
    pub backend: Hist,
    pub post_backend: Hist,
    /// Requests whose span was missing or lay outside sent..received.
    pub mismatches: AtomicU64,
    head: Mutex<Vec<JoinedRequest>>,
}

impl TraceSink {
    pub fn new(clock: Clock, ports: u32, wavelengths: u32) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            clock,
            wavelengths,
            cells: (0..ports * wavelengths)
                .map(|_| SourceCell::default())
                .collect(),
            calls: AtomicU64::new(0),
            items: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            request: Hist::default(),
            late: Hist::default(),
            pre_backend: Hist::default(),
            backend: Hist::default(),
            post_backend: Hist::default(),
            mismatches: AtomicU64::new(0),
            head: Mutex::new(Vec::with_capacity(HEAD_REQUESTS)),
        })
    }

    /// Record one backend call covering `sources`.
    fn span(&self, sources: impl IntoIterator<Item = Endpoint>, enter_ns: u64, exit_ns: u64) {
        let mut items = 0;
        for src in sources {
            items += 1;
            let cell = &self.cells[src.flat_index(self.wavelengths)];
            // The backend is behind `&mut self`, so one thread at a time
            // writes a cell; Release publishes the stamps to the Acquire
            // load in `complete`.
            let n = cell.calls.load(Ordering::Relaxed);
            cell.enter_ns[n as usize % RING].store(enter_ns, Ordering::Relaxed);
            cell.exit_ns[n as usize % RING].store(exit_ns, Ordering::Relaxed);
            cell.calls.store(n + 1, Ordering::Release);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(exit_ns - enter_ns, Ordering::Relaxed);
    }

    /// Join one answered request with the backend call that carried it
    /// and add its four segments to the distributions.
    pub fn complete(
        &self,
        source: Endpoint,
        seq: u64,
        intended_ns: u64,
        sent_ns: u64,
        received_ns: u64,
    ) {
        let cell = &self.cells[source.flat_index(self.wavelengths)];
        let calls = cell.calls.load(Ordering::Acquire);
        let enter_ns = cell.enter_ns[seq as usize % RING].load(Ordering::Relaxed);
        let exit_ns = cell.exit_ns[seq as usize % RING].load(Ordering::Relaxed);
        let in_ring = calls > seq && calls <= seq + RING as u64;
        if !in_ring || enter_ns < sent_ns || exit_ns < enter_ns || received_ns < exit_ns {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.request.record(received_ns - intended_ns);
        self.late.record(sent_ns - intended_ns);
        self.pre_backend.record(enter_ns - sent_ns);
        self.backend.record(exit_ns - enter_ns);
        self.post_backend.record(received_ns - exit_ns);
        if self.request.count() <= HEAD_REQUESTS as u64 {
            let mut head = self.head.lock().expect("trace head lock poisoned");
            if head.len() < HEAD_REQUESTS {
                head.push(JoinedRequest {
                    source_port: source.port.0,
                    source_wavelength: source.wavelength.0,
                    seq,
                    intended_ns,
                    sent_ns,
                    backend_enter_ns: enter_ns,
                    backend_exit_ns: exit_ns,
                    received_ns,
                });
            }
        }
    }

    /// The joined requests kept whole.
    pub fn head(&self) -> Vec<JoinedRequest> {
        self.head.lock().expect("trace head lock poisoned").clone()
    }

    /// The backend-call counters right now.
    pub fn counters(&self) -> TraceCounters {
        TraceCounters {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// Backend-call counters at one instant; a window's share is the
/// difference of two.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounters {
    pub calls: u64,
    pub items: u64,
    pub busy_ns: u64,
}

impl TraceCounters {
    pub fn since(&self, before: &TraceCounters) -> TraceCounters {
        TraceCounters {
            calls: self.calls - before.calls,
            items: self.items - before.items,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }
}

/// A [`Backend`] that forwards every call to `inner` and records a span
/// around it. Verdicts, state and consistency findings are the inner
/// backend's own. `as_concurrent` keeps the trait's default `None`: the
/// engine must route every admission through this wrapper's `&mut self`
/// methods (the locked path the workloads measure), or it would bypass
/// the spans.
pub struct TracedBackend<B> {
    inner: B,
    sink: Arc<TraceSink>,
}

impl<B: Backend> TracedBackend<B> {
    pub fn new(inner: B, sink: Arc<TraceSink>) -> Self {
        TracedBackend { inner, sink }
    }

    fn timed<R>(
        &mut self,
        sources: impl IntoIterator<Item = Endpoint>,
        f: impl FnOnce(&mut B) -> R,
    ) -> R {
        let enter = self.sink.clock.now_ns();
        let out = f(&mut self.inner);
        let exit = self.sink.clock.now_ns();
        self.sink.span(sources, enter, exit);
        out
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn ports_per_module(&self) -> u32 {
        self.inner.ports_per_module()
    }

    fn wavelengths(&self) -> u32 {
        self.inner.wavelengths()
    }

    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        self.timed([conn.source()], |b| b.connect(conn))
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        self.timed([src], |b| b.disconnect(src))
    }

    fn connect_batch(&mut self, conns: &[MulticastConnection]) -> Vec<Result<(), Reject>> {
        self.timed(conns.iter().map(|c| c.source()), |b| b.connect_batch(conns))
    }

    fn disconnect_batch(&mut self, srcs: &[Endpoint]) -> Vec<Result<(), Reject>> {
        self.timed(srcs.iter().copied(), |b| b.disconnect_batch(srcs))
    }

    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        self.timed([conn.source()], |b| b.connect_with_repack(conn, budget))
    }

    fn defragment(&mut self, budget: u32) -> RepackStats {
        self.timed([], |b| b.defragment(budget))
    }

    fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    fn middle_loads(&self) -> Vec<u64> {
        self.inner.middle_loads()
    }

    fn inject_fault(&mut self, fault: Fault) -> Vec<MulticastConnection> {
        self.timed([], |b| b.inject_fault(fault))
    }

    fn repair_fault(&mut self, fault: Fault) -> bool {
        self.timed([], |b| b.repair_fault(fault))
    }

    fn check(&self) -> Vec<String> {
        let enter = self.sink.clock.now_ns();
        let findings = self.inner.check();
        self.sink.span([], enter, self.sink.clock.now_ns());
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots;
    use crate::spec::{G1, MIX_G1_MULTICAST};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wdm_sim::harness::BackendKind;
    use wdm_sim::Scenario;

    /// Under-provisioned on purpose (`m = 6` ≪ 39) so the run sees
    /// `Blocked` as well as `Busy`, `UnknownSource` and `Ok` verdicts.
    fn starved() -> Box<dyn Backend> {
        Scenario::new(BackendKind::ThreeStage)
            .geometry(G1.n, G1.r, G1.k)
            .middles(6)
            .build()
            .unwrap()
    }

    #[test]
    fn traced_backend_is_verdict_transparent_on_a_seeded_10k_event_run() {
        let slots = slots::generate(G1, MIX_G1_MULTICAST, 11);
        let clock = Clock::start();
        let sink = TraceSink::new(clock, G1.ports(), G1.k);
        let mut plain = starved();
        let mut traced = TracedBackend::new(starved(), Arc::clone(&sink));
        let mut rng = StdRng::seed_from_u64(11);
        let mut verdicts = [0u64; 4];
        let mut calls = 0u64;
        for step in 0..10_000 {
            // Random connects and disconnects regardless of slot state:
            // repeats hit Busy, idle disconnects hit UnknownSource.
            let slot = &slots[rng.gen_range(0..slots.len())];
            let (a, b) = match step % 50 {
                0 => {
                    let batch: Vec<_> = (0..4)
                        .map(|_| slots[rng.gen_range(0..slots.len())].connect.clone())
                        .collect();
                    let (a, b) = (plain.connect_batch(&batch), traced.connect_batch(&batch));
                    assert_eq!(a, b, "step {step}");
                    calls += 1;
                    continue;
                }
                1 => {
                    let srcs: Vec<_> = (0..4)
                        .map(|_| slots[rng.gen_range(0..slots.len())].source())
                        .collect();
                    let (a, b) = (
                        plain.disconnect_batch(&srcs),
                        traced.disconnect_batch(&srcs),
                    );
                    assert_eq!(a, b, "step {step}");
                    calls += 1;
                    continue;
                }
                _ if rng.gen_bool(0.6) => {
                    (plain.connect(&slot.connect), traced.connect(&slot.connect))
                }
                _ => (
                    plain.disconnect(slot.source()),
                    traced.disconnect(slot.source()),
                ),
            };
            assert_eq!(a, b, "step {step}");
            calls += 1;
            verdicts[match a {
                Ok(()) => 0,
                Err(Reject::Busy(_)) => 1,
                Err(Reject::Blocked { .. }) => 2,
                Err(_) => 3,
            }] += 1;
        }
        assert!(
            verdicts.iter().all(|&n| n > 0),
            "every verdict class seen: {verdicts:?}"
        );
        assert_eq!(plain.active_connections(), traced.active_connections());
        assert_eq!(plain.middle_loads(), traced.middle_loads());
        assert_eq!(plain.check(), traced.check());
        assert!(traced.check().is_empty());
        assert!(traced.as_concurrent().is_none());
        // One span per call (+ the two `check` calls just above).
        assert_eq!(sink.calls.load(Ordering::Relaxed), calls + 2);
        assert!(sink.items.load(Ordering::Relaxed) > calls);
    }

    #[test]
    fn segments_sum_to_the_request_span() {
        let clock = Clock::start();
        let sink = TraceSink::new(clock, 4, 2);
        let src = Endpoint::new(2, 1);
        let mut traced = TracedBackend::new(
            Scenario::new(BackendKind::Crossbar).build().unwrap(),
            Arc::clone(&sink),
        );
        let conn = MulticastConnection::unicast(src, Endpoint::new(0, 1));
        for seq in 0..10u64 {
            let intended = clock.now_ns();
            let sent = clock.now_ns();
            if seq % 2 == 0 {
                traced.connect(&conn).unwrap();
            } else {
                traced.disconnect(src).unwrap();
            }
            sink.complete(src, seq, intended, sent, clock.now_ns());
        }
        assert_eq!(sink.mismatches.load(Ordering::Relaxed), 0);
        assert_eq!(sink.request.count(), 10);
        let parts = sink.late.mean()
            + sink.pre_backend.mean()
            + sink.backend.mean()
            + sink.post_backend.mean();
        assert!((parts - sink.request.mean()).abs() < 1e-6);
        let head = sink.head();
        assert_eq!(head.len(), 10);
        assert!(head.iter().all(|r| r.sent_ns <= r.backend_enter_ns
            && r.backend_enter_ns <= r.backend_exit_ns
            && r.backend_exit_ns <= r.received_ns));
        // A sequence number the backend never saw is a mismatch, not a
        // silently wrong join.
        sink.complete(src, 99, 0, 0, clock.now_ns());
        assert_eq!(sink.mismatches.load(Ordering::Relaxed), 1);
    }
}
