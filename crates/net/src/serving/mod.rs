//! The sans-IO serving core: the wire protocol's connection state
//! machine, with no sockets, no syscalls and no clock of its own.
//!
//! [`ServingCore`] holds each connection's frame assembler, write queue,
//! in-flight count and closing / hang-up flags, and does everything
//! between bytes and the engine: decode, dispatch, the in-flight cap,
//! one coalesced engine batch per cycle, replies in each request's wire
//! version, the reap decision. A driver feeds it bytes read, writable
//! budgets, hang-ups and cycle ends — the epoll reactor
//! ([`crate::reactor`]) in production, `wdm-sim`'s `NetSim` in tests —
//! and the engine sits behind the [`Engine`] seam.
//!
//! **Faults.** An `Inject` or `Repair` frame goes through the engine's
//! one [`FaultHandle`] after the cycle batch is flushed, so it lands
//! after every frame its connection sent earlier ([`apply_fault`]).
//!
//! **Output cap.** `Ping` and `Snapshot` are answered outside the
//! in-flight cap, so a peer that pipelines them and never reads could
//! grow its write queue without bound. Over [`MAX_QUEUED_OUTPUT`] the
//! core decodes none of a connection's frames and stops wanting its
//! input until the queue drains.

pub(crate) mod conn;
mod stats;

pub use stats::{ReactorMetrics, ReactorSnapshot};

use crate::codec::MAX_PAYLOAD;
use crate::protocol::{RejectReason, Request, Response, WIRE_VERSION};
use conn::{ConnShared, Connection, DecodedRequest, FrameAssembler, WakeQueue};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wdm_core::MulticastConnection;
use wdm_runtime::{
    AdmissionEngine, Backend, FaultHandle, MetricsSnapshot, OutcomeCallback, RequestOutcome,
    RuntimeReport,
};
use wdm_workload::{TimedEvent, TraceEvent};

/// Queued response bytes past which a connection's input is not
/// consumed (each frame adds at most one response beyond it).
pub const MAX_QUEUED_OUTPUT: usize = MAX_PAYLOAD;

/// Tunables for the serving layer (the core reads the two caps).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of event-loop threads. Connections are distributed
    /// round-robin at accept time.
    pub shards: usize,
    /// Maximum tracked requests in flight per connection before the
    /// server answers [`RejectReason::Backpressure`].
    pub max_inflight_per_conn: usize,
    /// Ceiling on events per coalesced engine submission; a cycle that
    /// gathers more flushes mid-cycle.
    pub max_coalesce: usize,
    /// Poll interval of the nonblocking accept loop.
    pub accept_poll: Duration,
    /// Upper bound on how long a shard sleeps in `epoll_wait` with no
    /// readiness (backstop for the stop flag; wakeups cut it short).
    pub poll_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 4,
            max_inflight_per_conn: 1024,
            max_coalesce: 4096,
            accept_poll: Duration::from_millis(5),
            poll_timeout: Duration::from_millis(25),
        }
    }
}

/// What the serving core needs from an admission engine.
pub trait Engine: Send + Sync + 'static {
    /// The backend a drain hands back.
    type Backend: Backend;
    /// Submit one batch; each callback fires exactly once.
    fn submit(&self, events: Vec<TimedEvent>, callbacks: Vec<OutcomeCallback>);
    /// Live engine telemetry.
    fn snapshot(&self) -> MetricsSnapshot;
    /// The handle fault frames go through.
    fn faults(&self) -> FaultHandle<Self::Backend>;
    /// Refuse new work, finish everything queued or parked, report.
    fn drain(self) -> RuntimeReport<Self::Backend>;
}

impl<B: Backend> Engine for AdmissionEngine<B> {
    type Backend = B;

    fn submit(&self, events: Vec<TimedEvent>, callbacks: Vec<OutcomeCallback>) {
        let _ = self.submit_batch_tracked(events, callbacks);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_now()
    }

    fn faults(&self) -> FaultHandle<B> {
        self.fault_handle()
    }

    fn drain(self) -> RuntimeReport<B> {
        AdmissionEngine::drain(self)
    }
}

/// Apply a fault frame through `faults`: the one fault path of the
/// wire, `wdm-sim`'s `NetSim` and its `simulate`. A fault naming a
/// component outside the fabric's [`Backend::fault_domain`] is refused
/// as [`RejectReason::Fatal`] and never reaches the backend.
///
/// # Panics
///
/// When `req` is not a [`Request::Inject`] or [`Request::Repair`].
pub fn apply_fault<B: Backend>(faults: &FaultHandle<B>, req: &Request) -> Response {
    let (Request::Inject(fault) | Request::Repair(fault)) = *req else {
        panic!("{req:?} is not a fault frame");
    };
    if !faults.domain().contains(&fault) {
        return Response::Rejected {
            reason: RejectReason::Fatal,
            detail: format!("{fault} is not a component of the served fabric"),
        };
    }
    if let Request::Repair(_) = req {
        return Response::Repaired(faults.repair(fault));
    }
    let heal = faults.inject(fault);
    Response::Healed {
        hit: heal.connections_hit as u32,
        healed: heal.healed as u32,
        failed: heal.heal_failed as u32,
    }
}

/// What a drained engine answers a request it can no longer serve.
fn draining() -> Response {
    Response::Rejected {
        reason: RejectReason::Draining,
        detail: "engine is draining".into(),
    }
}

/// One [`Engine`] shared by a driver's shards until a drain consumes it.
pub struct EngineSlot<E: Engine> {
    /// `Some` while serving; taken (and consumed) by the drain.
    live: RwLock<Option<E>>,
    report: Mutex<Option<RuntimeReport<E::Backend>>>,
    /// `(is_clean, final summary)`, answering after the engine is gone.
    summary: Mutex<Option<(bool, MetricsSnapshot)>>,
}

impl<E: Engine> EngineSlot<E> {
    /// Serve `engine`.
    pub fn new(engine: E) -> Self {
        EngineSlot {
            live: RwLock::new(Some(engine)),
            report: Mutex::new(None),
            summary: Mutex::new(None),
        }
    }

    /// Consume the engine and drain it; concurrent callers wait for the
    /// winner and return the same `(clean, summary)`.
    pub fn drain(&self) -> (bool, MetricsSnapshot) {
        let engine = { self.live.write().take() };
        if let Some(engine) = engine {
            let report = engine.drain();
            let result = (report.is_clean(), report.summary.clone());
            *self.report.lock() = Some(report);
            *self.summary.lock() = Some(result);
        }
        loop {
            if let Some(result) = self.summary.lock().clone() {
                return result;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The final report a drain parked, once.
    pub fn take_report(&self) -> Option<RuntimeReport<E::Backend>> {
        self.report.lock().take()
    }

    /// Hand a batch to the live engine; once it is drained every
    /// callback resolves inline with `Draining`.
    fn submit(&self, events: Vec<TimedEvent>, callbacks: Vec<OutcomeCallback>) {
        match self.live.read().as_ref() {
            Some(engine) => engine.submit(events, callbacks),
            None => callbacks
                .into_iter()
                .for_each(|cb| cb(RequestOutcome::Draining)),
        }
    }

    /// Live engine telemetry while serving, the final summary after.
    fn snapshot_response(&self) -> Response {
        if let Some(engine) = self.live.read().as_ref() {
            return Response::Snapshot(engine.snapshot());
        }
        match self.summary.lock().as_ref() {
            Some((_, summary)) => Response::Snapshot(summary.clone()),
            None => draining(),
        }
    }

    /// Apply a fault frame to the live engine; refused once drained.
    fn fault(&self, req: &Request) -> Response {
        match self.live.read().as_ref() {
            Some(engine) => apply_fault(&engine.faults(), req),
            None => draining(),
        }
    }
}

#[derive(Default)]
struct CycleBatch {
    events: Vec<TimedEvent>,
    callbacks: Vec<OutcomeCallback>,
}

/// One driver shard's connections and the cycle's coalesced batch.
pub struct ServingCore<E: Engine> {
    conns: HashMap<u64, Connection>,
    cycle: Cycle<E>,
}

/// Everything of a [`ServingCore`] but its connection table, so a read
/// dispatches its frames while holding its one connection lookup.
struct Cycle<E: Engine> {
    slot: Arc<EngineSlot<E>>,
    metrics: Arc<ReactorMetrics>,
    max_inflight: usize,
    max_coalesce: usize,
    wake: Arc<WakeQueue>,
    batch: CycleBatch,
}

impl<E: Engine> ServingCore<E> {
    /// A core serving `slot`; `wake` runs when a completion queues output
    /// and no earlier wakeup is pending.
    pub fn new(
        slot: Arc<EngineSlot<E>>,
        metrics: Arc<ReactorMetrics>,
        config: &ReactorConfig,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        ServingCore {
            conns: HashMap::new(),
            cycle: Cycle {
                slot,
                metrics,
                max_inflight: config.max_inflight_per_conn,
                max_coalesce: config.max_coalesce,
                wake: Arc::new(WakeQueue::new(wake)),
                batch: CycleBatch::default(),
            },
        }
    }

    /// Register a connection the driver accepted under `token`.
    pub fn open(&mut self, token: u64) {
        let conn = Connection {
            assembler: FrameAssembler::new(),
            shared: ConnShared::new(token, Arc::clone(&self.cycle.wake)),
            closing: false,
            eof: false,
        };
        self.conns.insert(token, conn);
        self.cycle
            .metrics
            .active_conns
            .fetch_add(1, Ordering::Relaxed);
    }

    /// `token` is open, not closing or hung up, and within the cap.
    pub fn wants_read(&self, token: u64) -> bool {
        self.conns
            .get(&token)
            .is_some_and(|c| !c.closing && !c.eof && c.shared.queued() <= MAX_QUEUED_OUTPUT)
    }

    /// Bytes read off `token` at `now` (driver clock, seconds): decode
    /// and dispatch whole frames up to a protocol error or the output
    /// cap. Returns the frames decoded.
    pub fn on_read(&mut self, token: u64, bytes: &[u8], now: f64) -> u64 {
        let Some(conn) = self.conns.get_mut(&token) else {
            return 0;
        };
        conn.assembler.extend(bytes);
        self.cycle.decode(conn, now)
    }

    /// The peer hung up (EOF); queued output still flushes.
    pub fn hang_up(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.eof = true;
        }
    }

    /// Flush `token`'s output through `write` (a nonblocking write of a
    /// prefix) until empty or blocked, keeping the tail; a failed write
    /// drops the output (the peer is gone). Then resume frames the cap
    /// held back. Returns whether a write would block.
    pub fn write(
        &mut self,
        token: u64,
        now: f64,
        mut write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut blocked = false;
        if let Some(bytes) = conn.shared.take_pending() {
            let mut off = 0usize;
            while off < bytes.len() {
                match write(&bytes[off..]) {
                    Ok(n) if n > 0 => off += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.shared.requeue_front(bytes[off..].to_vec());
                        blocked = true;
                        break;
                    }
                    _ => {
                        conn.eof = true;
                        conn.shared.close();
                        break;
                    }
                }
            }
        }
        self.cycle.decode(conn, now);
        blocked
    }

    /// Response bytes queued for `token`.
    pub fn queued(&self, token: u64) -> usize {
        self.conns.get(&token).map_or(0, |c| c.shared.queued())
    }

    /// Events coalesced this cycle and not yet submitted.
    pub fn pending(&self) -> usize {
        self.cycle.batch.events.len()
    }

    /// Tokens whose output queue filled since the last call.
    pub fn take_woken(&self) -> Vec<u64> {
        self.cycle.wake.take()
    }

    /// End of cycle: submit the coalesced events as one tracked batch.
    /// The output it queues wakes nobody — nor does a flush that
    /// [`Self::on_read`] or [`Self::write`] runs: the driver collects it
    /// with [`Self::take_woken`] before it sleeps.
    pub fn flush(&mut self) {
        self.cycle.flush();
    }

    /// Tear down the `candidates` that are done and return their tokens
    /// for the driver to release.
    pub fn reap(&mut self, candidates: &[u64]) -> Vec<u64> {
        let mut dropped = Vec::new();
        for &token in candidates {
            if !self
                .conns
                .get(&token)
                .is_some_and(Connection::ready_to_drop)
            {
                continue;
            }
            if let Some(conn) = self.conns.remove(&token) {
                conn.shared.close();
                let active = &self.cycle.metrics.active_conns;
                active.fetch_sub(1, Ordering::Relaxed);
                dropped.push(token);
            }
        }
        dropped
    }

    /// Tear every connection down (the driver is stopping).
    pub fn close_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            conn.shared.close();
            let active = &self.cycle.metrics.active_conns;
            active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<E: Engine> Cycle<E> {
    /// Decode and dispatch `conn`'s buffered whole frames up to a
    /// protocol error or the output cap. Returns the frames decoded.
    fn decode(&mut self, conn: &mut Connection, now: f64) -> u64 {
        let mut decoded = 0u64;
        while !conn.closing && conn.shared.queued() <= MAX_QUEUED_OUTPUT {
            let frame = match conn.assembler.next_request() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // The byte stream is desynchronized; explain at the
                    // protocol's own version (the frame header is
                    // unreliable), then hang up.
                    self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.refuse(WIRE_VERSION, 0, &e);
                    break;
                }
            };
            decoded += 1;
            self.dispatch(conn, frame, now);
        }
        if decoded > 0 {
            self.metrics.frames.fetch_add(decoded, Ordering::Relaxed);
        }
        decoded
    }

    /// Route one decoded frame. Admission work lands in the cycle batch;
    /// everything else is answered inline.
    fn dispatch(&mut self, conn: &mut Connection, (version, id, req): DecodedRequest, now: f64) {
        let req = match req {
            Ok(r) => r,
            Err(e) => {
                self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.refuse(version, id, &e);
                return;
            }
        };
        let cs = Arc::clone(&conn.shared);
        match req {
            Request::Ping => cs.respond(version, id, &Response::Pong),
            Request::Snapshot => cs.respond(version, id, &self.slot.snapshot_response()),
            Request::Drain => {
                // Earlier frames of this cycle must reach the engine
                // before it stops accepting, so their verdicts are real
                // and not `Draining`.
                self.flush();
                let (clean, summary) = self.slot.drain();
                cs.respond(version, id, &Response::DrainReport { clean, summary });
            }
            Request::Connect(c) => {
                self.push_single(cs, version, id, TraceEvent::Connect(c), now);
            }
            Request::Disconnect(src) => {
                self.push_single(cs, version, id, TraceEvent::Disconnect(src), now);
            }
            Request::BatchConnect(conns) => {
                self.push_wire_batch(cs, version, id, conns, now);
            }
            fault @ (Request::Inject(_) | Request::Repair(_)) => {
                // As for a drain: earlier frames reach the engine first.
                self.flush();
                cs.respond(version, id, &self.slot.fault(&fault));
            }
        }
        if self.batch.events.len() >= self.max_coalesce {
            self.flush();
        }
    }

    /// Queue one connect/disconnect into the cycle batch, or shed it at
    /// the per-connection in-flight cap.
    fn push_single(
        &mut self,
        cs: Arc<ConnShared>,
        version: u8,
        id: u64,
        event: TraceEvent,
        time: f64,
    ) {
        if cs.inflight.load(Ordering::Acquire) >= self.max_inflight {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            cs.respond(
                version,
                id,
                &Response::Rejected {
                    reason: RejectReason::Backpressure,
                    detail: "per-connection in-flight cap reached".into(),
                },
            );
            return;
        }
        cs.inflight.fetch_add(1, Ordering::AcqRel);
        self.batch.events.push(TimedEvent { time, event });
        self.batch.callbacks.push(Box::new(move |outcome| {
            cs.respond(version, id, &Response::from_outcome(outcome));
            cs.inflight.fetch_sub(1, Ordering::AcqRel);
        }));
    }

    /// Queue a wire-v2 `BatchConnect` into the cycle batch: per-item
    /// verdicts accumulate in slot order and whichever engine callback
    /// resolves last writes the single `Batch` reply.
    fn push_wire_batch(
        &mut self,
        cs: Arc<ConnShared>,
        version: u8,
        id: u64,
        conns: Vec<MulticastConnection>,
        time: f64,
    ) {
        let n = conns.len();
        if n == 0 {
            cs.respond(version, id, &Response::Batch(Vec::new()));
            return;
        }
        if cs.inflight.load(Ordering::Acquire) + n > self.max_inflight {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            let items = (0..n)
                .map(|_| Response::Rejected {
                    reason: RejectReason::Backpressure,
                    detail: "per-connection in-flight cap reached".into(),
                })
                .collect();
            cs.respond(version, id, &Response::Batch(items));
            return;
        }
        cs.inflight.fetch_add(n, Ordering::AcqRel);
        let slots = Arc::new(Mutex::new(vec![None; n]));
        let remaining = Arc::new(AtomicUsize::new(n));
        for (i, conn) in conns.into_iter().enumerate() {
            self.batch.events.push(TimedEvent {
                time,
                event: TraceEvent::Connect(conn),
            });
            let cs = Arc::clone(&cs);
            let slots = Arc::clone(&slots);
            let remaining = Arc::clone(&remaining);
            self.batch.callbacks.push(Box::new(move |outcome| {
                slots.lock()[i] = Some(Response::from_outcome(outcome));
                cs.inflight.fetch_sub(1, Ordering::AcqRel);
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Infallible: the last callback runs after all `n`
                    // slots were filled exactly once.
                    let items: Vec<Response> = slots
                        .lock()
                        .iter_mut()
                        .map(|s| s.take().expect("every slot resolved"))
                        .collect();
                    cs.respond(version, id, &Response::Batch(items));
                }
            }));
        }
    }

    /// Submit the coalesced events as one tracked batch, waking nobody
    /// (see [`ServingCore::flush`]).
    fn flush(&mut self) {
        if self.batch.events.is_empty() {
            return;
        }
        let CycleBatch { events, callbacks } = std::mem::take(&mut self.batch);
        let n = events.len() as u64;
        let m = &self.metrics;
        m.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        m.coalesced_events.fetch_add(n, Ordering::Relaxed);
        m.coalesced_batch.record(n);
        self.wake.quiet(|| self.slot.submit(events, callbacks));
    }
}
