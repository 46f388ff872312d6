//! Event-driven serving layer: a sharded epoll reactor with adaptive
//! batch coalescing.
//!
//! The one serving layer in front of an [`AdmissionEngine`]: tens of
//! thousands of connections served from a fixed pool of event-loop
//! threads rather than a thread (and its stack) per client. Accepted
//! sockets are distributed round-robin across N shards; each shard owns
//! an epoll instance and runs the classic readiness loop: wait → read
//! every ready socket dry → decode frames incrementally → write
//! completed responses back, re-registering `EPOLLOUT` interest on
//! short writes.
//!
//! **Adaptive batch coalescing** is the reason this layer exists. Every
//! poll cycle gathers all decodable connect/disconnect frames across
//! all ready connections into one
//! [`AdmissionEngine::submit_batch_tracked`] call, which the engine
//! splits per backend shard and applies under a single backend-lock
//! acquisition per shard. Under light load a cycle carries one event
//! and costs one submit per request; under heavy load a cycle carries
//! hundreds, so lock traffic grows with *wakeups*, not with *requests*
//! — the hotter the socket set, the cheaper each admission gets. No
//! timer or tuning knob is involved: batch size adapts because epoll
//! naturally reports more ready sockets per wakeup as load rises.
//!
//! Flow control and lifecycle:
//!
//! * **Wire-version mirroring** — every response is encoded in the
//!   version its request arrived with (strict v1 peers reject any
//!   other version byte).
//! * **Backpressure** — each connection has an in-flight cap
//!   ([`ReactorConfig::max_inflight_per_conn`]); excess requests are
//!   refused with [`RejectReason::Backpressure`] instead of ballooning
//!   the shard queues.
//! * **Graceful drain** — a [`Request::Drain`] frame (the wire-level
//!   stand-in for SIGINT, which std exposes no portable hook for) flips
//!   the engine into draining mode, finishes every queued event, and
//!   answers with a [`Response::DrainReport`]. Later `Connect`s are
//!   refused with [`RejectReason::Draining`].
//! * **Protocol errors** — a malformed frame gets a
//!   [`Response::ProtocolError`] reply and the connection is closed;
//!   one broken peer cannot wedge the server.
//!
//! `tests/reactor_conformance.rs` pins the full verdict transcript of a
//! scripted v1 + v2 session and of a fault inject/repair cycle.

pub(crate) mod conn;
mod stats;
pub(crate) mod sys;

pub use stats::{ReactorMetrics, ReactorSnapshot};
pub use sys::raise_nofile_limit;

use crate::codec::{decode_request, RawFrame};
use crate::protocol::{RejectReason, Request, Response, WIRE_VERSION};
use conn::{ConnShared, Connection, WakeQueue};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use sys::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use wdm_core::MulticastConnection;
use wdm_runtime::{
    AdmissionEngine, Backend, MetricsSnapshot, OutcomeCallback, RequestOutcome, RuntimeReport,
};
use wdm_workload::{TimedEvent, TraceEvent};

/// Epoll token reserved for each shard's wakeup eventfd.
const WAKER: u64 = 0;
/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Poll cycles between defensive full-slab reap sweeps; the common
/// path reaps only the tokens the cycle touched.
const FULL_REAP_EVERY: u64 = 256;

/// Cycles a shard stays in dwell mode after its last hot cycle (one
/// under [`ReactorConfig::dwell_threshold`] events must not flip the
/// shard back to wake-per-event mode mid-burst).
const HOT_STREAK: u32 = 64;

/// What the acceptor needs to hand a socket to a shard: its inbox of
/// fresh connections and the wakeup to kick its event loop.
type ShardTarget = (Arc<Mutex<Vec<TcpStream>>>, Arc<WakeQueue>);

/// Tunables for [`ReactorServer`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of event-loop threads. Connections are distributed
    /// round-robin at accept time.
    pub shards: usize,
    /// Maximum tracked requests in flight per connection before the
    /// server answers [`RejectReason::Backpressure`].
    pub max_inflight_per_conn: usize,
    /// Ceiling on events per coalesced engine submission; a cycle that
    /// gathers more flushes mid-cycle so one giant burst cannot starve
    /// response writing.
    pub max_coalesce: usize,
    /// Poll interval of the nonblocking accept loop.
    pub accept_poll: Duration,
    /// Upper bound on how long a shard sleeps in `epoll_wait` with no
    /// readiness (backstop for the stop flag; wakeups cut it short).
    pub poll_timeout: Duration,
    /// Interrupt-mitigation-style dwell: when the previous cycle
    /// carried at least [`ReactorConfig::dwell_threshold`] events, the
    /// shard pauses this long after waking and re-snapshots readiness,
    /// so trickling completions and frames gather into one large cycle
    /// instead of one wakeup each. Zero disables dwelling.
    pub dwell: Duration,
    /// Events the previous cycle must have carried before the shard
    /// dwells; below it the shard stays latency-first and processes
    /// immediately. The default only engages dwell when hundreds of
    /// connections are ready per cycle — at small connection counts
    /// the pause would cost more latency than the batching recoups.
    pub dwell_threshold: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 4,
            max_inflight_per_conn: 1024,
            max_coalesce: 4096,
            accept_poll: Duration::from_millis(5),
            poll_timeout: Duration::from_millis(25),
            dwell: Duration::from_millis(1),
            dwell_threshold: 256,
        }
    }
}

/// State shared between the acceptor, the shard loops, and engine-shard
/// callbacks.
struct Shared<B: Backend> {
    /// `Some` while serving; taken (and consumed) by the drain.
    engine: RwLock<Option<AdmissionEngine<B>>>,
    /// Final report, parked here by the drain until [`ReactorServer::wait`].
    report: Mutex<Option<RuntimeReport<B>>>,
    /// `(is_clean, final summary)` once drained — answers `Snapshot`
    /// and concurrent `Drain` requests after the engine is gone.
    summary: Mutex<Option<(bool, MetricsSnapshot)>>,
    /// Tells the acceptor and the shard loops to exit.
    stop: AtomicBool,
    /// Set once a drain has completed; [`ReactorServer::wait`] returns.
    done: AtomicBool,
    /// Server epoch: wall-clock arrival times become simulation times.
    started: Instant,
    metrics: Arc<ReactorMetrics>,
    config: ReactorConfig,
}

struct ShardHandle {
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    wake: Arc<WakeQueue>,
    thread: JoinHandle<()>,
}

/// An epoll-based server fronting an [`AdmissionEngine`]: bind with
/// [`ReactorServer::serve`], then either [`ReactorServer::wait`] for a
/// client's `Drain` frame or [`ReactorServer::shutdown`] locally.
/// Dropping it does **not** stop the threads.
pub struct ReactorServer<B: Backend> {
    shared: Arc<Shared<B>>,
    acceptor: JoinHandle<()>,
    shards: Vec<ShardHandle>,
    local_addr: SocketAddr,
}

impl<B: Backend> ReactorServer<B> {
    /// Bind `addr` (port 0 for OS-assigned) and start the reactor pool.
    pub fn serve(
        engine: AdmissionEngine<B>,
        addr: impl ToSocketAddrs,
        config: ReactorConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shards_n = config.shards.max(1);
        let shared = Arc::new(Shared {
            engine: RwLock::new(Some(engine)),
            report: Mutex::new(None),
            summary: Mutex::new(None),
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
            started: Instant::now(),
            metrics: Arc::new(ReactorMetrics::new()),
            config,
        });
        let mut shards = Vec::with_capacity(shards_n);
        for i in 0..shards_n {
            let inbox = Arc::new(Mutex::new(Vec::new()));
            let wake = Arc::new(WakeQueue::new()?);
            let thread = thread::Builder::new()
                .name(format!("wdm-reactor-{i}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let inbox = Arc::clone(&inbox);
                    let wake = Arc::clone(&wake);
                    move || {
                        if let Ok(shard) = Shard::new(shared, wake, inbox) {
                            shard.run();
                        }
                    }
                })?;
            shards.push(ShardHandle {
                inbox,
                wake,
                thread,
            });
        }
        let acceptor = thread::Builder::new()
            .name("wdm-reactor-accept".into())
            .spawn({
                let shared = Arc::clone(&shared);
                let targets: Vec<ShardTarget> = shards
                    .iter()
                    .map(|s| (Arc::clone(&s.inbox), Arc::clone(&s.wake)))
                    .collect();
                move || accept_loop(listener, shared, targets)
            })?;
        Ok(ReactorServer {
            shared,
            acceptor,
            shards,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time reactor telemetry.
    pub fn stats(&self) -> ReactorSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Handle on the live metrics, for observers that must outlive the
    /// server value itself (e.g. snapshotting after [`ReactorServer::wait`]
    /// consumed it).
    pub fn metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Block until a client's `Drain` request completes, then tear the
    /// reactor down and return the engine's final report.
    pub fn wait(self) -> RuntimeReport<B> {
        while !self.shared.done.load(Ordering::Acquire) {
            thread::sleep(Duration::from_millis(2));
        }
        self.finish()
    }

    /// Drain locally (as if a `Drain` frame had arrived), tear down,
    /// and return the final report.
    pub fn shutdown(self) -> RuntimeReport<B> {
        drain_now(&self.shared);
        self.finish()
    }

    fn finish(self) -> RuntimeReport<B> {
        self.shared.stop.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.wake.notify(WAKER);
        }
        let _ = self.acceptor.join();
        for shard in self.shards {
            let _ = shard.thread.join();
        }
        // Infallible by construction: both callers reach here only after
        // a drain parked the report, and `self` is consumed.
        self.shared
            .report
            .lock()
            .take()
            .expect("drain completed, report parked")
    }
}

fn accept_loop<B: Backend>(
    listener: TcpListener,
    shared: Arc<Shared<B>>,
    targets: Vec<ShardTarget>,
) {
    let mut next = 0usize;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                let (inbox, wake) = &targets[next % targets.len()];
                next = next.wrapping_add(1);
                inbox.lock().push(stream);
                wake.notify(WAKER);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(shared.config.accept_poll);
            }
            Err(_) => thread::sleep(shared.config.accept_poll),
        }
    }
}

/// Answer `Snapshot`: live engine telemetry while serving, the final
/// summary after a drain.
fn snapshot_response<B: Backend>(shared: &Shared<B>) -> Response {
    if let Some(engine) = shared.engine.read().as_ref() {
        return Response::Snapshot(engine.snapshot_now());
    }
    match shared.summary.lock().as_ref() {
        Some((_, summary)) => Response::Snapshot(summary.clone()),
        None => Response::Rejected {
            reason: RejectReason::Draining,
            detail: "engine is draining".into(),
        },
    }
}

/// Consume the engine and drain it; concurrent callers wait for the
/// winner and return the same `(clean, summary)`.
fn drain_now<B: Backend>(shared: &Shared<B>) -> (bool, MetricsSnapshot) {
    let engine = { shared.engine.write().take() };
    if let Some(engine) = engine {
        engine.begin_drain();
        let report = engine.drain();
        let clean = report.is_clean();
        *shared.summary.lock() = Some((clean, report.summary.clone()));
        *shared.report.lock() = Some(report);
        shared.done.store(true, Ordering::Release);
    }
    loop {
        if let Some(result) = shared.summary.lock().clone() {
            return result;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// One poll cycle's worth of coalesced admission work.
#[derive(Default)]
struct CycleBatch {
    events: Vec<TimedEvent>,
    callbacks: Vec<OutcomeCallback>,
}

/// One event-loop thread: an epoll instance plus the connections
/// assigned to it.
struct Shard<B: Backend> {
    shared: Arc<Shared<B>>,
    wake: Arc<WakeQueue>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    epoll: Epoll,
    conns: HashMap<u64, Connection>,
    next_token: u64,
    cycles: u64,
}

impl<B: Backend> Shard<B> {
    fn new(
        shared: Arc<Shared<B>>,
        wake: Arc<WakeQueue>,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
    ) -> std::io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(wake.fd(), EPOLLIN, WAKER)?;
        Ok(Shard {
            shared,
            wake,
            inbox,
            epoll,
            conns: HashMap::new(),
            next_token: WAKER + 1,
            cycles: 0,
        })
    }

    fn run(mut self) {
        let timeout_ms = (self.shared.config.poll_timeout.as_millis() as i32).max(1);
        let mut events = Epoll::event_buffer(EVENT_BATCH);
        let mut chunk = vec![0u8; READ_CHUNK];
        let dwell = self.shared.config.dwell;
        let dwell_threshold = self.shared.config.dwell_threshold.max(1);
        // Hot is sticky: one quiet cycle between bursts must not drop
        // the shard back to wake-per-event mode, so a hot cycle keeps
        // dwelling on for a streak of cycles.
        let mut hot_streak = 0u32;
        loop {
            let hot = hot_streak > 0;
            let mut n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => return,
            };
            // Adaptive coalescing dwell (interrupt mitigation): in a hot
            // period, pause briefly and re-snapshot readiness so events
            // that would each have cost a wakeup land in this one cycle.
            // Level-triggered epoll keeps the first snapshot's readiness
            // visible, so re-waiting loses nothing.
            if hot && n > 0 && !dwell.is_zero() {
                thread::sleep(dwell);
                if let Ok(more) = self.epoll.wait(&mut events, 0) {
                    n = more;
                }
            }
            if self.shared.stop.load(Ordering::Acquire) {
                for (_, c) in self.conns.drain() {
                    c.shared.close();
                    self.shared
                        .metrics
                        .active_conns
                        .fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
            self.shared.metrics.wakeups.fetch_add(1, Ordering::Relaxed);

            let mut readable: Vec<u64> = Vec::new();
            let mut writable: Vec<u64> = Vec::new();
            for ev in events.iter().take(n) {
                let token = ev.token();
                if token == WAKER {
                    continue;
                }
                let bits = ev.events();
                if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    readable.push(token);
                }
                if bits & EPOLLOUT != 0 {
                    writable.push(token);
                }
            }

            self.intake();

            let mut batch = CycleBatch::default();
            let mut frames_this_wakeup = 0u64;
            for &token in &readable {
                frames_this_wakeup += self.service_readable(token, &mut chunk, &mut batch);
            }
            self.flush_batch(&mut batch);
            if frames_this_wakeup > 0 {
                self.shared
                    .metrics
                    .frames_per_wakeup
                    .record(frames_this_wakeup);
            }

            // Write service: completions queued by engine callbacks (the
            // wake queue) plus sockets that just turned writable again.
            let mut to_write = self.wake.take();
            to_write.extend_from_slice(&writable);
            to_write.sort_unstable();
            to_write.dedup();
            for &token in &to_write {
                if token != WAKER {
                    self.service_writable(token);
                }
            }

            // A connection only becomes reapable through an event that
            // names it (EOF or error in `readable`, last pending write
            // or engine callback in `to_write`), so reaping scans just
            // this cycle's touched tokens — O(events), not O(conns).
            // A periodic full sweep backstops any path that slips by.
            if frames_this_wakeup as usize + to_write.len() >= dwell_threshold {
                hot_streak = HOT_STREAK;
            } else {
                hot_streak = hot_streak.saturating_sub(1);
            }

            let mut touched = readable;
            touched.extend_from_slice(&to_write);
            touched.sort_unstable();
            touched.dedup();
            self.reap(&touched);
            self.cycles += 1;
            if self.cycles.is_multiple_of(FULL_REAP_EVERY) {
                let all: Vec<u64> = self.conns.keys().copied().collect();
                self.reap(&all);
            }
        }
    }

    /// Register connections the acceptor handed to this shard.
    fn intake(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut inbox = self.inbox.lock();
            inbox.drain(..).collect()
        };
        for stream in streams {
            let token = self.next_token;
            self.next_token += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            let cs = ConnShared::new(token, Arc::clone(&self.wake));
            self.conns
                .insert(token, Connection::new(stream, cs, interest));
            self.shared
                .metrics
                .active_conns
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read one ready connection dry, decode every complete frame, and
    /// dispatch them. Returns the number of request frames decoded.
    fn service_readable(&mut self, token: u64, chunk: &mut [u8], batch: &mut CycleBatch) -> u64 {
        let mut frames: Vec<RawFrame> = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return 0;
            };
            if conn.closing {
                return 0;
            }
            loop {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => conn.assembler.extend(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        self.shared
                            .metrics
                            .eagain_reads
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.eof = true;
                        break;
                    }
                }
            }
            loop {
                match conn.assembler.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(e) => {
                        // The byte stream is desynchronized; explain at
                        // the protocol's own version (the frame header
                        // is unreliable), then hang up.
                        self.shared
                            .metrics
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        conn.shared.respond(
                            WIRE_VERSION,
                            0,
                            &Response::ProtocolError {
                                message: e.to_string(),
                            },
                        );
                        conn.closing = true;
                        break;
                    }
                }
            }
        }
        let decoded = frames.len() as u64;
        self.shared
            .metrics
            .frames
            .fetch_add(decoded, Ordering::Relaxed);
        for frame in frames {
            self.dispatch(token, frame, batch);
            if self.conns.get(&token).is_none_or(|c| c.closing) {
                break;
            }
        }
        decoded
    }

    /// Route one decoded frame. Admission work lands in the cycle batch;
    /// everything else is answered inline.
    fn dispatch(&mut self, token: u64, frame: RawFrame, batch: &mut CycleBatch) {
        let version = frame.version;
        let id = frame.id;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let cs = Arc::clone(&conn.shared);
        let req = match decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                self.shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                cs.respond(
                    version,
                    id,
                    &Response::ProtocolError {
                        message: e.to_string(),
                    },
                );
                conn.closing = true;
                return;
            }
        };
        match req {
            Request::Ping => cs.respond(version, id, &Response::Pong),
            Request::Snapshot => {
                let resp = snapshot_response(&self.shared);
                cs.respond(version, id, &resp);
            }
            Request::Drain => {
                // Earlier frames of this cycle must reach the engine
                // before it stops accepting, so their verdicts are real
                // and not `Draining`.
                self.flush_batch(batch);
                let (clean, summary) = drain_now(&self.shared);
                cs.respond(version, id, &Response::DrainReport { clean, summary });
            }
            Request::Connect(c) => {
                self.push_single(batch, cs, version, id, TraceEvent::Connect(c));
            }
            Request::Disconnect(src) => {
                self.push_single(batch, cs, version, id, TraceEvent::Disconnect(src));
            }
            Request::BatchConnect(conns) => {
                self.push_wire_batch(batch, cs, version, id, conns);
            }
        }
        if batch.events.len() >= self.shared.config.max_coalesce {
            self.flush_batch(batch);
        }
    }

    /// Queue one connect/disconnect into the cycle batch, or shed it at
    /// the per-connection in-flight cap.
    fn push_single(
        &self,
        batch: &mut CycleBatch,
        cs: Arc<ConnShared>,
        version: u8,
        id: u64,
        event: TraceEvent,
    ) {
        if cs.inflight.load(Ordering::Acquire) >= self.shared.config.max_inflight_per_conn {
            self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
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
        batch.events.push(TimedEvent {
            time: self.shared.started.elapsed().as_secs_f64(),
            event,
        });
        batch.callbacks.push(Box::new(move |outcome| {
            cs.respond(version, id, &Response::from_outcome(outcome));
            cs.inflight.fetch_sub(1, Ordering::AcqRel);
        }));
    }

    /// Queue a wire-v2 `BatchConnect` into the cycle batch: per-item
    /// verdicts accumulate in slot order and whichever engine callback
    /// resolves last writes the single `Batch` reply.
    fn push_wire_batch(
        &self,
        batch: &mut CycleBatch,
        cs: Arc<ConnShared>,
        version: u8,
        id: u64,
        conns: Vec<MulticastConnection>,
    ) {
        let n = conns.len();
        if n == 0 {
            cs.respond(version, id, &Response::Batch(Vec::new()));
            return;
        }
        if cs.inflight.load(Ordering::Acquire) + n > self.shared.config.max_inflight_per_conn {
            self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
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
        let time = self.shared.started.elapsed().as_secs_f64();
        for (i, conn) in conns.into_iter().enumerate() {
            batch.events.push(TimedEvent {
                time,
                event: TraceEvent::Connect(conn),
            });
            let cs = Arc::clone(&cs);
            let slots = Arc::clone(&slots);
            let remaining = Arc::clone(&remaining);
            batch.callbacks.push(Box::new(move |outcome| {
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

    /// Hand the cycle's coalesced events to the engine as one tracked
    /// batch (split per backend shard inside). With the engine gone —
    /// drained by this or another shard — every callback resolves
    /// inline with `Draining`, so the wire refusal is written exactly
    /// once per request.
    fn flush_batch(&self, batch: &mut CycleBatch) {
        if batch.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut batch.events);
        let callbacks = std::mem::take(&mut batch.callbacks);
        let n = events.len() as u64;
        let m = &self.shared.metrics;
        m.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        m.coalesced_events.fetch_add(n, Ordering::Relaxed);
        m.coalesced_batch.record(n);
        let guard = self.shared.engine.read();
        match guard.as_ref() {
            Some(engine) => {
                let _ = engine.submit_batch_tracked(events, callbacks);
            }
            None => {
                for cb in callbacks {
                    cb(RequestOutcome::Draining);
                }
            }
        }
    }

    /// Flush queued response bytes for one connection, re-registering
    /// `EPOLLOUT` interest when the socket refuses the full payload.
    fn service_writable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(bytes) = conn.shared.take_pending() {
            let mut off = 0usize;
            while off < bytes.len() {
                match conn.stream.write(&bytes[off..]) {
                    Ok(0) => {
                        conn.eof = true;
                        conn.shared.close();
                        break;
                    }
                    Ok(n) => off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        self.shared
                            .metrics
                            .eagain_writes
                            .fetch_add(1, Ordering::Relaxed);
                        conn.shared.requeue_front(bytes[off..].to_vec());
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.eof = true;
                        conn.shared.close();
                        break;
                    }
                }
            }
        }
        let want = if conn.shared.has_pending() {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Tear down `candidates` that are done: peer gone or protocol
    /// error, nothing left to write, no engine callback still pointing
    /// here.
    fn reap(&mut self, candidates: &[u64]) {
        for &token in candidates {
            if token == WAKER {
                continue;
            }
            let drop_it = self.conns.get(&token).is_some_and(|c| c.ready_to_drop());
            if !drop_it {
                continue;
            }
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
                conn.shared.close();
                self.shared
                    .metrics
                    .active_conns
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}
