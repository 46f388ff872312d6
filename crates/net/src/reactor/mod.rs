//! The production driver of the serving core: a sharded epoll reactor
//! with adaptive batch coalescing.
//!
//! Accepted sockets are spread round-robin over a fixed pool of
//! event-loop threads; each owns an epoll instance and a [`ServingCore`]
//! and loops: wait → read ready sockets into the core → submit the
//! cycle's coalesced batch → write responses back → reap. The core owns
//! everything protocol-shaped; this module owns sockets, syscalls,
//! interest bits and wall-clock time. A connection the core will not
//! read drops `EPOLLIN` (level-triggered readiness would spin on it);
//! `EPOLLHUP` / `EPOLLERR` always arrive.
//!
//! **Adaptive batch coalescing** is the reason this layer exists: one
//! [`AdmissionEngine::submit_batch_tracked`] call per poll cycle, split
//! per engine shard and applied under one backend-lock acquisition
//! each. Under light load a cycle carries one event, under heavy load
//! hundreds, so lock traffic grows with *wakeups*, not *requests* — with
//! no timer or knob, since epoll reports more ready sockets per wakeup
//! as load rises.
//!
//! **Run to completion.** The submit admits on this thread, so the
//! verdicts are encoded into their connections' queues before
//! [`ServingCore::flush`] returns and go out in the same cycle's write
//! phase: no engine thread and no eventfd hop stand between a frame and
//! its answer. Only a connect parked behind a busy endpoint is answered
//! later, from its engine shard's retry thread, which wakes this shard
//! through the eventfd.

pub(crate) mod sys;

pub use crate::serving::{ReactorConfig, ReactorMetrics, ReactorSnapshot};
pub use sys::raise_nofile_limit;

use crate::serving::{EngineSlot, ServingCore};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use wdm_runtime::{AdmissionEngine, Backend, RuntimeReport};

/// Epoll token reserved for each shard's wakeup eventfd.
const WAKER: u64 = 0;
/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Poll cycles between defensive full-slab reap sweeps; the common
/// path reaps only the tokens the cycle touched.
const FULL_REAP_EVERY: u64 = 256;

/// A shard's inbox of fresh connections and the eventfd that kicks it.
type ShardTarget = (Arc<Mutex<Vec<TcpStream>>>, Arc<EventFd>);

/// State shared between the acceptor, the shard loops, and engine-shard
/// callbacks.
struct Shared<B: Backend> {
    slot: Arc<EngineSlot<AdmissionEngine<B>>>,
    /// Tells the acceptor and the shard loops to exit.
    stop: AtomicBool,
    /// Server epoch: wall-clock arrival times become simulation times.
    started: Instant,
    metrics: Arc<ReactorMetrics>,
    config: ReactorConfig,
}

struct ShardHandle {
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    efd: Arc<EventFd>,
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
            slot: Arc::new(EngineSlot::new(engine)),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            metrics: Arc::new(ReactorMetrics::new()),
            config,
        });
        let mut shards = Vec::with_capacity(shards_n);
        for i in 0..shards_n {
            let inbox = Arc::new(Mutex::new(Vec::new()));
            let efd = Arc::new(EventFd::new()?);
            let thread = thread::Builder::new()
                .name(format!("wdm-reactor-{i}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let inbox = Arc::clone(&inbox);
                    let efd = Arc::clone(&efd);
                    move || {
                        if let Ok(shard) = Shard::new(shared, efd, inbox) {
                            shard.run();
                        }
                    }
                })?;
            shards.push(ShardHandle { inbox, efd, thread });
        }
        let acceptor = thread::Builder::new()
            .name("wdm-reactor-accept".into())
            .spawn({
                let shared = Arc::clone(&shared);
                let targets: Vec<ShardTarget> = shards
                    .iter()
                    .map(|s| (Arc::clone(&s.inbox), Arc::clone(&s.efd)))
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
        loop {
            if let Some(report) = self.shared.slot.take_report() {
                return self.finish(report);
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Drain locally (as if a `Drain` frame had arrived), tear down,
    /// and return the final report.
    pub fn shutdown(self) -> RuntimeReport<B> {
        self.shared.slot.drain();
        let report = self.shared.slot.take_report().expect("drain parks it");
        self.finish(report)
    }

    fn finish(self, report: RuntimeReport<B>) -> RuntimeReport<B> {
        self.shared.stop.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.efd.wake();
        }
        let _ = self.acceptor.join();
        for shard in self.shards {
            let _ = shard.thread.join();
        }
        report
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
                let (inbox, efd) = &targets[next % targets.len()];
                next = next.wrapping_add(1);
                inbox.lock().push(stream);
                efd.wake();
            }
            Err(_) => thread::sleep(shared.config.accept_poll),
        }
    }
}

/// A registered socket and the interest bits epoll holds for it.
struct Socket {
    stream: TcpStream,
    interest: u32,
}

/// One event-loop thread: epoll, its sockets, and their serving core.
struct Shard<B: Backend> {
    shared: Arc<Shared<B>>,
    efd: Arc<EventFd>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    epoll: Epoll,
    core: ServingCore<AdmissionEngine<B>>,
    sockets: HashMap<u64, Socket>,
    next_token: u64,
    cycles: u64,
}

impl<B: Backend> Shard<B> {
    fn new(
        shared: Arc<Shared<B>>,
        efd: Arc<EventFd>,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
    ) -> std::io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(efd.as_raw_fd(), EPOLLIN, WAKER)?;
        let waker = Arc::clone(&efd);
        let core = ServingCore::new(
            Arc::clone(&shared.slot),
            Arc::clone(&shared.metrics),
            &shared.config,
            move || waker.wake(),
        );
        Ok(Shard {
            shared,
            efd,
            inbox,
            epoll,
            core,
            sockets: HashMap::new(),
            next_token: WAKER + 1,
            cycles: 0,
        })
    }

    fn run(mut self) {
        let timeout_ms = (self.shared.config.poll_timeout.as_millis() as i32).max(1);
        let mut events = Epoll::event_buffer(EVENT_BATCH);
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => return,
            };
            if self.shared.stop.load(Ordering::Acquire) {
                self.core.close_all();
                return;
            }
            self.shared.metrics.wakeups.fetch_add(1, Ordering::Relaxed);

            let mut readable: Vec<u64> = Vec::new();
            let mut writable: Vec<u64> = Vec::new();
            let mut woken = false;
            for ev in events.iter().take(n) {
                let token = ev.token();
                if token == WAKER {
                    woken = true;
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

            let now = self.shared.started.elapsed().as_secs_f64();
            let mut frames_this_wakeup = 0u64;
            for &token in &readable {
                frames_this_wakeup += self.service_readable(token, &mut chunk, now);
            }
            self.core.flush();
            if frames_this_wakeup > 0 {
                self.shared
                    .metrics
                    .frames_per_wakeup
                    .record(frames_this_wakeup);
            }

            // Write service until no connection is owed a write: the
            // verdicts `flush` just produced, retry completions, sockets
            // that turned writable, then the verdicts of frames a drained
            // queue let through (output cap). A flush wakes nobody, so
            // this loop is what sends its output. The eventfd is read
            // only when epoll reported it, before the first take, so a
            // completion landing after the last take re-arms it.
            if woken {
                self.efd.drain();
            }
            let mut touched = readable;
            let mut to_write = writable;
            loop {
                to_write.extend(self.core.take_woken());
                if to_write.is_empty() {
                    break;
                }
                to_write.sort_unstable();
                to_write.dedup();
                for &token in &to_write {
                    self.service_writable(token, now);
                }
                touched.append(&mut to_write);
                self.core.flush();
            }

            // A connection only becomes reapable through an event that
            // names it (EOF or error in `readable`, last pending write
            // or engine callback in `to_write`), so reaping scans just
            // this cycle's touched tokens — O(events), not O(conns).
            // A periodic full sweep backstops any path that slips by.
            touched.sort_unstable();
            touched.dedup();
            self.reap(&touched);
            self.cycles += 1;
            if self.cycles.is_multiple_of(FULL_REAP_EVERY) {
                let all: Vec<u64> = self.sockets.keys().copied().collect();
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
            self.sockets.insert(token, Socket { stream, interest });
            self.core.open(token);
        }
    }

    /// Read one ready connection dry (or to the output cap) into the
    /// core; returns the request frames decoded.
    fn service_readable(&mut self, token: u64, chunk: &mut [u8], now: f64) -> u64 {
        let Some(socket) = self.sockets.get_mut(&token) else {
            return 0;
        };
        let mut decoded = 0u64;
        while self.core.wants_read(token) {
            match socket.stream.read(chunk) {
                Ok(n) if n > 0 => decoded += self.core.on_read(token, &chunk[..n], now),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let eagain = &self.shared.metrics.eagain_reads;
                    eagain.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                _ => self.core.hang_up(token),
            }
        }
        // Stop polling input the core refuses; `EPOLLOUT` is the write phase's.
        if !self.core.wants_read(token) {
            self.sync_interest(token);
        }
        decoded
    }

    /// Flush queued response bytes for one connection; the core keeps
    /// whatever the socket refuses.
    fn service_writable(&mut self, token: u64, now: f64) {
        let Some(socket) = self.sockets.get_mut(&token) else {
            return;
        };
        if self
            .core
            .write(token, now, |bytes| socket.stream.write(bytes))
        {
            let eagain = &self.shared.metrics.eagain_writes;
            eagain.fetch_add(1, Ordering::Relaxed);
        }
        self.sync_interest(token);
    }

    /// Register input interest while the core wants input, `EPOLLOUT`
    /// while output is queued.
    fn sync_interest(&mut self, token: u64) {
        let Some(socket) = self.sockets.get_mut(&token) else {
            return;
        };
        let mut want = 0;
        if self.core.wants_read(token) {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if self.core.queued(token) > 0 {
            want |= EPOLLOUT;
        }
        if want != socket.interest
            && self
                .epoll
                .modify(socket.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            socket.interest = want;
        }
    }

    /// Release the sockets of the `candidates` the core tears down.
    fn reap(&mut self, candidates: &[u64]) {
        for token in self.core.reap(candidates) {
            if let Some(socket) = self.sockets.remove(&token) {
                let _ = self.epoll.delete(socket.stream.as_raw_fd());
            }
        }
    }
}
