//! Epoll-driven closed-loop load generator for the serving layer.
//!
//! Drives `connections × lanes_per_conn` logical lanes against a
//! server from **one** thread: every client socket is nonblocking and
//! multiplexed on a private epoll, so a C10k (or larger) offered load
//! does not need 10k generator threads. Each lane is a sequential
//! connect → disconnect state machine over its own dedicated source
//! endpoint; lanes pipeline up to [`LoadConfig::pipeline`] of their own
//! steps, relying on the engine's per-source FIFO to keep verdicts
//! deterministic.
//!
//! Lane geometry is conflict-free by construction: lane `g` owns source
//! `(g / k, g mod k)` and unicasts to `((g / k) + 1 mod ports, g mod
//! k)` — all sources and all destinations distinct — so a fabric at the
//! Theorem-1 bound must admit every request, and the soak tests assert
//! exactly that (zero rejects).
//!
//! This is a conformance client: it counts verdicts by class and takes
//! no latency or rate. Measuring the served system is the `benchmark/`
//! package's job (`BENCHMARK.json`).

use crate::codec::{decode_response, encode_request};
use crate::protocol::{RejectReason, Request, Response};
use crate::reactor::sys::{
    set_abortive_close, Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::serving::conn::FrameAssembler;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use wdm_core::{Endpoint, MulticastConnection};

/// Offered-load shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// TCP connections to open.
    pub connections: usize,
    /// Logical lanes multiplexed on each connection.
    pub lanes_per_conn: usize,
    /// Per-lane pipeline depth (outstanding steps before waiting).
    pub pipeline: usize,
    /// Connect/disconnect pairs each lane performs.
    pub rounds: usize,
    /// Input/output port count of the served fabric; lanes must fit:
    /// `connections × lanes_per_conn ≤ ports × wavelengths`.
    pub ports: u32,
    /// Wavelengths per port of the served fabric.
    pub wavelengths: u32,
    /// Abort the run (with `completed = false`) after this long.
    pub max_runtime: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 64,
            lanes_per_conn: 1,
            pipeline: 2,
            rounds: 8,
            ports: 64,
            wavelengths: 2,
            max_runtime: Duration::from_secs(120),
        }
    }
}

/// What the offered load got back.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Logical lanes driven.
    pub lanes: usize,
    /// Request frames written.
    pub requests_sent: u64,
    /// `Ok` verdicts for connects.
    pub connect_acks: u64,
    /// `Ok` verdicts for disconnects.
    pub disconnect_acks: u64,
    /// `Busy` rejects (endpoint conflict outlived the deadline).
    pub busy: u64,
    /// `Blocked` rejects (middle stage exhausted).
    pub blocked: u64,
    /// `Backpressure` rejects (server shed load).
    pub backpressure: u64,
    /// `Draining` rejects.
    pub draining: u64,
    /// Any other non-`Ok` response.
    pub other: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Every lane finished all its rounds before
    /// [`LoadConfig::max_runtime`].
    pub completed: bool,
}

impl LoadReport {
    /// Total `Ok` verdicts.
    pub fn acks(&self) -> u64 {
        self.connect_acks + self.disconnect_acks
    }

    /// Total rejects of any flavor.
    pub fn rejects(&self) -> u64 {
        self.busy + self.blocked + self.backpressure + self.draining + self.other
    }
}

struct Lane {
    conn: usize,
    next_step: usize,
    acked_or_rejected: usize,
    outstanding: usize,
}

struct Client {
    stream: TcpStream,
    assembler: FrameAssembler,
    out: Vec<u8>,
    out_pos: usize,
    interest: u32,
    dead: bool,
}

struct Pending {
    lane: usize,
    is_connect: bool,
}

struct Driver {
    config: LoadConfig,
    epoll: Epoll,
    clients: Vec<Client>,
    lanes: Vec<Lane>,
    pending: HashMap<u64, Pending>,
    next_id: u64,
    done_lanes: usize,
    /// Count of clients whose socket died, so the exit check is O(1)
    /// per wakeup instead of a scan of every client.
    dead_clients: usize,
    report: LoadReport,
}

/// Sequential connects funnel through the server's accept queue; a
/// refused attempt just retries after a short pause.
fn connect_with_retry(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut last = None;
    for attempt in 0..100u64 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(2 * (attempt + 1).min(25)));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Drive the configured closed loop against `addr` and report what
/// came back. Lanes make progress strictly in request order, so at a
/// nonblocking operating point the report shows zero rejects.
pub fn run(addr: SocketAddr, config: LoadConfig) -> std::io::Result<LoadReport> {
    let total_lanes = config.connections * config.lanes_per_conn;
    assert!(
        total_lanes <= (config.ports as usize) * (config.wavelengths as usize),
        "lane set must fit the fabric: {total_lanes} lanes > {} endpoints",
        config.ports * config.wavelengths
    );
    let epoll = Epoll::new()?;
    let mut clients = Vec::with_capacity(config.connections);
    for c in 0..config.connections {
        let stream = connect_with_retry(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        // RST on close: a C10k run must not leave 10k TIME_WAIT
        // sockets poisoning the next run's kernel lookup tables.
        set_abortive_close(stream.as_raw_fd());
        let interest = EPOLLIN | EPOLLRDHUP;
        epoll.add(stream.as_raw_fd(), interest, c as u64)?;
        clients.push(Client {
            stream,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            interest,
            dead: false,
        });
    }
    let lanes = (0..total_lanes)
        .map(|g| Lane {
            conn: g / config.lanes_per_conn,
            next_step: 0,
            acked_or_rejected: 0,
            outstanding: 0,
        })
        .collect();
    let mut driver = Driver {
        report: LoadReport {
            lanes: total_lanes,
            ..LoadReport::default()
        },
        config,
        epoll,
        clients,
        lanes,
        pending: HashMap::new(),
        next_id: 1,
        done_lanes: 0,
        dead_clients: 0,
    };
    driver.run_loop();
    Ok(driver.report)
}

impl Driver {
    fn steps_per_lane(&self) -> usize {
        self.config.rounds * 2
    }

    /// Lane `g`'s dedicated endpoints — disjoint across the lane set.
    fn endpoints(&self, lane: usize) -> (Endpoint, Endpoint) {
        let g = lane as u32;
        let k = self.config.wavelengths.max(1);
        let src = Endpoint::new(g / k, g % k);
        let dst = Endpoint::new((g / k + 1) % self.config.ports.max(1), g % k);
        (src, dst)
    }

    fn run_loop(&mut self) {
        let started = Instant::now();
        // Prime every lane up to its pipeline depth, then flush.
        for lane in 0..self.lanes.len() {
            self.refill(lane);
        }
        for c in 0..self.clients.len() {
            self.flush(c);
        }
        let mut events = Epoll::event_buffer(1024);
        while self.done_lanes < self.lanes.len() && started.elapsed() < self.config.max_runtime {
            let n = match self.epoll.wait(&mut events, 50) {
                Ok(n) => n,
                Err(_) => break,
            };
            for event in events.iter().take(n) {
                let token = event.token() as usize;
                let bits = event.events();
                if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    self.service_readable(token);
                }
                if bits & EPOLLOUT != 0 {
                    self.flush(token);
                }
            }
            if self.dead_clients >= self.clients.len() {
                break;
            }
        }
        self.report.elapsed = started.elapsed();
        self.report.completed = self.done_lanes == self.lanes.len();
    }

    /// Keep `lane` filled to its pipeline depth (appends to its
    /// connection's write buffer; caller flushes).
    fn refill(&mut self, lane_idx: usize) {
        let steps = self.steps_per_lane();
        loop {
            let lane = &self.lanes[lane_idx];
            if lane.next_step >= steps || lane.outstanding >= self.config.pipeline.max(1) {
                return;
            }
            let (src, dst) = self.endpoints(lane_idx);
            let lane = &mut self.lanes[lane_idx];
            let is_connect = lane.next_step.is_multiple_of(2);
            lane.next_step += 1;
            lane.outstanding += 1;
            let req = if is_connect {
                Request::Connect(MulticastConnection::unicast(src, dst))
            } else {
                Request::Disconnect(src)
            };
            let id = self.next_id;
            self.next_id += 1;
            self.pending.insert(
                id,
                Pending {
                    lane: lane_idx,
                    is_connect,
                },
            );
            let bytes = encode_request(id, &req);
            let conn = self.lanes[lane_idx].conn;
            self.clients[conn].out.extend_from_slice(&bytes);
            self.report.requests_sent += 1;
        }
    }

    fn service_readable(&mut self, conn: usize) {
        let mut chunk = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        {
            let Some(client) = self.clients.get_mut(conn) else {
                return;
            };
            if client.dead {
                return;
            }
            loop {
                match client.stream.read(&mut chunk) {
                    Ok(0) => {
                        client.dead = true;
                        self.dead_clients += 1;
                        let _ = self.epoll.delete(client.stream.as_raw_fd());
                        break;
                    }
                    Ok(n) => client.assembler.extend(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        client.dead = true;
                        self.dead_clients += 1;
                        let _ = self.epoll.delete(client.stream.as_raw_fd());
                        break;
                    }
                }
            }
            loop {
                match client.assembler.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(_) => {
                        client.dead = true;
                        self.dead_clients += 1;
                        let _ = self.epoll.delete(client.stream.as_raw_fd());
                        break;
                    }
                }
            }
        }
        for frame in frames {
            let Some(pending) = self.pending.remove(&frame.id) else {
                continue;
            };
            match decode_response(&frame) {
                Ok(Response::Ok) => {
                    if pending.is_connect {
                        self.report.connect_acks += 1;
                    } else {
                        self.report.disconnect_acks += 1;
                    }
                }
                Ok(Response::Rejected { reason, .. }) => match reason {
                    RejectReason::Busy => self.report.busy += 1,
                    RejectReason::Blocked => self.report.blocked += 1,
                    RejectReason::Backpressure => self.report.backpressure += 1,
                    RejectReason::Draining => self.report.draining += 1,
                    _ => self.report.other += 1,
                },
                _ => self.report.other += 1,
            }
            let lane_idx = pending.lane;
            let steps = self.steps_per_lane();
            let lane = &mut self.lanes[lane_idx];
            lane.outstanding -= 1;
            lane.acked_or_rejected += 1;
            if lane.acked_or_rejected == steps {
                self.done_lanes += 1;
            } else {
                self.refill(lane_idx);
            }
        }
        self.flush(conn);
    }

    /// Push buffered request bytes; on a short write re-register
    /// `EPOLLOUT` so the loop resumes when the socket drains.
    fn flush(&mut self, conn: usize) {
        let Some(client) = self.clients.get_mut(conn) else {
            return;
        };
        if client.dead {
            return;
        }
        while client.out_pos < client.out.len() {
            match client.stream.write(&client.out[client.out_pos..]) {
                Ok(0) => {
                    client.dead = true;
                    self.dead_clients += 1;
                    let _ = self.epoll.delete(client.stream.as_raw_fd());
                    return;
                }
                Ok(n) => client.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    client.dead = true;
                    self.dead_clients += 1;
                    let _ = self.epoll.delete(client.stream.as_raw_fd());
                    return;
                }
            }
        }
        if client.out_pos >= client.out.len() {
            client.out.clear();
            client.out_pos = 0;
        } else if client.out_pos >= 1 << 16 {
            client.out.drain(..client.out_pos);
            client.out_pos = 0;
        }
        let want = if client.out_pos < client.out.len() {
            EPOLLIN | EPOLLRDHUP | EPOLLOUT
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        if want != client.interest
            && self
                .epoll
                .modify(client.stream.as_raw_fd(), want, conn as u64)
                .is_ok()
        {
            client.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_geometry_is_conflict_free() {
        let config = LoadConfig {
            connections: 8,
            lanes_per_conn: 4,
            ports: 16,
            wavelengths: 2,
            ..LoadConfig::default()
        };
        let driver = Driver {
            config,
            epoll: Epoll::new().unwrap(),
            clients: Vec::new(),
            lanes: Vec::new(),
            pending: HashMap::new(),
            next_id: 1,
            done_lanes: 0,
            dead_clients: 0,
            report: LoadReport::default(),
        };
        let mut sources = std::collections::HashSet::new();
        let mut dests = std::collections::HashSet::new();
        for g in 0..32 {
            let (src, dst) = driver.endpoints(g);
            assert!(sources.insert(src), "duplicate source at lane {g}");
            assert!(dests.insert(dst), "duplicate destination at lane {g}");
            assert_ne!(src.port, dst.port, "unicast must cross ports");
        }
    }
}
