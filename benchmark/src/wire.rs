//! The two wire workloads: `ReactorServer` + `AdmissionEngine` + a
//! three-stage network at G1, served **in-process** over loopback TCP so
//! one monotonic clock stamps generator and (traced) backend alike.
//!
//! The generator is one thread driving [`CONNECTIONS`] sockets, and it
//! *blocks* in `ppoll` — it never spins. Each slot is pinned to one
//! connection so its pipelined requests reach the engine in order.
//!
//! * closed loop (`wire_unicast_closed`): every slot keeps
//!   [`CLOSED_PIPELINE`] requests in flight; a response triggers the
//!   slot's next request.
//! * open loop (`wire_multicast_open`): seeded Poisson arrivals at
//!   `OPEN_LOOP_RATE`; a due request takes a random idle slot or waits
//!   in a FIFO backlog keeping its intended time, and latency runs from
//!   that intended time, so a stall is charged to every request it
//!   delays (no coordinated omission).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdm_net::codec::{decode_response, encode_request};
use wdm_net::{ReactorConfig, ReactorServer, ReactorSnapshot, Request, Response};
use wdm_runtime::{Backend, EngineBuilder, MetricsSnapshot};

use crate::frames::{set_frame_id, FrameSplitter};
use crate::layers::{self, SetupPhases};
use crate::report::RunRecord;
use crate::slots::{self, Slot};
use crate::spec::{
    BenchmarkSpec, Workload, CONNECTIONS, G1, G1_M, MIX_G1_MULTICAST, MIX_UNICAST, SHARDS,
};
use crate::stats::{self, median, Clock, Window, SUB_WINDOWS};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::trace::{TraceCounters, TraceSink};
use crate::{backends, micro, RunArgs};

/// Requests each slot keeps in flight in the closed loop (a connect and
/// the disconnect behind it).
const CLOSED_PIPELINE: u64 = 2;
/// Request ids at or above this are control frames (snapshot, drain).
const CONTROL_ID: u64 = u64::MAX - 0xFFFF;
/// How long the generator waits for stragglers before calling them
/// unanswered.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

struct Conn {
    stream: TcpStream,
    splitter: FrameSplitter,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
}

struct SlotState {
    slot: Slot,
    conn: usize,
    /// The slot's two requests, encoded once; the id is re-stamped per
    /// send. Index = sequence number parity (0 connect, 1 disconnect).
    frames: [Vec<u8>; 2],
    issued: u64,
    completed: u64,
    intended_ns: [u64; 2],
    sent_ns: [u64; 2],
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Closed,
    /// Open loop at this many requests per second.
    Open(f64),
}

/// Until when a [`Generator::drive`] call keeps issuing.
enum Until {
    /// This many responses in total (warm-up).
    Completed(u64),
    /// The end of the measured window.
    WindowEnd,
    /// Issue nothing new; return when nothing is in flight.
    Quiet,
}

/// What a phase records into, beyond the generator's own counters.
#[derive(Default)]
struct Recording<'a> {
    window: Option<&'a Window>,
    sink: Option<&'a TraceSink>,
}

struct Generator {
    clock: Clock,
    mode: Mode,
    conns: Vec<Conn>,
    /// Scratch for `read(2)`, kept so it is not re-zeroed per call.
    chunk: Box<[u8]>,
    slots: Vec<SlotState>,
    rng: StdRng,
    // Open loop only.
    idle: Vec<u32>,
    backlog: VecDeque<u64>,
    next_due_ns: f64,
    // Totals since connect.
    sent: u64,
    completed: u64,
    connect_acks: u64,
    rejected: u64,
    protocol_failures: u64,
    control: HashMap<u64, Response>,
    next_control: u64,
    // Generator validity, measured windows only.
    arrivals: u64,
    stalled: u64,
    backlog_max: usize,
    backlog_at_sub_end: Vec<usize>,
}

impl Generator {
    fn connect(
        clock: Clock,
        mode: Mode,
        addr: std::net::SocketAddr,
        slots: Vec<Slot>,
        seed: u64,
    ) -> std::io::Result<Generator> {
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                splitter: FrameSplitter::default(),
                out: Vec::new(),
                written: 0,
            });
        }
        let slots: Vec<SlotState> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| SlotState {
                frames: [
                    encode_request(0, &Request::Connect(slot.connect.clone())),
                    encode_request(0, &Request::Disconnect(slot.source())),
                ],
                conn: i % CONNECTIONS,
                slot,
                issued: 0,
                completed: 0,
                intended_ns: [0; 2],
                sent_ns: [0; 2],
            })
            .collect();
        Ok(Generator {
            clock,
            mode,
            idle: (0..slots.len() as u32).collect(),
            conns,
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
            slots,
            rng: StdRng::seed_from_u64(seed ^ 0x0a11_0ca7),
            backlog: VecDeque::new(),
            next_due_ns: clock.now_ns() as f64,
            sent: 0,
            completed: 0,
            connect_acks: 0,
            rejected: 0,
            protocol_failures: 0,
            control: HashMap::new(),
            next_control: CONTROL_ID,
            arrivals: 0,
            stalled: 0,
            backlog_max: 0,
            backlog_at_sub_end: Vec::new(),
        })
    }

    fn in_flight(&self) -> u64 {
        self.sent - self.completed
    }

    /// Queue slot `idx`'s next request on its connection.
    fn issue(&mut self, idx: usize, intended_ns: u64, now_ns: u64) {
        let st = &mut self.slots[idx];
        let parity = (st.issued % 2) as usize;
        set_frame_id(
            &mut st.frames[parity],
            (idx as u64) << 32 | (st.issued & 0xFFFF_FFFF),
        );
        st.intended_ns[parity] = intended_ns;
        st.sent_ns[parity] = now_ns;
        st.issued += 1;
        self.conns[st.conn]
            .out
            .extend_from_slice(&st.frames[parity]);
        self.sent += 1;
    }

    /// Queue a control request (snapshot, drain) on connection 0; the
    /// reply is picked up by [`Generator::take_control`].
    fn send_control(&mut self, req: &Request) -> u64 {
        let id = self.next_control;
        self.next_control += 1;
        self.conns[0]
            .out
            .extend_from_slice(&encode_request(id, req));
        id
    }

    /// Drive the sockets until the reply to control request `id` is in.
    fn take_control(&mut self, id: u64) -> Result<Response, String> {
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        loop {
            if let Some(resp) = self.control.remove(&id) {
                return Ok(resp);
            }
            if Instant::now() > deadline {
                return Err(format!("no reply to control request {id:#x}"));
            }
            self.flush()?;
            self.wait(Duration::from_millis(100))?;
            self.read_ready(&Recording::default(), false)?;
        }
    }

    /// Open loop: move every arrival that has come due into the
    /// backlog, then hand backlog entries to idle slots in FIFO order.
    fn admit_arrivals(&mut self, rate: f64, now_ns: u64, window: Option<&Window>) {
        let measuring = window.is_some();
        while self.next_due_ns <= now_ns as f64 {
            self.backlog.push_back(self.next_due_ns as u64);
            let u: f64 = self.rng.gen();
            self.next_due_ns += -(1.0 - u).ln() * 1e9 / rate;
            if measuring {
                self.arrivals += 1;
                // No idle slot left for it: it will wait in the backlog.
                if self.backlog.len() > self.idle.len() {
                    self.stalled += 1;
                }
            }
        }
        while !self.backlog.is_empty() && !self.idle.is_empty() {
            let intended = self.backlog.pop_front().expect("non-empty");
            let pick = self.rng.gen_range(0..self.idle.len());
            let idx = self.idle.swap_remove(pick) as usize;
            self.issue(idx, intended, now_ns);
            if let Some(w) = window {
                w.subs[w.index(now_ns)].late.record(now_ns - intended);
            }
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        for c in &mut self.conns {
            while c.written < c.out.len() {
                match c.stream.write(&c.out[c.written..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => c.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if c.written == c.out.len() {
                c.out.clear();
                c.written = 0;
            }
        }
        Ok(())
    }

    /// Block until a socket is readable (or writable again, when output
    /// is pending), or `timeout` passes.
    fn wait(&mut self, timeout: Duration) -> Result<(), String> {
        let mut fds: [PollFd; CONNECTIONS] = std::array::from_fn(|i| {
            let c = &self.conns[i];
            PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                },
                revents: 0,
            }
        });
        sys::poll(&mut fds, timeout).map_err(|e| format!("ppoll: {e}"))?;
        Ok(())
    }

    /// Read every socket dry and handle the responses. `reissue`: in
    /// the closed loop, answer each response with the slot's next
    /// request.
    fn read_ready(&mut self, rec: &Recording<'_>, reissue: bool) -> Result<(), String> {
        for ci in 0..self.conns.len() {
            loop {
                match self.conns[ci].stream.read(&mut self.chunk) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        self.conns[ci].splitter.extend(&self.chunk[..n]);
                        let now_ns = self.clock.now_ns();
                        while let Some(frame) = self.conns[ci].splitter.next_frame()? {
                            self.on_response(frame, now_ns, rec, reissue);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        }
        Ok(())
    }

    fn on_response(
        &mut self,
        frame: wdm_net::RawFrame,
        now_ns: u64,
        rec: &Recording<'_>,
        reissue: bool,
    ) {
        let resp = decode_response(&frame);
        if frame.id >= CONTROL_ID {
            match resp {
                Ok(r) => {
                    self.control.insert(frame.id, r);
                }
                Err(_) => self.protocol_failures += 1,
            }
            return;
        }
        let idx = (frame.id >> 32) as usize;
        let in_order = self.slots.get(idx).is_some_and(|st| {
            st.completed < st.issued && frame.id & 0xFFFF_FFFF == st.completed & 0xFFFF_FFFF
        });
        let (Ok(resp), true) = (resp, in_order) else {
            self.protocol_failures += 1;
            return;
        };
        let st = &mut self.slots[idx];
        let seq = st.completed;
        let parity = (seq % 2) as usize;
        st.completed += 1;
        self.completed += 1;
        let admitted = parity == 0 && resp.is_ok();
        if admitted {
            self.connect_acks += 1;
        }
        if !resp.is_ok() {
            self.rejected += 1;
        }
        if let Some(w) = rec.window {
            let sub = &w.subs[w.index(now_ns)];
            sub.latency.record(now_ns - st.intended_ns[parity]);
            sub.completed.fetch_add(1, Ordering::Relaxed);
            if admitted {
                sub.admitted.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(sink) = rec.sink {
            sink.complete(
                st.slot.source(),
                seq,
                st.intended_ns[parity],
                st.sent_ns[parity],
                now_ns,
            );
        }
        match self.mode {
            Mode::Closed if reissue => self.issue(idx, now_ns, now_ns),
            Mode::Closed => {}
            Mode::Open(_) => self.idle.push(idx as u32),
        }
    }

    /// Run the loop until `until`. Returns an error only when the byte
    /// stream itself broke; wrong answers are counted, not fatal.
    fn drive(&mut self, until: Until, rec: &Recording<'_>) -> Result<(), String> {
        let issuing = !matches!(until, Until::Quiet);
        let measuring = rec.window.is_some();
        if issuing && self.mode == Mode::Closed {
            // Top every slot up to its pipeline depth (first phase, or
            // after a quiet phase).
            let now = self.clock.now_ns();
            for idx in 0..self.slots.len() {
                while self.slots[idx].issued - self.slots[idx].completed < CLOSED_PIPELINE {
                    self.issue(idx, now, now);
                }
            }
        }
        let quiet_deadline = Instant::now() + QUIESCE_TIMEOUT;
        loop {
            let now = self.clock.now_ns();
            let done = match until {
                Until::Completed(n) => self.completed >= n,
                Until::WindowEnd => rec.window.is_some_and(|w| now >= w.end_ns()),
                Until::Quiet => self.in_flight() == 0 || Instant::now() > quiet_deadline,
            };
            if done {
                return Ok(());
            }
            if let Some(w) = rec.window {
                let sub = w.advance(now);
                self.backlog_at_sub_end[sub] = self.backlog.len();
            }
            if let (true, Mode::Open(rate)) = (issuing, self.mode) {
                self.admit_arrivals(rate, now, rec.window);
                if measuring {
                    self.backlog_max = self.backlog_max.max(self.backlog.len());
                }
            }
            self.flush()?;
            let timeout = match (self.mode, issuing) {
                // Idle slots left: sleep until the next arrival is due.
                (Mode::Open(_), true) if !self.idle.is_empty() => Duration::from_nanos(
                    (self.next_due_ns as u64).saturating_sub(self.clock.now_ns()),
                ),
                _ => Duration::from_millis(50),
            };
            let timeout = match (&until, rec.window) {
                (Until::WindowEnd, Some(w)) => timeout.min(Duration::from_nanos(
                    w.end_ns().saturating_sub(self.clock.now_ns()),
                )),
                _ => timeout,
            };
            self.wait(timeout)?;
            self.read_ready(rec, issuing)?;
        }
    }

    /// End of run: let everything in flight finish, then disconnect the
    /// slots that are up so the fabric drains empty.
    fn wind_down(&mut self) -> Result<(), String> {
        self.backlog.clear();
        self.drive(Until::Quiet, &Recording::default())?;
        let now = self.clock.now_ns();
        for idx in 0..self.slots.len() {
            let st = &self.slots[idx];
            if st.issued == st.completed && st.issued % 2 == 1 {
                self.issue(idx, now, now);
            }
        }
        self.drive(Until::Quiet, &Recording::default())
    }

    fn snapshot(&mut self) -> Result<MetricsSnapshot, String> {
        let id = self.send_control(&Request::Snapshot);
        match self.take_control(id)? {
            Response::Snapshot(s) => Ok(s),
            other => Err(format!("snapshot request answered with {other:?}")),
        }
    }
}

/// A served system, warmed up and ready to be measured.
struct Live {
    server: ReactorServer<Box<dyn Backend>>,
    gen: Generator,
    /// Present in a traced run; the backend is wrapped around it.
    sink: Option<Arc<TraceSink>>,
    phases: SetupPhases,
}

fn set_up(args: &RunArgs, clock: Clock) -> Result<Live, String> {
    let mut phases = SetupPhases::default();
    let sink = args.trace.then(|| TraceSink::new(clock, G1.ports(), G1.k));
    let t = Instant::now();
    let backend = backends::three_stage(G1, G1_M, sink.as_ref());
    phases.backend_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (mode, mix) = match args.workload {
        Workload::WireUnicastClosed => (Mode::Closed, MIX_UNICAST),
        _ => (Mode::Open(args.scale.open_loop_rate), MIX_G1_MULTICAST),
    };
    let slots = slots::generate(G1, mix, args.seed);
    phases.slotgen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = EngineBuilder::new().shards(SHARDS).start(backend);
    let config = ReactorConfig {
        shards: SHARDS,
        ..ReactorConfig::default()
    };
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", config).map_err(|e| format!("serve: {e}"))?;
    phases.server_start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut gen = Generator::connect(clock, mode, server.local_addr(), slots, args.seed)
        .map_err(|e| format!("connect: {e}"))?;
    phases.connect_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    gen.drive(
        Until::Completed(args.scale.warmup_requests),
        &Recording::default(),
    )?;
    phases.warmup_s = t.elapsed().as_secs_f64();
    Ok(Live {
        server,
        gen,
        sink,
        phases,
    })
}

/// Wind down, drain over the wire, stop the server, run every
/// end-of-life correctness check and fold the generator's totals into
/// the verdict.
fn finish(live: Live, rec: &mut RunRecord) -> Result<ReactorSnapshot, String> {
    let Live {
        server, mut gen, ..
    } = live;
    gen.wind_down()?;
    let reactor = server.stats();
    let id = gen.send_control(&Request::Drain);
    let drain = gen.take_control(id)?;
    let report = server.wait();
    let Response::DrainReport { clean, summary } = drain else {
        return Err(format!("drain answered with {drain:?}"));
    };
    rec.check(clean && report.is_clean(), || {
        format!("drain report not clean: {:?}", report.errors)
    });
    rec.check(report.consistency.is_empty(), || {
        format!("check() findings: {:?}", report.consistency)
    });
    rec.check(report.backend.active_connections() == 0, || {
        "fabric not empty after every slot disconnected".into()
    });
    layers::check_engine_conservation(rec, &summary);

    let unanswered = gen.in_flight();
    rec.attempted += gen.sent;
    rec.failed += gen.rejected + gen.protocol_failures + unanswered;
    rec.check(gen.rejected == 0, || {
        format!("{} rejects at the Theorem-1 bound", gen.rejected)
    });
    rec.check(unanswered == 0 && gen.protocol_failures == 0, || {
        format!(
            "{unanswered} requests unanswered, {} misordered or undecodable responses",
            gen.protocol_failures
        )
    });
    rec.check(summary.admitted == gen.connect_acks, || {
        format!(
            "server admitted {} but the client saw {} Connect acks",
            summary.admitted, gen.connect_acks
        )
    });
    Ok(reactor)
}

pub fn run(args: &RunArgs, spec: &BenchmarkSpec, rec: &mut RunRecord) -> Result<(), String> {
    let clock = Clock::start();
    if args.trace {
        return run_traced(args, spec, rec, clock);
    }
    let measured = layers::measure_systems(
        args,
        spec,
        rec,
        |m: &Measured| &m.window,
        |rec, len_ns, subs| {
            let t = Instant::now();
            let mut live = set_up(args, clock)?;
            let setup_s = t.elapsed().as_secs_f64();
            let m = measure(&mut live, len_ns, subs, false)?;
            finish(live, rec)?;
            Ok((setup_s, m))
        },
    )?;
    put_loadgen(&measured, rec, spec);
    Ok(())
}

/// The traced run: one system, half the time as reference, half traced.
fn run_traced(
    args: &RunArgs,
    spec: &BenchmarkSpec,
    rec: &mut RunRecord,
    clock: Clock,
) -> Result<(), String> {
    let len_ns = (args.seconds * 1e9) as u64;
    let mut live = set_up(args, clock)?;
    let sink = live.sink.clone().expect("traced run has a sink");
    // The wrapper sits on the backend throughout; only the second
    // half-window has the generator joining requests.
    let reference = measure(&mut live, len_ns / 2, SUB_WINDOWS / 2, false)?;
    let traced = measure(&mut live, len_ns / 2, SUB_WINDOWS / 2, true)?;
    layers::put_trace_segments(rec, spec, &sink);
    layers::put_trace_overhead(rec, spec, &reference.window, &traced.window);
    layers::put_backend_share(rec, spec, &traced.backend_calls, traced.window.wall_ns());
    layers::put_engine_window(rec, spec, &reference.engine_before, &reference.engine_after);
    reference.put_reactor(rec, spec);
    put_loadgen(&[reference, traced], rec, spec);
    live.phases.put(rec, spec, args.workload);
    let slot_list: Vec<Slot> = live.gen.slots.iter().map(|s| s.slot.clone()).collect();
    let reactor = finish(live, rec)?;
    rec.put1(spec, "net.reactor.shed", reactor.shed as f64);
    rec.put1(
        spec,
        "net.reactor.protocol_errors",
        reactor.protocol_errors as f64,
    );
    // Neither histogram behind these two can be differenced, so they
    // cover the server's whole life (warm-up has the same load shape).
    rec.put1(
        spec,
        "net.reactor.frames_per_wakeup_mean",
        reactor.frames_per_wakeup_mean,
    );
    rec.put1(
        spec,
        "net.reactor.coalesced_batch_p99",
        reactor.coalesced_batch_p99 as f64,
    );
    micro::codec(rec, spec, &slot_list, &args.scale);
    micro::engine_submit(rec, spec, G1, &slot_list, &args.scale);
    micro::common(rec, spec, args);
    layers::write_trace_file(args, &sink)
}

/// One measured window and the counters bracketing it.
struct Measured {
    window: Window,
    reactor_before: ReactorSnapshot,
    reactor_after: ReactorSnapshot,
    engine_before: MetricsSnapshot,
    engine_after: MetricsSnapshot,
    backend_calls: TraceCounters,
    generator_cpu_ns: u64,
    arrivals: u64,
    stalled: u64,
    backlog_max: usize,
    backlog_growing: bool,
}

fn measure(live: &mut Live, len_ns: u64, subs: usize, join: bool) -> Result<Measured, String> {
    let sink = live.sink.clone();
    let gen = &mut live.gen;
    // The snapshot round trips pause the open loop's arrivals; do not
    // start the window with the burst that would make up for it.
    gen.next_due_ns = gen.next_due_ns.max(gen.clock.now_ns() as f64);
    (gen.arrivals, gen.stalled, gen.backlog_max) = (0, 0, 0);
    gen.backlog_at_sub_end = vec![0; subs];
    let engine_before = gen.snapshot()?;
    let reactor_before = live.server.stats();
    let calls_before = sink.as_ref().map(|s| s.counters());
    let thread_cpu = sys::thread_cpu();
    let window = Window::new(gen.clock.now_ns(), len_ns, subs);
    gen.drive(
        Until::WindowEnd,
        &Recording {
            window: Some(&window),
            sink: sink.as_deref().filter(|_| join),
        },
    )?;
    window.finish(gen.clock.now_ns());
    let generator_cpu_ns = (sys::thread_cpu() - thread_cpu).as_nanos() as u64;
    let reactor_after = live.server.stats();
    let engine_after = gen.snapshot()?;
    let backend_calls = match (calls_before, &sink) {
        (Some(before), Some(s)) => s.counters().since(&before),
        _ => TraceCounters::default(),
    };
    // Growing = higher at the end of each of the last sub-windows than
    // the one before, and beyond what one burst of arrivals leaves.
    let ends = &gen.backlog_at_sub_end;
    let tail = &ends[ends.len().saturating_sub(4)..];
    let backlog_growing = tail.windows(2).all(|w| w[1] > w[0]) && tail[tail.len() - 1] > 64;
    Ok(Measured {
        generator_cpu_ns,
        arrivals: gen.arrivals,
        stalled: gen.stalled,
        backlog_max: gen.backlog_max,
        backlog_growing,
        window,
        reactor_before,
        reactor_after,
        engine_before,
        engine_after,
        backend_calls,
    })
}

/// `loadgen.*` over every measured window of the run, and the
/// generator-validity rules: a run that breaks them is reported invalid
/// (incorrect), not slow.
fn put_loadgen(measured: &[Measured], rec: &mut RunRecord, spec: &BenchmarkSpec) {
    let windows: Vec<&Window> = measured.iter().map(|m| &m.window).collect();
    // Lateness is judged in the *typical* sub-window: a host stall makes
    // one sub-window late, a generator that cannot keep up makes most of
    // them late.
    let late_p99_us = median(&stats::pooled(&windows, |s| s.late.quantile(0.99) / 1e3));
    let sum = |f: fn(&Measured) -> u64| measured.iter().map(f).sum::<u64>() as f64;
    rec.put1(spec, "loadgen.late_p99_us", late_p99_us);
    rec.put1(
        spec,
        "loadgen.backlog_max",
        measured.iter().map(|m| m.backlog_max).max().unwrap_or(0) as f64,
    );
    rec.put1(
        spec,
        "loadgen.slot_stall_share",
        sum(|m| m.stalled) / sum(|m| m.arrivals).max(1.0),
    );
    rec.put1(
        spec,
        "loadgen.cpu_share",
        sum(|m| m.generator_cpu_ns) / sum(|m| m.window.cpu_ns()).max(1.0),
    );
    rec.check(late_p99_us <= 500.0, || {
        format!("invalid run: generator ran late (loadgen.late_p99_us = {late_p99_us:.1} > 500)")
    });
    rec.check(!measured.iter().any(|m| m.backlog_growing), || {
        "invalid run: open-loop backlog still growing at the end of a window".into()
    });
}

impl Measured {
    /// `net.reactor.*` rates from the `ReactorServer::stats()` delta
    /// over this window.
    fn put_reactor(&self, rec: &mut RunRecord, spec: &BenchmarkSpec) {
        let (b, a) = (&self.reactor_before, &self.reactor_after);
        let frames = (a.frames - b.frames).max(1) as f64;
        let batches = (a.coalesced_batches - b.coalesced_batches).max(1) as f64;
        rec.put1(
            spec,
            "net.reactor.wakeups_per_kreq",
            (a.wakeups - b.wakeups) as f64 * 1e3 / frames,
        );
        rec.put1(
            spec,
            "net.reactor.eagain_writes_per_kreq",
            (a.eagain_writes - b.eagain_writes) as f64 * 1e3 / frames,
        );
        rec.put1(
            spec,
            "net.reactor.coalesced_batch_mean",
            (a.coalesced_events - b.coalesced_events) as f64 / batches,
        );
    }
}
