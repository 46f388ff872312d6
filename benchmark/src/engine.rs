//! `engine_multicast_batch`: no wire. Slot churn on G2 goes straight
//! into `AdmissionEngine::submit_batch_tracked` in windows of
//! [`ENGINE_WINDOW`] requests, at most [`ENGINE_WINDOWS_IN_FLIGHT`] in
//! flight; the generator thread blocks on a condvar until a window
//! resolves. Latency is submit → callback, stamped on the shard thread
//! that fires the callback.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wdm_runtime::{AdmissionEngine, Backend, EngineBuilder, OutcomeCallback, RequestOutcome};
use wdm_workload::{TimedEvent, TraceEvent};

use crate::layers::{self, SetupPhases};
use crate::report::RunRecord;
use crate::slots::{self, Slot};
use crate::spec::{
    BenchmarkSpec, ENGINE_WINDOW, ENGINE_WINDOWS_IN_FLIGHT, G2, G2_M, MIX_G2_MULTICAST, SHARDS,
};
use crate::stats::{Clock, Window, SUB_WINDOWS};
use crate::trace::TraceSink;
use crate::{backends, micro, sys, RunArgs};

/// How long the generator waits for a window before calling its
/// requests unanswered.
const WINDOW_TIMEOUT: Duration = Duration::from_secs(10);

/// What callbacks (on engine-shard threads) and the generator share.
struct Shared {
    clock: Clock,
    /// Where completions are recorded while a measured window is open.
    recording: Mutex<Option<Recording>>,
    connect_acks: AtomicU64,
    rejected: AtomicU64,
    /// Slots of resolved windows, handed back to the generator.
    resolved: Mutex<Vec<Vec<u32>>>,
    wake: Condvar,
}

#[derive(Clone)]
struct Recording {
    window: Arc<Window>,
    sink: Option<Arc<TraceSink>>,
}

/// One submitted window; its last callback returns the slots.
struct Batch {
    slots: Vec<u32>,
    remaining: AtomicUsize,
    submit_ns: u64,
    recording: Option<Recording>,
}

/// The slot-churn driver over an in-process engine.
pub struct Driver {
    shared: Arc<Shared>,
    slots: Vec<Slot>,
    /// Requests issued per slot so far (parity = connect / disconnect).
    issued: Vec<u64>,
    idle: Vec<u32>,
    in_flight: usize,
    rng: StdRng,
    pub sent: u64,
    pub completed: u64,
}

impl Driver {
    pub fn new(clock: Clock, slots: Vec<Slot>, seed: u64) -> Driver {
        Driver {
            shared: Arc::new(Shared {
                clock,
                recording: Mutex::new(None),
                connect_acks: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                resolved: Mutex::new(Vec::new()),
                wake: Condvar::new(),
            }),
            issued: vec![0; slots.len()],
            idle: (0..slots.len() as u32).collect(),
            slots,
            in_flight: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xe191_9e00),
            sent: 0,
            completed: 0,
        }
    }

    pub fn connect_acks(&self) -> u64 {
        self.shared.connect_acks.load(Ordering::Relaxed)
    }

    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Submit one window of up to `size` random idle slots' next
    /// requests. Returns the time spent inside `submit_batch_tracked`.
    fn submit(&mut self, engine: &AdmissionEngine<Box<dyn Backend>>, size: usize) -> Duration {
        let n = size.min(self.idle.len());
        let picked: Vec<u32> = (0..n)
            .map(|_| {
                let at = self.rng.gen_range(0..self.idle.len());
                self.idle.swap_remove(at)
            })
            .collect();
        let submit_ns = self.shared.clock.now_ns();
        let batch = Arc::new(Batch {
            slots: picked,
            remaining: AtomicUsize::new(n),
            submit_ns,
            recording: self
                .shared
                .recording
                .lock()
                .expect("recording lock")
                .clone(),
        });
        let mut events = Vec::with_capacity(n);
        let mut callbacks: Vec<OutcomeCallback> = Vec::with_capacity(n);
        for &idx in &batch.slots {
            let slot = &self.slots[idx as usize];
            let seq = self.issued[idx as usize];
            self.issued[idx as usize] += 1;
            let connect = seq.is_multiple_of(2);
            events.push(TimedEvent {
                time: submit_ns as f64 / 1e9,
                event: if connect {
                    TraceEvent::Connect(slot.connect.clone())
                } else {
                    TraceEvent::Disconnect(slot.source())
                },
            });
            let (shared, batch, source) =
                (Arc::clone(&self.shared), Arc::clone(&batch), slot.source());
            callbacks.push(Box::new(move |outcome| {
                let now_ns = shared.clock.now_ns();
                let admitted = connect && outcome == RequestOutcome::Admitted;
                if admitted {
                    shared.connect_acks.fetch_add(1, Ordering::Relaxed);
                } else if outcome != RequestOutcome::Departed {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(rec) = &batch.recording {
                    let sub = &rec.window.subs[rec.window.index(now_ns)];
                    sub.latency.record(now_ns - batch.submit_ns);
                    sub.completed.fetch_add(1, Ordering::Relaxed);
                    if admitted {
                        sub.admitted.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(sink) = &rec.sink {
                        sink.complete(source, seq, batch.submit_ns, batch.submit_ns, now_ns);
                    }
                }
                if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    shared
                        .resolved
                        .lock()
                        .expect("resolved lock")
                        .push(batch.slots.clone());
                    shared.wake.notify_one();
                }
            }));
        }
        self.sent += n as u64;
        self.in_flight += 1;
        let t = Instant::now();
        let outcome = engine.submit_batch_tracked(events, callbacks);
        let spent = t.elapsed();
        assert!(
            outcome.is_accepted(),
            "engine refused a window: {outcome:?}"
        );
        spent
    }

    /// Block until at least one window has resolved (or the timeout),
    /// and take its slots back.
    fn reap(&mut self) {
        let resolved = self.shared.resolved.lock().expect("resolved lock");
        let (mut resolved, _) = self
            .shared
            .wake
            .wait_timeout_while(resolved, WINDOW_TIMEOUT, |r| r.is_empty())
            .expect("resolved lock");
        if resolved.is_empty() {
            // Timed out: give up on what is in flight; the caller's
            // accounting reports it as unanswered.
            self.in_flight = 0;
            return;
        }
        for slots in resolved.drain(..) {
            self.completed += slots.len() as u64;
            self.idle.extend(slots);
            self.in_flight -= 1;
        }
    }

    /// Keep `windows` windows of `size` in flight until `done` (asked
    /// once per loop turn, on the generator thread) says stop, then wait
    /// for the stragglers. Returns total time inside
    /// `submit_batch_tracked`.
    pub fn churn(
        &mut self,
        engine: &AdmissionEngine<Box<dyn Backend>>,
        size: usize,
        windows: usize,
        mut done: impl FnMut(&Driver) -> bool,
    ) -> Duration {
        let mut submitting = Duration::ZERO;
        while !done(self) {
            while self.in_flight < windows && !self.idle.is_empty() {
                submitting += self.submit(engine, size);
            }
            self.reap();
        }
        while self.in_flight > 0 {
            self.reap();
        }
        submitting
    }

    /// Disconnect every slot that is up, so the fabric drains empty.
    pub fn wind_down(&mut self, engine: &AdmissionEngine<Box<dyn Backend>>) {
        let up: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&i| self.issued[i as usize] % 2 == 1)
            .collect();
        self.idle = up;
        while !self.idle.is_empty() {
            self.submit(engine, ENGINE_WINDOW);
        }
        while self.in_flight > 0 {
            self.reap();
        }
    }

    fn record_into(&self, recording: Option<Recording>) {
        *self.shared.recording.lock().expect("recording lock") = recording;
    }
}

struct Live {
    engine: AdmissionEngine<Box<dyn Backend>>,
    driver: Driver,
    sink: Option<Arc<TraceSink>>,
    phases: SetupPhases,
}

fn set_up(args: &RunArgs, clock: Clock) -> Live {
    let mut phases = SetupPhases::default();
    let sink = args.trace.then(|| TraceSink::new(clock, G2.ports(), G2.k));
    let t = Instant::now();
    let backend = backends::three_stage(G2, G2_M, sink.as_ref());
    phases.backend_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let slots = slots::generate(G2, MIX_G2_MULTICAST, args.seed);
    phases.slotgen_s = t.elapsed().as_secs_f64();

    let engine = EngineBuilder::new().shards(SHARDS).start(backend);
    let mut driver = Driver::new(clock, slots, args.seed);
    let t = Instant::now();
    let warmup = args.scale.warmup_requests;
    driver.churn(&engine, ENGINE_WINDOW, ENGINE_WINDOWS_IN_FLIGHT, |d| {
        d.sent >= warmup
    });
    phases.warmup_s = t.elapsed().as_secs_f64();
    Live {
        engine,
        driver,
        sink,
        phases,
    }
}

/// Drain the engine and run every end-of-life correctness check.
fn finish(live: Live, rec: &mut RunRecord) {
    let Live {
        engine, mut driver, ..
    } = live;
    driver.wind_down(&engine);
    let report = engine.drain();
    rec.check(report.is_clean(), || {
        format!("drain report not clean: {:?}", report.errors)
    });
    rec.check(report.consistency.is_empty(), || {
        format!("check() findings: {:?}", report.consistency)
    });
    rec.check(report.backend.active_connections() == 0, || {
        "fabric not empty after every slot disconnected".into()
    });
    layers::check_engine_conservation(rec, &report.summary);
    let unanswered = driver.sent - driver.completed;
    rec.attempted += driver.sent;
    rec.failed += driver.rejected() + unanswered;
    rec.check(driver.rejected() == 0, || {
        format!("{} rejects at the Theorem-1 bound", driver.rejected())
    });
    rec.check(unanswered == 0, || {
        format!("{unanswered} requests unanswered")
    });
    rec.check(report.summary.admitted == driver.connect_acks(), || {
        format!(
            "engine admitted {} but callbacks saw {} Admitted",
            report.summary.admitted,
            driver.connect_acks()
        )
    });
}

/// One measured window: churn until its end, recording into it.
/// Returns the window and the generator thread's CPU time inside it.
fn measure(live: &mut Live, len_ns: u64, subs: usize, join: bool) -> (Arc<Window>, u64) {
    let clock = live.driver.shared.clock;
    let window = Arc::new(Window::new(clock.now_ns(), len_ns, subs));
    live.driver.record_into(Some(Recording {
        window: Arc::clone(&window),
        sink: live.sink.clone().filter(|_| join),
    }));
    let thread_cpu = sys::thread_cpu();
    let w = Arc::clone(&window);
    live.driver.churn(
        &live.engine,
        ENGINE_WINDOW,
        ENGINE_WINDOWS_IN_FLIGHT,
        move |_| {
            let now = clock.now_ns();
            w.advance(now);
            now >= w.end_ns()
        },
    );
    window.finish(clock.now_ns());
    live.driver.record_into(None);
    let generator_cpu_ns = (sys::thread_cpu() - thread_cpu).as_nanos() as u64;
    (window, generator_cpu_ns)
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
        |m: &(Arc<Window>, u64)| &*m.0,
        |rec, len_ns, subs| {
            let t = Instant::now();
            let mut live = set_up(args, clock);
            let setup_s = t.elapsed().as_secs_f64();
            let m = measure(&mut live, len_ns, subs, false);
            finish(live, rec);
            Ok((setup_s, m))
        },
    )?;
    let generator_cpu_ns: u64 = measured.iter().map(|m| m.1).sum();
    let process_cpu_ns: u64 = measured.iter().map(|m| m.0.cpu_ns()).sum();
    rec.put1(
        spec,
        "loadgen.cpu_share",
        generator_cpu_ns as f64 / process_cpu_ns.max(1) as f64,
    );
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
    let mut live = set_up(args, clock);
    let sink = live.sink.clone().expect("traced run has a sink");
    let engine_before = live.engine.snapshot_now();
    let (reference, generator_cpu_ns) = measure(&mut live, len_ns / 2, SUB_WINDOWS / 2, false);
    let engine_after = live.engine.snapshot_now();
    let calls_before = sink.counters();
    let (traced, _) = measure(&mut live, len_ns / 2, SUB_WINDOWS / 2, true);
    let calls = sink.counters().since(&calls_before);
    layers::put_trace_segments(rec, spec, &sink);
    layers::put_trace_overhead(rec, spec, &reference, &traced);
    layers::put_backend_share(rec, spec, &calls, traced.wall_ns());
    layers::put_engine_window(rec, spec, &engine_before, &engine_after);
    // A closed loop is never late and has no backlog: the generator
    // submits the moment a window resolves.
    rec.put1(spec, "loadgen.late_p99_us", 0.0);
    rec.put1(spec, "loadgen.backlog_max", 0.0);
    rec.put1(spec, "loadgen.slot_stall_share", 0.0);
    rec.put1(
        spec,
        "loadgen.cpu_share",
        generator_cpu_ns as f64 / reference.cpu_ns().max(1) as f64,
    );
    live.phases.put(rec, spec, args.workload);
    let slot_list = live.driver.slots.clone();
    finish(live, rec);
    micro::engine_submit(rec, spec, G2, &slot_list, &args.scale);
    micro::common(rec, spec, args);
    layers::write_trace_file(args, &sink)
}
