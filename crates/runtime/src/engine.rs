//! The sharded admission engine.
//!
//! Events are partitioned across shards by the *input module* of their
//! source endpoint, so all events touching one source are handled in
//! order by one shard (a connect can never race its own disconnect).
//! A shard is a lock, not a thread: every `submit*` locks the target
//! shard's [`ShardCore`] and admits its slice on the calling thread, so
//! the submit returns with every verdict it could reach delivered. Each
//! shard keeps one thread, `wdm-shard-{i}`, for the one job no caller
//! can do: retrying parked connects when their backoff elapses.
//! Callbacks therefore run on the submitting thread or on a retry
//! thread; never submit from inside a callback, or while holding a lock
//! that a callback takes.
//!
//! Each shard validates, retries, and meters locally; only the actual
//! switch mutation touches the shared backend — exclusively (under the
//! write side of the backend `RwLock`) for plain backends, or truly
//! concurrently (under the read side, through
//! [`ConcurrentAdmission`](crate::backend::ConcurrentAdmission)) for
//! backends that admit from `&self`, such as
//! `wdm_multistage::ConcurrentThreeStage`. Fault injection, repack, and
//! drain always take the write side, which doubles as the
//! stop-the-world epoch fine-grained backends rely on.
//!
//! Cross-shard reordering has exactly one observable effect: a connect
//! may reach the backend before the (earlier-timestamped, other-shard)
//! disconnect that frees one of its output endpoints, surfacing as
//! [`Reject::Busy`]. The engine absorbs those with bounded
//! retry-and-backoff under a per-request deadline — crucially *without*
//! stalling the shard: a busy connect is parked in a per-source pending
//! table and retried on a schedule while later events keep flowing, so
//! the departure another shard is waiting on is never stuck
//! behind a retrying head-of-line request. Middle-stage
//! exhaustion ([`Reject::Blocked`]) is never retried: with `m` at or
//! above the Theorem 1/2 bound it must not occur at all — the paper's
//! nonblocking guarantee becomes the runtime invariant `blocked == 0`.

use crate::backend::{Backend, ConcurrentAdmission, RepackStats};
use crate::clock::{Clock, SystemClock};
use crate::metrics::{MetricsSnapshot, RuntimeMetrics, Tally};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wdm_core::{Endpoint, Fault, MulticastConnection, Reject};
use wdm_workload::{TimedEvent, TraceEvent};

/// When the engine may rearrange existing routes to admit a connect
/// that hard-blocked (make-before-break moves, on backends that support
/// them — see `Backend::connect_with_repack`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepackPolicy {
    /// Never rearrange: a hard block is final. This is the theorems'
    /// regime — provisioned at or above the bound, blocks must not
    /// occur at all, so there is nothing to repack.
    #[default]
    Off,
    /// On every hard block, spend up to `budget` physical moves trying
    /// to free a middle switch for the blocked request.
    OnBlock {
        /// Maximum physical moves per blocked connect.
        budget: u32,
    },
    /// At most `budget` physical moves per window of `window` offered
    /// connects (tracked per shard). Budget left over after blocks is
    /// also spent compacting the fabric after departures, so capacity
    /// defragments passively between blocking episodes.
    BudgetPerWindow {
        /// Maximum physical moves per window.
        budget: u32,
        /// Window length in offered connects per shard (`0` acts as 1).
        window: u32,
    },
}

/// Adaptive load shedding under sustained hard blocking.
///
/// Each shard keeps a saturating pressure counter: +1 per hard block,
/// −1 per admission. While pressure sits at or above the threshold,
/// incoming connects whose fanout is at most `shed_max_fanout` are
/// refused immediately with the retryable
/// [`RequestOutcome::Overloaded`] instead of being attempted (and
/// likely parked to starve) against a congested fabric. Narrow requests
/// are shed first because they are the cheapest for the client to
/// retry and free the least capacity by succeeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadControl {
    /// Shed once shard-local pressure reaches this many net blocks.
    pub pressure_threshold: u32,
    /// Only connects with fanout at or below this are shed.
    pub shed_max_fanout: usize,
}

/// Tuning knobs for an engine run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Shards, each a lock plus one retry thread. `0` = one per
    /// available CPU.
    pub workers: usize,
    /// Maximum retry attempts for a busy-endpoint conflict.
    pub max_retries: u32,
    /// First retry delay; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget per request, retries included.
    pub deadline: Duration,
    /// Emit a [`MetricsSnapshot`] this often while running.
    pub snapshot_every: Option<Duration>,
    /// Whether (and how hard) to rearrange existing routes when a
    /// connect hard-blocks below the nonblocking bound.
    pub repack: RepackPolicy,
    /// Early shedding of low-fanout connects under sustained blocking
    /// (`None` = never shed; every request is attempted).
    pub overload: Option<OverloadControl>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        // Parked requests cost one lock probe per backoff tick and never
        // block their shard, so the attempt cap is generous and the
        // deadline is the binding limit: a replayed trace compresses sim
        // time to wall-clock milliseconds, and a busy endpoint stays busy
        // until the occupant's departure is submitted.
        RuntimeConfig {
            workers: 0,
            max_retries: 4096,
            initial_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
            snapshot_every: None,
            repack: RepackPolicy::Off,
            overload: None,
        }
    }
}

impl RuntimeConfig {
    /// Resolve `workers == 0` to the host's parallelism.
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Whether [`AdmissionEngine::submit`] actually took the event.
///
/// The engine refuses new work once a drain has begun (either
/// [`AdmissionEngine::begin_drain`] was called or the engine is being
/// consumed by [`AdmissionEngine::drain`]). Callers that front the
/// engine with a network protocol map [`SubmitOutcome::Draining`] to a
/// retryable "server is shutting down" error instead of silently
/// dropping the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Draining outcome means the event was NOT admitted"]
pub enum SubmitOutcome {
    /// The event was applied by its shard: resolved, or parked behind a
    /// busy endpoint for the shard's retry thread.
    Accepted,
    /// The engine is draining; the event was dropped.
    Draining,
}

impl SubmitOutcome {
    /// `true` iff the event was taken.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted)
    }
}

/// Terminal fate of one tracked request, reported through the
/// [`OutcomeCallback`] passed to [`AdmissionEngine::submit_tracked`].
///
/// Exactly one of these fires per tracked event: on the submitting
/// thread before the submit returns, or on the shard's retry thread
/// when the event parked on a busy endpoint or waited behind a parked
/// connect from its own source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Connect admitted by the backend.
    Admitted,
    /// Connect refused: middle-stage exhaustion (the theorems' event).
    Blocked,
    /// Connect refused: a required component is failed.
    ComponentDown,
    /// Connect gave up after exhausting its retry budget or deadline.
    Expired,
    /// Connect or disconnect hit a structural error.
    Fatal,
    /// Disconnect completed.
    Departed,
    /// Disconnect for a source whose admission previously failed.
    SkippedDeparture,
    /// Disconnect for a connection a failed heal already removed.
    OrphanedDeparture,
    /// The engine is draining; the event was never applied.
    Draining,
    /// Connect refused early: the shard is shedding low-fanout load
    /// under sustained blocking pressure (see [`OverloadControl`]).
    /// Retryable — pressure subsides as connections depart.
    Overloaded,
}

/// Completion hook for one tracked event. Runs under the shard lock, on
/// the submitting thread or on the shard's retry thread; keep it short
/// (enqueue a response, bump a counter). It must not submit to the
/// engine, and must not take a lock its submitter holds across the
/// submit: either deadlocks.
pub type OutcomeCallback = Box<dyn FnOnce(RequestOutcome) + Send + 'static>;

/// One unit of shard work: the event plus an optional completion
/// callback for callers (like the TCP serving layer) that need the
/// admission outcome written back per request.
struct Job {
    ev: TimedEvent,
    done: Option<OutcomeCallback>,
}

impl Job {
    /// Fire the callback, if any, with this job's terminal outcome.
    fn resolve(done: Option<OutcomeCallback>, outcome: RequestOutcome) {
        if let Some(cb) = done {
            cb(outcome);
        }
    }

    /// Resolve every job as [`RequestOutcome::Draining`].
    fn refuse(jobs: Vec<Job>) -> SubmitOutcome {
        for job in jobs {
            Job::resolve(job.done, RequestOutcome::Draining);
        }
        SubmitOutcome::Draining
    }

    fn source(&self) -> Endpoint {
        match &self.ev.event {
            TraceEvent::Connect(conn) => conn.source(),
            TraceEvent::Disconnect(src) => *src,
        }
    }
}

/// Everything known after a graceful drain.
#[derive(Debug)]
pub struct RuntimeReport<B> {
    /// The backend, returned for inspection (final assignment, loads…).
    pub backend: B,
    /// Final counters/histograms after all shards quiesced.
    pub summary: MetricsSnapshot,
    /// Periodic snapshots, if `snapshot_every` was set.
    pub snapshots: Vec<MetricsSnapshot>,
    /// Backend consistency findings (empty = healthy).
    pub consistency: Vec<String>,
    /// First few error messages noted by the shards.
    pub errors: Vec<String>,
    /// Shards killed by a panic in the backend or a callback. Any panic
    /// means events were dropped unresolved, so the run cannot be clean.
    pub worker_panics: usize,
}

impl<B> RuntimeReport<B> {
    /// The run is healthy: every shard drained, no structural errors,
    /// and a consistent backend.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0 && self.summary.fatal == 0 && self.consistency.is_empty()
    }

    /// The most recent point-in-time view of the run: the last periodic
    /// snapshot when the observer emitted any, otherwise the final
    /// summary. Runs whose snapshot interval exceeded their duration
    /// produce no periodic snapshots, so `snapshots.last().unwrap()`
    /// would panic — this accessor is always safe.
    pub fn last_snapshot(&self) -> &MetricsSnapshot {
        self.snapshots.last().unwrap_or(&self.summary)
    }
}

/// Bounded seqlock retries for a lock-free gauge read against a
/// concurrent backend; past this the (possibly torn) values are
/// accepted rather than stalling the observer behind a paused commit.
const MAX_SNAPSHOT_RETRIES: u32 = 64;

/// Read the `(active, middle_loads)` gauges from a backend held under
/// (at least) the read lock. For concurrent backends the commit-epoch
/// seqlock guards against torn reads: retry while a fine-grained commit
/// overlaps the read, counting each retry into
/// `RuntimeMetrics::snapshot_retries`.
fn read_gauges<B: Backend>(b: &B, metrics: &RuntimeMetrics) -> (u64, Vec<u64>) {
    let Some(c) = b.as_concurrent() else {
        return (b.active_connections() as u64, b.middle_loads());
    };
    for _ in 0..MAX_SNAPSHOT_RETRIES {
        let (_, finished_before) = c.commit_epoch();
        let active = c.active_shared() as u64;
        let loads = c.middle_loads_shared();
        let (started_after, _) = c.commit_epoch();
        if finished_before == started_after {
            return (active, loads);
        }
        metrics.snapshot_retries.fetch_add(1, Ordering::Relaxed);
    }
    (c.active_shared() as u64, c.middle_loads_shared())
}

/// The shared heart of an engine: the backend under its reader-writer
/// lock, the metrics sink, and the failed-heal tombstone set.
///
/// [`AdmissionEngine`] wraps one of these with shard locks and retry
/// threads; the deterministic simulation harness (`wdm-sim`) drives
/// the same core single-threaded through hand-built [`ShardCore`]s, so
/// both paths exercise *identical* admission logic.
pub struct EngineCore<B: Backend> {
    backend: Arc<RwLock<B>>,
    metrics: Arc<RuntimeMetrics>,
    /// Sources whose connection a failed heal already removed: their
    /// scheduled departure must be swallowed, not sent to the backend.
    dead_sources: Arc<Mutex<HashSet<Endpoint>>>,
    ports_per_module: u32,
}

impl<B: Backend> EngineCore<B> {
    /// Take ownership of `backend` and set up the shared state.
    pub fn new(backend: B) -> Self {
        let ports_per_module = backend.ports_per_module().max(1);
        let metrics = Arc::new(RuntimeMetrics::new(backend.wavelengths()));
        EngineCore {
            backend: Arc::new(RwLock::new(backend)),
            metrics,
            dead_sources: Arc::new(Mutex::new(HashSet::new())),
            ports_per_module,
        }
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// Ports per input module of the backend (≥ 1).
    pub fn ports_per_module(&self) -> u32 {
        self.ports_per_module
    }

    /// Shard index for a source port among `shards` shards: all ports of
    /// one input module map to one shard.
    pub fn shard_of(&self, port: u32, shards: usize) -> usize {
        (port / self.ports_per_module) as usize % shards.max(1)
    }

    /// A fault-injection handle holding the backend weakly (usable after
    /// the core is finished; injections then become no-ops).
    pub fn fault_handle(&self) -> FaultHandle<B> {
        FaultHandle {
            backend: Arc::downgrade(&self.backend),
            metrics: Arc::clone(&self.metrics),
            dead_sources: Arc::clone(&self.dead_sources),
        }
    }

    /// Mint one shard driving this core on `clock`.
    ///
    /// The shard submits through the read lock (fine-grained concurrent
    /// admission) when the backend offers [`ConcurrentAdmission`] and
    /// repack is off; repack needs exclusive make-before-break moves, so
    /// any repack policy pins the shard to the write-locked path.
    pub fn shard<C: Clock>(&self, cfg: RuntimeConfig, clock: C) -> ShardCore<B, C> {
        let shared_mode = matches!(cfg.repack, RepackPolicy::Off)
            && self.backend.read().as_concurrent().is_some();
        let wavelengths = self.backend.read().wavelengths().max(1);
        ShardCore {
            backend: Arc::clone(&self.backend),
            shared_mode,
            metrics: Arc::clone(&self.metrics),
            dead_sources: Arc::clone(&self.dead_sources),
            cfg,
            clock,
            wavelengths,
            live_since: Vec::new(),
            never_admitted: HashSet::new(),
            parked: HashMap::new(),
            tally: Tally::new(wavelengths),
            pressure: 0,
            window_seen: 0,
            window_spent: 0,
        }
    }

    /// Point-in-time snapshot at `elapsed_secs` on the caller's clock.
    /// Never blocks admissions on a concurrent backend: the gauges are
    /// read under the read lock through the commit-epoch seqlock.
    pub fn snapshot(&self, elapsed_secs: f64) -> MetricsSnapshot {
        let (active, loads) = {
            let b = self.backend.read();
            read_gauges(&*b, &self.metrics)
        };
        self.metrics.snapshot(elapsed_secs, active, loads)
    }

    /// Clone of the backend handle, for observers that poll gauges.
    fn backend_arc(&self) -> Arc<RwLock<B>> {
        Arc::clone(&self.backend)
    }

    /// Reclaim the backend and produce the final report. Every
    /// [`ShardCore`] minted from this core must have been dropped;
    /// [`FaultHandle`]s may live on (they hold the backend weakly).
    pub fn finish(self, elapsed_secs: f64) -> RuntimeReport<B> {
        let backend = Arc::try_unwrap(self.backend)
            .unwrap_or_else(|_| panic!("all shards dropped; no other backend handles"))
            .into_inner();
        let consistency = backend.check();
        let summary = self.metrics.snapshot(
            elapsed_secs,
            backend.active_connections() as u64,
            backend.middle_loads(),
        );
        RuntimeReport {
            backend,
            summary,
            snapshots: Vec::new(),
            consistency,
            errors: self.metrics.errors(),
            worker_panics: 0,
        }
    }
}

/// One engine shard: its core behind the lock that submitters and the
/// retry thread take in turn, and the condvar that wakes the retry
/// thread.
struct Shard<B: Backend> {
    state: std::sync::Mutex<ShardState<B>>,
    retry: Condvar,
}

struct ShardState<B: Backend> {
    core: ShardCore<B, SystemClock>,
    /// The engine is draining or dropped: the retry thread exits once
    /// nothing is parked.
    stopping: bool,
    /// A panic escaped the backend or a callback; the shard refuses all
    /// later work.
    dead: bool,
}

impl<B: Backend> Shard<B> {
    /// The shard's state. Backend and callback panics are caught inside
    /// [`ShardState::run`], which flags the shard dead, so no panic can
    /// leave the state half-updated under a poisoned lock.
    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState<B>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<B: Backend> ShardState<B> {
    /// Run `f` on the core unless the shard is dead; returns whether it
    /// is still alive. A panic kills the shard, not the calling thread
    /// (a reactor thread serves thousands of other connections): it is
    /// counted as fatal, and the drain reports it as a worker panic.
    fn run(&mut self, f: impl FnOnce(&mut ShardCore<B, SystemClock>)) -> bool {
        if !self.dead && catch_unwind(AssertUnwindSafe(|| f(&mut self.core))).is_err() {
            self.dead = true;
            let metrics = &self.core.metrics;
            metrics.note_error("shard worker panicked".into());
            metrics.fatal.fetch_add(1, Ordering::Relaxed);
        }
        !self.dead
    }
}

/// The engine's shards. Dropping the set, drained or not, tells every
/// retry thread to exit once nothing is parked.
struct Shards<B: Backend>(Vec<Arc<Shard<B>>>);

impl<B: Backend> Drop for Shards<B> {
    fn drop(&mut self) {
        for shard in &self.0 {
            shard.lock().stopping = true;
            shard.retry.notify_one();
        }
    }
}

/// A shard's retry thread: sleep until the earliest parked connect is
/// due, retry, repeat. `next_due` is read under the lock a parking
/// submitter holds, and the wait releases that lock atomically, so no
/// wakeup is lost.
fn retry_loop<B: Backend>(shard: &Shard<B>) {
    let mut state = shard.lock();
    loop {
        let mut due = None;
        if !state.run(|core| {
            core.retry_due();
            due = core.next_due();
        }) {
            return;
        }
        state = match due {
            Some(wait) => {
                let waited = shard.retry.wait_timeout(state, wait);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
            None if state.stopping => return,
            None => shard
                .retry
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// A running sharded admission engine over backend `B`.
pub struct AdmissionEngine<B: Backend> {
    core: EngineCore<B>,
    shards: Shards<B>,
    /// Set by [`Self::begin_drain`]; makes every later submit refuse.
    draining: AtomicBool,
    /// One retry thread per shard, in shard order.
    retriers: Vec<JoinHandle<()>>,
    observer: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    snapshots: Arc<Mutex<Vec<MetricsSnapshot>>>,
    started: Instant,
}

impl<B: Backend> AdmissionEngine<B> {
    /// Take ownership of `backend` and set up the shards and their retry
    /// threads (plus the snapshot observer when configured). Reached
    /// through [`EngineBuilder::start`].
    fn start_with(backend: B, config: RuntimeConfig) -> Self {
        let core = EngineCore::new(backend);
        let started = Instant::now();

        let shards: Vec<Arc<Shard<B>>> = (0..config.effective_workers())
            .map(|_| {
                Arc::new(Shard {
                    state: std::sync::Mutex::new(ShardState {
                        core: core.shard(config.clone(), SystemClock),
                        stopping: false,
                        dead: false,
                    }),
                    retry: Condvar::new(),
                })
            })
            .collect();
        let retriers = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("wdm-shard-{i}"))
                    .spawn(move || retry_loop(&shard))
                    .expect("spawn shard retry thread")
            })
            .collect();

        let snapshots = Arc::new(Mutex::new(Vec::new()));
        let observer = config.snapshot_every.map(|every| {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let backend = core.backend_arc();
            let metrics = Arc::clone(&core.metrics);
            let log = Arc::clone(&snapshots);
            let handle = std::thread::Builder::new()
                .name("wdm-observer".into())
                .spawn(move || {
                    while !flag.load(Ordering::Relaxed) {
                        std::thread::sleep(every);
                        let (active, loads) = {
                            let b = backend.read();
                            read_gauges(&*b, &metrics)
                        };
                        let snap = metrics.snapshot(started.elapsed().as_secs_f64(), active, loads);
                        log.lock().push(snap);
                    }
                })
                .expect("spawn observer");
            (stop, handle)
        });

        AdmissionEngine {
            core,
            shards: Shards(shards),
            draining: AtomicBool::new(false),
            retriers,
            observer,
            snapshots,
            started,
        }
    }

    /// A handle for injecting and repairing faults while the engine runs.
    /// The handle holds only a weak reference to the backend, so it can
    /// outlive the engine (injections after [`Self::drain`] are no-ops).
    pub fn fault_handle(&self) -> FaultHandle<B> {
        self.core.fault_handle()
    }

    /// Number of shards this engine runs. Serving layers size their own
    /// parallelism (e.g. reactor shards) against this so coalesced
    /// submissions spread across every shard lock.
    pub fn shard_count(&self) -> usize {
        self.shards.0.len()
    }

    /// Admit one event on the calling thread. [`SubmitOutcome::Draining`]
    /// means the engine refused it (a drain has begun) and the event was
    /// dropped.
    pub fn submit(&self, event: TimedEvent) -> SubmitOutcome {
        self.admit(vec![Job {
            ev: event,
            done: None,
        }])
    }

    /// Admit one event with a completion callback. The callback fires
    /// exactly once with the request's terminal [`RequestOutcome`]:
    /// before this call returns (with [`RequestOutcome::Draining`] when
    /// the engine refuses the event), or later on the shard's retry
    /// thread when the connect parked behind a busy endpoint. See
    /// [`OutcomeCallback`] for what the callback must not do. This is the
    /// hook the TCP serving layer uses to write admission outcomes back
    /// to remote clients.
    pub fn submit_tracked(&self, event: TimedEvent, done: OutcomeCallback) -> SubmitOutcome {
        self.admit(vec![Job {
            ev: event,
            done: Some(done),
        }])
    }

    /// Admit a batch of events on the calling thread. The batch is split
    /// by shard (preserving per-source order) and each shard applies its
    /// slice under **one** backend lock acquisition — the fast path for
    /// pipelined network clients and trace replay.
    ///
    /// Admission semantics per event are identical to [`Self::submit`]
    /// called in order; only the locking is amortized. The whole batch
    /// is refused together when the engine is draining.
    pub fn submit_batch(&self, events: Vec<TimedEvent>) -> SubmitOutcome {
        self.admit(
            events
                .into_iter()
                .map(|ev| Job { ev, done: None })
                .collect(),
        )
    }

    /// [`Self::submit_batch`] with one completion callback per event
    /// (same order). Every callback fires exactly once.
    ///
    /// # Panics
    ///
    /// When `events` and `done` differ in length.
    pub fn submit_batch_tracked(
        &self,
        events: Vec<TimedEvent>,
        done: Vec<OutcomeCallback>,
    ) -> SubmitOutcome {
        assert_eq!(events.len(), done.len(), "one callback per batched event");
        self.admit(
            events
                .into_iter()
                .zip(done)
                .map(|(ev, cb)| Job { ev, done: Some(cb) })
                .collect(),
        )
    }

    /// Split `jobs` by shard and run each slice under its shard lock on
    /// this thread. A slice that parks a connect wakes the retry thread.
    fn admit(&self, jobs: Vec<Job>) -> SubmitOutcome {
        if self.draining.load(Ordering::Acquire) {
            return Job::refuse(jobs);
        }
        let shards = &self.shards.0;
        let mut per_shard: Vec<Vec<Job>> = shards.iter().map(|_| Vec::new()).collect();
        for job in jobs {
            let port = job.source().port.0;
            per_shard[self.core.shard_of(port, shards.len())].push(job);
        }
        let mut outcome = SubmitOutcome::Accepted;
        for (shard, slice) in shards.iter().zip(per_shard) {
            if slice.is_empty() {
                continue;
            }
            let mut state = shard.lock();
            if state.dead {
                outcome = Job::refuse(slice);
                continue;
            }
            let parked = state.core.parked_len();
            if state.run(|core| core.handle_jobs(slice)) && state.core.parked_len() > parked {
                shard.retry.notify_one();
            }
        }
        outcome
    }

    /// Non-consuming drain signal: stop accepting new events without
    /// tearing the engine down. Every subsequent [`Self::submit`] /
    /// [`Self::submit_tracked`] returns [`SubmitOutcome::Draining`];
    /// parked connects still run to completion. A server that owns the
    /// engine calls this first (so remote clients get clean "draining"
    /// refusals), then [`Self::drain`] to collect the report.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// `true` once [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Submit a whole pre-generated trace, one event at a time.
    pub fn run_events(&self, events: impl IntoIterator<Item = TimedEvent>) {
        for e in events {
            let _ = self.submit(e);
        }
    }

    /// Live metrics handle (counters update while the engine runs).
    pub fn metrics(&self) -> &RuntimeMetrics {
        self.core.metrics()
    }

    /// Snapshot right now without draining.
    pub fn snapshot_now(&self) -> MetricsSnapshot {
        self.core.snapshot(self.started.elapsed().as_secs_f64())
    }

    /// Graceful shutdown: stop accepting events, let every retry thread
    /// resolve what is parked, join all threads, deep-check the backend,
    /// and hand it back with the final telemetry.
    pub fn drain(mut self) -> RuntimeReport<B> {
        self.begin_drain();
        let shards = self.shards.0.clone();
        // Dropping the set stops each retry thread once nothing is parked.
        drop(self.shards);
        let mut worker_panics = 0usize;
        for (shard, retrier) in shards.iter().zip(self.retriers.drain(..)) {
            if retrier.join().is_err() || shard.lock().dead {
                worker_panics += 1;
            }
        }
        drop(shards);
        if let Some((stop, handle)) = self.observer.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }

        let mut report = self.core.finish(self.started.elapsed().as_secs_f64());
        report.snapshots = std::mem::take(&mut *self.snapshots.lock());
        report.worker_panics = worker_panics;
        report
    }
}

/// Fluent construction of an [`AdmissionEngine`].
///
/// The only way to start an engine (the old positional
/// `AdmissionEngine::start(backend, config)` is gone): every knob is
/// named, unset knobs keep the [`RuntimeConfig`] defaults, and the
/// backend arrives last.
///
/// ```
/// use std::time::Duration;
/// use wdm_core::{MulticastModel, NetworkConfig};
/// use wdm_fabric::CrossbarSession;
/// use wdm_runtime::EngineBuilder;
///
/// let backend = CrossbarSession::new(NetworkConfig::new(8, 2), MulticastModel::Msw);
/// let engine = EngineBuilder::new()
///     .shards(2)
///     .deadline(Duration::from_secs(1))
///     .start(backend);
/// let report = engine.drain();
/// assert!(report.is_clean());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: RuntimeConfig,
}

impl EngineBuilder {
    /// A builder with every knob at its [`RuntimeConfig`] default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopt an existing config wholesale (the migration path from the
    /// deprecated positional `start`).
    pub fn from_config(config: RuntimeConfig) -> Self {
        EngineBuilder { config }
    }

    /// Number of shards; `0` = one per available CPU.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.workers = shards;
        self
    }

    /// Wall-clock budget per request, retries included.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Busy-retry policy: attempt cap, first delay, and delay ceiling.
    pub fn retry_policy(
        mut self,
        max_retries: u32,
        initial_backoff: Duration,
        max_backoff: Duration,
    ) -> Self {
        self.config.max_retries = max_retries;
        self.config.initial_backoff = initial_backoff;
        self.config.max_backoff = max_backoff;
        self
    }

    /// Emit a periodic [`MetricsSnapshot`] while running.
    pub fn observe_every(mut self, every: Duration) -> Self {
        self.config.snapshot_every = Some(every);
        self
    }

    /// Rearrange existing routes to admit hard-blocked connects,
    /// according to `policy` (default: [`RepackPolicy::Off`]).
    pub fn repack_policy(mut self, policy: RepackPolicy) -> Self {
        self.config.repack = policy;
        self
    }

    /// Shed low-fanout connects early under sustained blocking
    /// pressure (default: never shed).
    pub fn overload_control(mut self, control: OverloadControl) -> Self {
        self.config.overload = Some(control);
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Take ownership of `backend` and spin up the shards.
    pub fn start<B: Backend>(self, backend: B) -> AdmissionEngine<B> {
        AdmissionEngine::start_with(backend, self.config)
    }
}

/// The per-fault summary [`FaultHandle::inject`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealOutcome {
    /// Live connections the fault evicted.
    pub connections_hit: usize,
    /// Evictees re-admitted on surviving hardware.
    pub healed: usize,
    /// Evictees the degraded fabric could not re-admit.
    pub heal_failed: usize,
}

/// Injects faults into a running engine and heals the traffic they hit.
///
/// Injection, teardown of the victims, and their re-admission happen
/// under one *write* acquisition of the backend lock, so shards observe
/// the failure atomically: either the old route or the healed one, never
/// a half-torn state. On a concurrent backend the write lock is the
/// stop-the-world epoch — every fine-grained `&self` admission runs
/// under the read side, so none is in flight while the fault applies.
/// Holds the backend weakly — after [`AdmissionEngine::drain`] reclaims
/// the backend, injections return the empty outcome.
pub struct FaultHandle<B: Backend> {
    backend: Weak<RwLock<B>>,
    metrics: Arc<RuntimeMetrics>,
    dead_sources: Arc<Mutex<HashSet<Endpoint>>>,
}

impl<B: Backend> Clone for FaultHandle<B> {
    fn clone(&self) -> Self {
        FaultHandle {
            backend: Weak::clone(&self.backend),
            metrics: Arc::clone(&self.metrics),
            dead_sources: Arc::clone(&self.dead_sources),
        }
    }
}

impl<B: Backend> FaultHandle<B> {
    /// Fail `fault`, tear down the connections traversing it, and try to
    /// re-admit each on the surviving hardware. Connections that cannot
    /// be re-admitted are gone; their eventual departure events are
    /// swallowed as `orphaned_departures` rather than erroring.
    pub fn inject(&self, fault: Fault) -> HealOutcome {
        let Some(backend) = self.backend.upgrade() else {
            return HealOutcome::default();
        };
        let mut b = backend.write();
        let t_inject = Instant::now();
        self.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
        let victims = b.inject_fault(fault);
        let mut outcome = HealOutcome {
            connections_hit: victims.len(),
            ..HealOutcome::default()
        };
        self.metrics
            .connections_hit
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        for conn in victims {
            let src = conn.source();
            match b.connect(&conn) {
                Ok(()) => {
                    outcome.healed += 1;
                    self.metrics.healed.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .heal_latency_ns
                        .record(t_inject.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                Err(e) => {
                    outcome.heal_failed += 1;
                    self.metrics.heal_failed.fetch_add(1, Ordering::Relaxed);
                    // The connection went live once (gauge up at admit)
                    // and will never depart through the backend.
                    self.metrics.wavelength_down(src.wavelength.0 as usize);
                    self.metrics
                        .note_error(format!("heal of {src} after {fault} failed: {e}"));
                    self.dead_sources.lock().insert(src);
                }
            }
        }
        outcome
    }

    /// Repair `fault`; `true` if it was failed before. Already-lost
    /// connections are not resurrected — only future admissions benefit.
    pub fn repair(&self, fault: Fault) -> bool {
        let Some(backend) = self.backend.upgrade() else {
            return false;
        };
        let repaired = backend.write().repair_fault(fault);
        if repaired {
            self.metrics.faults_repaired.fetch_add(1, Ordering::Relaxed);
        }
        repaired
    }
}

/// A connect's retry state: what each admission attempt takes, and what
/// a connect parked after a busy-endpoint conflict keeps — plus any
/// same-source events that arrived while it was parked (its own
/// departure, possibly a successor connect), which must replay in order
/// once it resolves.
struct Parked {
    conn: MulticastConnection,
    sim_time: f64,
    /// Clock stamp of the slice that made the first attempt.
    t0: Instant,
    attempts: u32,
    backoff: Duration,
    next_try: Instant,
    /// Completion callback of the parked connect, fired on resolution.
    done: Option<OutcomeCallback>,
    deferred: VecDeque<Job>,
}

/// How one lock scope reaches the backend: exclusively (the classic
/// write-locked path, `&mut B`) or shared (a concurrent backend
/// admitting through `&self` under the read lock, so many shards
/// mutate simultaneously).
///
/// Shared mode exists only with [`RepackPolicy::Off`], so the
/// repack-flavored calls can never be reached there; they degrade to
/// no-ops rather than panic to keep the type total.
enum BackendRef<'a, B: Backend> {
    Excl(&'a mut B),
    Shared(&'a dyn ConcurrentAdmission),
}

impl<B: Backend> BackendRef<'_, B> {
    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        match self {
            BackendRef::Excl(b) => b.connect(conn),
            BackendRef::Shared(c) => c.connect_shared(conn),
        }
    }

    fn disconnect(&mut self, src: Endpoint) -> Result<(), Reject> {
        match self {
            BackendRef::Excl(b) => b.disconnect(src),
            BackendRef::Shared(c) => c.disconnect_shared(src),
        }
    }

    fn connect_with_repack(
        &mut self,
        conn: &MulticastConnection,
        budget: u32,
    ) -> (Result<(), Reject>, RepackStats) {
        match self {
            BackendRef::Excl(b) => b.connect_with_repack(conn, budget),
            BackendRef::Shared(c) => (c.connect_shared(conn), RepackStats::default()),
        }
    }

    fn defragment(&mut self, budget: u32) -> RepackStats {
        match self {
            BackendRef::Excl(b) => b.defragment(budget),
            BackendRef::Shared(_) => RepackStats::default(),
        }
    }
}

/// Per-shard state and bookkeeping, generic over its time source.
///
/// Minted by [`EngineCore::shard`]. The engine keeps one of these per
/// shard behind a lock, on [`SystemClock`]; the simulation harness drives
/// the same type single-threaded on a virtual clock via
/// [`ShardCore::handle_event`] / [`ShardCore::retry_due`] /
/// [`ShardCore::next_due`].
pub struct ShardCore<B: Backend, C: Clock> {
    backend: Arc<RwLock<B>>,
    /// `true` when this shard submits through [`ConcurrentAdmission`]
    /// under the read lock instead of taking the write lock (decided at
    /// mint time: concurrent backend + repack off).
    shared_mode: bool,
    metrics: Arc<RuntimeMetrics>,
    /// Shared with [`FaultHandle`]: sources a failed heal removed.
    dead_sources: Arc<Mutex<HashSet<Endpoint>>>,
    cfg: RuntimeConfig,
    clock: C,
    /// Wavelengths per fiber: the stride of `live_since`.
    wavelengths: u32,
    /// Connect sim-time of each admitted source (for holding time),
    /// indexed by `port·k + λ`; grows to the highest source admitted.
    live_since: Vec<Option<f64>>,
    /// Sources whose admission failed; their paired departure must be
    /// swallowed rather than hit the backend.
    never_admitted: HashSet<Endpoint>,
    /// Busy connects awaiting retry, keyed by source endpoint.
    parked: HashMap<Endpoint, Parked>,
    /// The current slice's hot-path counters, published when it ends.
    tally: Tally,
    /// Saturating overload pressure: +1 per hard block, −1 per admit.
    pressure: u32,
    /// Offered connects seen in the current repack window
    /// ([`RepackPolicy::BudgetPerWindow`] only).
    window_seen: u32,
    /// Physical repack moves spent in the current repack window.
    window_spent: u32,
}

impl<B: Backend, C: Clock> ShardCore<B, C> {
    /// Apply one event, optionally tracked by a completion callback.
    /// Never sleeps: a busy connect parks instead of blocking the shard.
    pub fn handle_event(&mut self, ev: TimedEvent, done: Option<OutcomeCallback>) {
        self.slice(self.clock.now(), |shard, b, now| {
            shard.handle_with(b, Job { ev, done }, now)
        });
    }

    /// Apply a batch of events under **one** backend lock acquisition.
    ///
    /// Outcomes are identical to calling [`Self::handle_event`] on each
    /// entry in order (parking, deferral, and retry bookkeeping
    /// included) — only the locking and the clock stamp are amortized.
    pub fn handle_batch(&mut self, batch: Vec<(TimedEvent, Option<OutcomeCallback>)>) {
        self.handle_jobs(
            batch
                .into_iter()
                .map(|(ev, done)| Job { ev, done })
                .collect(),
        );
    }

    /// One slice: run `f` against the backend under one acquisition of
    /// the shard's lock discipline — the read lock (fine-grained
    /// concurrent submission) in shared mode, the write lock (exclusive
    /// mutation) otherwise — then publish the slice's tally once the
    /// backend lock is released. `now` is the slice's one clock stamp,
    /// read by the caller before the lock and handed to `f`: every event
    /// of the slice is stamped with it. Every way into the shard
    /// (`handle_event`, `handle_batch`, the engine's submits, and
    /// `retry_due` with its deferred tails) is one slice.
    fn slice(&mut self, now: Instant, f: impl FnOnce(&mut Self, &mut BackendRef<'_, B>, Instant)) {
        let backend = Arc::clone(&self.backend);
        if self.shared_mode {
            let guard = backend.read();
            let c = guard
                .as_concurrent()
                .expect("shared mode implies a concurrent backend");
            f(self, &mut BackendRef::Shared(c), now);
        } else {
            let mut guard = backend.write();
            f(self, &mut BackendRef::Excl(&mut *guard), now);
        }
        self.tally.publish(&self.metrics);
    }

    fn handle_jobs(&mut self, jobs: Vec<Job>) {
        self.slice(self.clock.now(), |shard, b, now| {
            for job in jobs {
                shard.handle_with(b, job, now);
            }
        });
    }

    /// Number of busy connects currently parked awaiting retry.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Apply one job against an already-locked backend, stamped `now`.
    fn handle_with(&mut self, b: &mut BackendRef<'_, B>, job: Job, now: Instant) {
        let src = job.source();
        // Events behind a parked same-source connect must wait for it so
        // per-source order survives. (A deferred connect counts as
        // offered only when it actually replays.)
        if !self.parked.is_empty() {
            if let Some(p) = self.parked.get_mut(&src) {
                p.deferred.push_back(job);
                return;
            }
        }
        let Job { ev, done } = job;
        match ev.event {
            TraceEvent::Connect(conn) => {
                self.tally.offered += 1;
                self.roll_repack_window();
                if self.should_shed(&conn) {
                    self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                    self.never_admitted.insert(src);
                    Job::resolve(done, RequestOutcome::Overloaded);
                    return;
                }
                let first = Parked {
                    conn,
                    sim_time: ev.time,
                    t0: now,
                    attempts: 0,
                    backoff: self.cfg.initial_backoff,
                    next_try: now,
                    done,
                    deferred: VecDeque::new(),
                };
                // A first attempt has no deferred tail to replay.
                self.try_connect_with(b, first, now);
            }
            TraceEvent::Disconnect(src) => self.do_disconnect_with(b, src, ev.time, done),
        }
    }

    /// One admission attempt against an already-locked backend, stamped
    /// `now`. On busy the connect (re-)parks with backoff, its deferred
    /// tail attached, and `None` is returned; otherwise its callback
    /// fires and its deferred tail is returned for replay.
    fn try_connect_with(
        &mut self,
        b: &mut BackendRef<'_, B>,
        mut p: Parked,
        now: Instant,
    ) -> Option<VecDeque<Job>> {
        let src = p.conn.source();
        let budget = self.repack_budget();
        let res = if budget == 0 {
            b.connect(&p.conn)
        } else {
            let t_repack = Instant::now();
            let (res, stats) = b.connect_with_repack(&p.conn, budget);
            if stats.moves_attempted > 0 {
                self.metrics
                    .repack_latency_ns
                    .record(t_repack.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            self.spend_repack(&stats);
            res
        };
        let waited = now.saturating_duration_since(p.t0);
        let outcome = match res {
            Ok(()) => {
                self.tally.admitted += 1;
                self.tally
                    .record_admit_wait(waited.as_nanos().min(u64::MAX as u128) as u64);
                self.tally.wavelength_up(src.wavelength.0 as usize);
                if let Some(since) = self.live_since_of(src) {
                    *since = Some(p.sim_time);
                }
                self.pressure = self.pressure.saturating_sub(1);
                RequestOutcome::Admitted
            }
            Err(Reject::Busy(e)) => {
                if p.attempts >= self.cfg.max_retries || waited >= self.cfg.deadline {
                    self.metrics.expired.fetch_add(1, Ordering::Relaxed);
                    self.metrics.note_error(format!(
                        "request {src} expired after {} retries: {e}",
                        p.attempts
                    ));
                    self.never_admitted.insert(src);
                    RequestOutcome::Expired
                } else {
                    if p.attempts > 0 {
                        self.metrics.retried.fetch_add(1, Ordering::Relaxed);
                    }
                    p.attempts += 1;
                    p.next_try = now + p.backoff;
                    p.backoff = (p.backoff * 2).min(self.cfg.max_backoff);
                    self.parked.insert(src, p);
                    return None;
                }
            }
            Err(Reject::Blocked { .. }) => {
                self.metrics.blocked.fetch_add(1, Ordering::Relaxed);
                self.never_admitted.insert(src);
                self.pressure = self.pressure.saturating_add(1);
                RequestOutcome::Blocked
            }
            Err(Reject::ComponentDown(_)) => {
                // Only a repair can change the answer; retrying would just
                // burn the deadline. Not a block either — the fabric had
                // capacity, a component was dead.
                self.metrics.component_down.fetch_add(1, Ordering::Relaxed);
                self.never_admitted.insert(src);
                RequestOutcome::ComponentDown
            }
            Err(other) => {
                self.metrics.fatal.fetch_add(1, Ordering::Relaxed);
                self.metrics.note_error(format!("connect {src}: {other}"));
                self.never_admitted.insert(src);
                RequestOutcome::Fatal
            }
        };
        Job::resolve(p.done, outcome);
        Some(p.deferred)
    }

    /// One departure against an already-locked backend. Taking `dead_sources` while the backend is held matches the
    /// backend → dead_sources order [`FaultHandle::inject`] uses, so the
    /// nesting cannot deadlock.
    fn do_disconnect_with(
        &mut self,
        b: &mut BackendRef<'_, B>,
        src: Endpoint,
        sim_time: f64,
        done: Option<OutcomeCallback>,
    ) {
        if !self.never_admitted.is_empty() && self.never_admitted.remove(&src) {
            self.metrics
                .skipped_departures
                .fetch_add(1, Ordering::Relaxed);
            Job::resolve(done, RequestOutcome::SkippedDeparture);
            return;
        }
        // A failed heal already removed this connection. Heals count
        // their failures under the backend lock before filling
        // `dead_sources`, so while the count is zero the set is empty.
        let heals_failed = self.metrics.heal_failed.load(Ordering::Relaxed) > 0;
        if heals_failed && self.dead_sources.lock().remove(&src) {
            self.live_since_of(src).and_then(Option::take);
            self.metrics
                .orphaned_departures
                .fetch_add(1, Ordering::Relaxed);
            Job::resolve(done, RequestOutcome::OrphanedDeparture);
            return;
        }
        match b.disconnect(src) {
            Ok(()) => {
                self.tally.departed += 1;
                self.tally.wavelength_down(src.wavelength.0 as usize);
                if let Some(since) = self.live_since_of(src).and_then(Option::take) {
                    let micros = ((sim_time - since) * 1e6).max(0.0);
                    self.tally.record_holding(micros as u64);
                }
                // Passive defragmentation: a departure just freed
                // capacity, so leftover window budget compacts the
                // packing now, before the next connect can block.
                if matches!(self.cfg.repack, RepackPolicy::BudgetPerWindow { .. }) {
                    let remaining = self.repack_budget();
                    if remaining > 0 {
                        let stats = b.defragment(remaining);
                        self.spend_repack(&stats);
                    }
                }
                Job::resolve(done, RequestOutcome::Departed);
            }
            Err(e) => {
                self.metrics.fatal.fetch_add(1, Ordering::Relaxed);
                self.metrics.note_error(format!("disconnect {src}: {e}"));
                Job::resolve(done, RequestOutcome::Fatal);
            }
        }
    }

    /// `src`'s slot in `live_since`, growing the table to reach it;
    /// `None` for a wavelength out of range.
    fn live_since_of(&mut self, src: Endpoint) -> Option<&mut Option<f64>> {
        let k = self.wavelengths;
        if src.wavelength.0 >= k {
            return None;
        }
        let i = src.port.0 as usize * k as usize + src.wavelength.0 as usize;
        if i >= self.live_since.len() {
            self.live_since.resize(i + 1, None);
        }
        self.live_since.get_mut(i)
    }

    /// `true` iff overload control is on, shard pressure is at the
    /// threshold, and this connect is narrow enough to shed.
    fn should_shed(&self, conn: &MulticastConnection) -> bool {
        self.cfg.overload.is_some_and(|oc| {
            self.pressure >= oc.pressure_threshold
                && conn.destinations().len() <= oc.shed_max_fanout
        })
    }

    /// Advance the per-window move budget
    /// ([`RepackPolicy::BudgetPerWindow`] only): count this offered
    /// connect and reset the spend at each window boundary.
    fn roll_repack_window(&mut self) {
        if let RepackPolicy::BudgetPerWindow { window, .. } = self.cfg.repack {
            self.window_seen += 1;
            if self.window_seen >= window.max(1) {
                self.window_seen = 0;
                self.window_spent = 0;
            }
        }
    }

    /// Physical moves the active policy still allows right now.
    fn repack_budget(&self) -> u32 {
        match self.cfg.repack {
            RepackPolicy::Off => 0,
            RepackPolicy::OnBlock { budget } => budget,
            RepackPolicy::BudgetPerWindow { budget, .. } => {
                budget.saturating_sub(self.window_spent)
            }
        }
    }

    /// Meter the moves one repack or defragment attempt consumed.
    fn spend_repack(&mut self, stats: &RepackStats) {
        self.metrics
            .repack_moves_attempted
            .fetch_add(stats.moves_attempted as u64, Ordering::Relaxed);
        self.metrics
            .repack_moves_committed
            .fetch_add(stats.moves_committed as u64, Ordering::Relaxed);
        self.metrics
            .repack_moves_aborted
            .fetch_add(stats.moves_aborted as u64, Ordering::Relaxed);
        if matches!(self.cfg.repack, RepackPolicy::BudgetPerWindow { .. }) {
            self.window_spent = self.window_spent.saturating_add(stats.moves_attempted);
        }
    }

    /// Retry every parked connect whose backoff elapsed, in one slice;
    /// replay deferred same-source events for the ones that resolved.
    pub fn retry_due(&mut self) {
        let now = self.clock.now();
        let due: Vec<Endpoint> = self
            .parked
            .iter()
            .filter(|(_, p)| p.next_try <= now)
            .map(|(src, _)| *src)
            .collect();
        if due.is_empty() {
            return;
        }
        self.slice(now, |shard, b, now| {
            for src in due {
                let p = shard.parked.remove(&src).expect("due entry present");
                // Resolved (admitted, expired, blocked, or fatal): the
                // deferred events run now, in order. A deferred connect
                // that goes busy re-parks, and the rest of the tail
                // defers behind it.
                for job in shard.try_connect_with(b, p, now).into_iter().flatten() {
                    shard.handle_with(b, job, now);
                }
            }
        });
    }

    /// Time until the earliest parked retry is due ([`Duration::ZERO`]
    /// when one is due right now).
    pub fn next_due(&self) -> Option<Duration> {
        let now = self.clock.now();
        self.parked
            .values()
            .map(|p| p.next_try.saturating_duration_since(now))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{MulticastConnection, MulticastModel, NetworkConfig};
    use wdm_fabric::CrossbarSession;
    use wdm_workload::DynamicTraffic;

    fn engine_on_crossbar(workers: usize) -> AdmissionEngine<CrossbarSession> {
        let backend = CrossbarSession::new(NetworkConfig::new(8, 2), MulticastModel::Msw);
        EngineBuilder::new().shards(workers).start(backend)
    }

    #[test]
    fn empty_drain_is_clean() {
        let report = engine_on_crossbar(2).drain();
        assert!(report.is_clean());
        assert_eq!(report.summary.offered, 0);
        assert_eq!(report.backend.assignment().len(), 0);
    }

    #[test]
    fn single_event_roundtrip() {
        let engine = engine_on_crossbar(1);
        let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
        let _ = engine.submit(TimedEvent {
            time: 0.5,
            event: TraceEvent::Connect(conn),
        });
        let _ = engine.submit(TimedEvent {
            time: 1.5,
            event: TraceEvent::Disconnect(Endpoint::new(0, 0)),
        });
        let report = engine.drain();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.summary.offered, 1);
        assert_eq!(report.summary.admitted, 1);
        assert_eq!(report.summary.departed, 1);
        assert_eq!(report.summary.active, 0);
        assert!(report.summary.mean_holding > 0.9 && report.summary.mean_holding < 1.1);
    }

    /// `generate` truncates departures past the horizon, leaving a few
    /// connections that never release their endpoints. Under unpaced
    /// sharded replay such an immortal occupant can starve an
    /// earlier-timestamped rival forever, so tests that expect full
    /// admission must close the trace: append the missing departures.
    fn close_trace(events: &mut Vec<TimedEvent>, tail_time: f64) {
        let mut live = std::collections::HashSet::new();
        for e in events.iter() {
            match &e.event {
                TraceEvent::Connect(c) => live.insert(c.source()),
                TraceEvent::Disconnect(s) => live.remove(s),
            };
        }
        let mut tail: Vec<Endpoint> = live.into_iter().collect();
        tail.sort();
        events.extend(tail.into_iter().map(|src| TimedEvent {
            time: tail_time,
            event: TraceEvent::Disconnect(src),
        }));
    }

    #[test]
    fn dynamic_traffic_on_crossbar_admits_everything() {
        // The crossbar is strictly nonblocking and the trace is
        // pre-validated, so with enough retry budget every request must
        // land even with aggressive sharding.
        let net = NetworkConfig::new(8, 2);
        let mut events =
            DynamicTraffic::new(net, MulticastModel::Msw, 6.0, 1.0, 2, 11).generate(60.0);
        assert!(!events.is_empty());
        close_trace(&mut events, 61.0);
        let engine = engine_on_crossbar(4);
        engine.run_events(events.clone());
        let report = engine.drain();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.summary.blocked, 0);
        assert_eq!(report.summary.expired, 0, "{:?}", report.errors);
        let connects = events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Connect(_)))
            .count() as u64;
        assert_eq!(report.summary.offered, connects);
        assert_eq!(report.summary.admitted, connects);
        assert_eq!(report.summary.departed, report.summary.admitted);
        assert_eq!(report.summary.active, 0);
    }

    #[test]
    fn snapshot_observer_emits() {
        let backend = CrossbarSession::new(NetworkConfig::new(8, 2), MulticastModel::Msw);
        let engine = EngineBuilder::new()
            .shards(2)
            .observe_every(Duration::from_millis(5))
            .start(backend);
        let events = DynamicTraffic::new(
            NetworkConfig::new(8, 2),
            MulticastModel::Msw,
            4.0,
            1.0,
            2,
            3,
        )
        .generate(40.0);
        engine.run_events(events);
        std::thread::sleep(Duration::from_millis(30));
        let report = engine.drain();
        assert!(!report.snapshots.is_empty());
        let last = report.last_snapshot();
        assert!(last.elapsed_secs > 0.0);
    }

    #[test]
    fn last_snapshot_without_observer_falls_back_to_summary() {
        // Snapshot interval longer than the run: no periodic snapshots.
        // last_snapshot must degrade gracefully instead of panicking.
        let engine = engine_on_crossbar(1);
        let _ = engine.submit(TimedEvent {
            time: 0.0,
            event: TraceEvent::Connect(MulticastConnection::unicast(
                Endpoint::new(0, 0),
                Endpoint::new(1, 0),
            )),
        });
        let report = engine.drain();
        assert!(report.snapshots.is_empty());
        assert_eq!(report.last_snapshot(), &report.summary);
        assert_eq!(report.last_snapshot().admitted, 1);
    }

    #[test]
    fn begin_drain_refuses_new_events_but_finishes_queued_ones() {
        let engine = engine_on_crossbar(2);
        let a = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
        assert!(engine
            .submit(TimedEvent {
                time: 0.0,
                event: TraceEvent::Connect(a),
            })
            .is_accepted());
        engine.begin_drain();
        assert!(engine.is_draining());
        let b = MulticastConnection::unicast(Endpoint::new(2, 0), Endpoint::new(3, 0));
        assert_eq!(
            engine.submit(TimedEvent {
                time: 0.1,
                event: TraceEvent::Connect(b),
            }),
            SubmitOutcome::Draining
        );
        let report = engine.drain();
        assert!(report.is_clean(), "{:?}", report.errors);
        // Only the pre-drain event was processed.
        assert_eq!(report.summary.offered, 1);
        assert_eq!(report.summary.admitted, 1);
    }

    #[test]
    fn tracked_submit_reports_outcomes() {
        use std::sync::mpsc;
        let engine = engine_on_crossbar(2);
        let (tx, rx) = mpsc::channel();
        let send = |tx: &mpsc::Sender<(u32, RequestOutcome)>, tag: u32| {
            let tx = tx.clone();
            Box::new(move |o| tx.send((tag, o)).unwrap()) as OutcomeCallback
        };
        let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
        let _ = engine.submit_tracked(
            TimedEvent {
                time: 0.0,
                event: TraceEvent::Connect(conn),
            },
            send(&tx, 1),
        );
        let _ = engine.submit_tracked(
            TimedEvent {
                time: 1.0,
                event: TraceEvent::Disconnect(Endpoint::new(0, 0)),
            },
            send(&tx, 2),
        );
        // A disconnect for a source that was never connected.
        let _ = engine.submit_tracked(
            TimedEvent {
                time: 2.0,
                event: TraceEvent::Disconnect(Endpoint::new(5, 0)),
            },
            send(&tx, 3),
        );
        let mut got: Vec<(u32, RequestOutcome)> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(got[0], (1, RequestOutcome::Admitted));
        assert_eq!(got[1], (2, RequestOutcome::Departed));
        // Unknown source surfaces as Fatal (real bookkeeping violation).
        assert_eq!(got[2].0, 3);
        assert_eq!(got[2].1, RequestOutcome::Fatal);
        engine.begin_drain();
        // Tracked submits after begin_drain resolve inline as Draining.
        let conn2 = MulticastConnection::unicast(Endpoint::new(6, 0), Endpoint::new(7, 0));
        let _ = engine.submit_tracked(
            TimedEvent {
                time: 3.0,
                event: TraceEvent::Connect(conn2),
            },
            send(&tx, 4),
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            (4, RequestOutcome::Draining)
        );
        engine.drain();
    }

    /// Run one event through a hand-driven shard and return its outcome
    /// (all the events these tests submit resolve synchronously).
    fn outcome_of<B: Backend>(
        shard: &mut ShardCore<B, SystemClock>,
        time: f64,
        event: TraceEvent,
    ) -> RequestOutcome {
        let (tx, rx) = std::sync::mpsc::channel();
        shard.handle_event(
            TimedEvent { time, event },
            Some(Box::new(move |o| {
                let _ = tx.send(o);
            })),
        );
        rx.try_recv().expect("event resolves synchronously")
    }

    /// The manufactured squeeze from the multistage repack tests: two λ0
    /// squatters leave FirstFit no middle for a λ0 request from input
    /// module 0 to output module 0 until one squatter moves.
    fn squeezed_three_stage() -> wdm_multistage::ThreeStageNetwork {
        use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};
        let p = ThreeStageParams::new(2, 2, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        net.set_fanout_limit(1);
        net.connect(&MulticastConnection::unicast(
            Endpoint::new(0, 0),
            Endpoint::new(2, 0),
        ))
        .unwrap();
        net.inject_fault(Fault::MiddleSwitch(0));
        net.connect(&MulticastConnection::unicast(
            Endpoint::new(3, 0),
            Endpoint::new(1, 0),
        ))
        .unwrap();
        net.repair_fault(Fault::MiddleSwitch(0));
        net
    }

    #[test]
    fn repack_policy_admits_a_connect_that_firstfit_blocks() {
        let victim = MulticastConnection::unicast(Endpoint::new(1, 0), Endpoint::new(0, 0));

        // Policy off (the default): the hard block is final.
        let core = EngineCore::new(squeezed_three_stage());
        let mut shard = core.shard(RuntimeConfig::default(), SystemClock);
        assert_eq!(
            outcome_of(&mut shard, 0.0, TraceEvent::Connect(victim.clone())),
            RequestOutcome::Blocked
        );
        assert_eq!(
            core.metrics()
                .repack_moves_attempted
                .load(Ordering::Relaxed),
            0
        );

        // On-block repack: the same request admits via make-before-break
        // and the move counters and latency histogram record the work.
        let core = EngineCore::new(squeezed_three_stage());
        let cfg = RuntimeConfig {
            repack: RepackPolicy::OnBlock { budget: 2 },
            ..RuntimeConfig::default()
        };
        let mut shard = core.shard(cfg, SystemClock);
        assert_eq!(
            outcome_of(&mut shard, 0.0, TraceEvent::Connect(victim)),
            RequestOutcome::Admitted
        );
        let m = core.metrics();
        assert!(m.repack_moves_committed.load(Ordering::Relaxed) >= 1);
        assert_eq!(
            m.repack_moves_attempted.load(Ordering::Relaxed),
            m.repack_moves_committed.load(Ordering::Relaxed)
                + m.repack_moves_aborted.load(Ordering::Relaxed)
        );
        assert!(m.repack_latency_ns.count() >= 1);
        drop(shard);
        let report = core.finish(0.0);
        assert!(report.consistency.is_empty(), "{:?}", report.consistency);
        assert_eq!(report.summary.admitted, 1);
        assert_eq!(report.summary.blocked, 0);
    }

    #[test]
    fn overload_shedding_refuses_low_fanout_under_pressure() {
        use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};
        // m=1: a λ0 occupant on the only middle makes every further λ0
        // connect from input module 0 a hard block.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        let core = EngineCore::new(net);
        let cfg = RuntimeConfig {
            overload: Some(OverloadControl {
                pressure_threshold: 1,
                shed_max_fanout: 1,
            }),
            ..RuntimeConfig::default()
        };
        let mut shard = core.shard(cfg, SystemClock);
        let unicast = |s: (u32, u32), d: (u32, u32)| {
            TraceEvent::Connect(MulticastConnection::unicast(
                Endpoint::new(s.0, s.1),
                Endpoint::new(d.0, d.1),
            ))
        };
        // Occupant admits; pressure stays 0.
        assert_eq!(
            outcome_of(&mut shard, 0.0, unicast((0, 0), (2, 0))),
            RequestOutcome::Admitted
        );
        // First λ0 rival hard-blocks; pressure rises to the threshold.
        assert_eq!(
            outcome_of(&mut shard, 1.0, unicast((1, 0), (0, 0))),
            RequestOutcome::Blocked
        );
        // Under pressure, a unicast is shed without touching the backend…
        assert_eq!(
            outcome_of(&mut shard, 2.0, unicast((3, 1), (1, 1))),
            RequestOutcome::Overloaded
        );
        // …and its paired departure is swallowed like any failed admit.
        assert_eq!(
            outcome_of(&mut shard, 3.0, TraceEvent::Disconnect(Endpoint::new(3, 1))),
            RequestOutcome::SkippedDeparture
        );
        // A wider request is exempt from shedding and admits (λ1 is
        // free everywhere), relieving the pressure.
        let wide = MulticastConnection::new(
            Endpoint::new(2, 1),
            [Endpoint::new(0, 1), Endpoint::new(3, 1)],
        )
        .unwrap();
        assert_eq!(
            outcome_of(&mut shard, 4.0, TraceEvent::Connect(wide)),
            RequestOutcome::Admitted
        );
        // Pressure is back below the threshold: unicasts reach the
        // backend again (this one still hard-blocks on the fabric).
        assert_eq!(
            outcome_of(&mut shard, 5.0, unicast((1, 1), (2, 1))),
            RequestOutcome::Blocked
        );
        let m = core.metrics();
        assert_eq!(m.offered.load(Ordering::Relaxed), 5);
        assert_eq!(m.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(m.blocked.load(Ordering::Relaxed), 2);
        assert_eq!(m.overloaded.load(Ordering::Relaxed), 1);
        assert_eq!(m.skipped_departures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_per_window_defragments_after_departures() {
        use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};
        // Pack two branches on each middle, then depart one from middle
        // 0: the leftover window budget migrates the straggler onto the
        // (strictly busier) middle 1, draining middle 0 completely.
        let p = ThreeStageParams::new(2, 2, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        let uc = |s: (u32, u32), d: (u32, u32)| {
            MulticastConnection::unicast(Endpoint::new(s.0, s.1), Endpoint::new(d.0, d.1))
        };
        net.connect(&uc((0, 0), (2, 0))).unwrap(); // middle 0
        net.connect(&uc((1, 1), (0, 1))).unwrap(); // middle 0
        net.inject_fault(Fault::MiddleSwitch(0));
        net.connect(&uc((2, 0), (3, 0))).unwrap(); // middle 1
        net.connect(&uc((3, 1), (2, 1))).unwrap(); // middle 1
        net.repair_fault(Fault::MiddleSwitch(0));

        let core = EngineCore::new(net);
        let cfg = RuntimeConfig {
            repack: RepackPolicy::BudgetPerWindow {
                budget: 4,
                window: 100,
            },
            ..RuntimeConfig::default()
        };
        let mut shard = core.shard(cfg, SystemClock);
        assert_eq!(
            outcome_of(&mut shard, 0.0, TraceEvent::Disconnect(Endpoint::new(0, 0))),
            RequestOutcome::Departed
        );
        assert!(
            core.metrics()
                .repack_moves_committed
                .load(Ordering::Relaxed)
                >= 1
        );
        drop(shard);
        let report = core.finish(0.0);
        assert!(report.consistency.is_empty(), "{:?}", report.consistency);
        assert_eq!(report.backend.middle_loads(), vec![0, 3]);
    }

    #[test]
    fn builder_threads_repack_and_overload_knobs() {
        let b = EngineBuilder::new()
            .repack_policy(RepackPolicy::OnBlock { budget: 3 })
            .overload_control(OverloadControl {
                pressure_threshold: 8,
                shed_max_fanout: 2,
            });
        assert_eq!(b.config().repack, RepackPolicy::OnBlock { budget: 3 });
        assert_eq!(
            b.config().overload,
            Some(OverloadControl {
                pressure_threshold: 8,
                shed_max_fanout: 2,
            })
        );
        // The default stays conservative: no rearrangement, no shedding.
        let d = RuntimeConfig::default();
        assert_eq!(d.repack, RepackPolicy::Off);
        assert_eq!(d.overload, None);
    }

    #[test]
    fn live_metrics_visible_mid_run() {
        let engine = engine_on_crossbar(2);
        let conn = MulticastConnection::unicast(Endpoint::new(2, 1), Endpoint::new(3, 1));
        let _ = engine.submit(TimedEvent {
            time: 0.0,
            event: TraceEvent::Connect(conn),
        });
        // Wait for the shard to process it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.metrics().admitted.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "admission never happened");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = engine.snapshot_now();
        assert_eq!(snap.active, 1);
        assert_eq!(snap.wavelength_live, vec![0, 1]);
        engine.drain();
    }
}
