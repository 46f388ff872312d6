//! The one simulated engine: an [`EngineCore`] and one [`ShardCore`] per
//! shard on a shared [`VirtualClock`]. A submit splits its batch by
//! shard, keeping per-source order, and applies each slice with
//! [`ShardCore::handle_batch`] under one backend lock, as
//! `AdmissionEngine` does on the submitting thread; a `Busy` connect
//! parks until its shard retries. [`simulate`](crate::simulate) runs one
//! slice per step, [`NetSim`](crate::NetSim) one submit per serving
//! cycle through the [`Engine`] seam.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use wdm_net::serving::Engine;
use wdm_runtime::{
    Backend, EngineCore, FaultHandle, MetricsSnapshot, OutcomeCallback, RuntimeConfig,
    RuntimeReport, ShardCore, VirtualClock,
};
use wdm_workload::{TimedEvent, TraceEvent};

/// One event of a submit and its optional completion callback.
pub(crate) type Job = (TimedEvent, Option<OutcomeCallback>);

pub(crate) fn source_port(event: &TraceEvent) -> u32 {
    match event {
        TraceEvent::Connect(conn) => conn.source().port.0,
        TraceEvent::Disconnect(src) => src.port.0,
    }
}

/// The engine. Its driver steps the shards' retries through the shared
/// [`Shards`], since a serving core owns the engine itself.
pub(crate) struct SimEngine<B: Backend> {
    core: EngineCore<B>,
    /// Shard count, fixed at construction.
    n: usize,
    pub(crate) shards: Arc<Shards<B>>,
}

/// An engine's shards and their clock; the drain empties them.
pub(crate) struct Shards<B: Backend> {
    pub(crate) clock: VirtualClock,
    pub(crate) cores: Mutex<Vec<ShardCore<B, VirtualClock>>>,
}

impl<B: Backend> SimEngine<B> {
    pub(crate) fn new(backend: B, shards: usize, runtime: RuntimeConfig) -> Self {
        let core = EngineCore::new(backend);
        let clock = VirtualClock::new();
        let n = shards.max(1);
        let cores = (0..n)
            .map(|_| core.shard(runtime.clone(), clock.clone()))
            .collect();
        let cores = Mutex::new(cores);
        SimEngine {
            core,
            n,
            shards: Arc::new(Shards { clock, cores }),
        }
    }

    pub(crate) fn fault_handle(&self) -> FaultHandle<B> {
        self.core.fault_handle()
    }

    /// A submit's slices: its jobs split by shard in submission order,
    /// non-empty, in shard order.
    pub(crate) fn split(&self, jobs: Vec<Job>) -> Vec<(usize, Vec<Job>)> {
        let mut split: Vec<Vec<Job>> = (0..self.n).map(|_| Vec::new()).collect();
        for job in jobs {
            split[self.core.shard_of(source_port(&job.0.event), self.n)].push(job);
        }
        let slices = split.into_iter().enumerate();
        slices.filter(|(_, slice)| !slice.is_empty()).collect()
    }
}

impl<B: Backend> Shards<B> {
    /// Apply one slice on shard `s` under one backend lock.
    pub(crate) fn apply(&self, s: usize, slice: Vec<Job>) {
        self.cores.lock()[s].handle_batch(slice);
    }

    /// Shard `s`'s retry thread wakes: the clock moves on to its
    /// earliest parked connect if that is not yet due, and every due
    /// one is retried.
    pub(crate) fn retry(&self, s: usize) {
        let mut cores = self.cores.lock();
        if let Some(wait) = cores[s].next_due() {
            self.clock.advance(wait);
        }
        cores[s].retry_due();
    }

    /// Each shard holding parked connects, with the time until its
    /// earliest is due ([`Duration::ZERO`] when one is).
    pub(crate) fn parked_waits(&self) -> Vec<(usize, Duration)> {
        let cores = self.cores.lock();
        let waits = cores.iter().map(ShardCore::next_due).enumerate();
        waits.filter_map(|(s, wait)| Some((s, wait?))).collect()
    }

    /// The earliest parked connect's wait across the shards.
    pub(crate) fn next_due(&self) -> Option<Duration> {
        self.parked_waits().into_iter().map(|(_, wait)| wait).min()
    }

    pub(crate) fn secs(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }
}

impl<B: Backend> Engine for SimEngine<B> {
    type Backend = B;

    fn submit(&self, events: Vec<TimedEvent>, callbacks: Vec<OutcomeCallback>) {
        let jobs = events.into_iter().zip(callbacks.into_iter().map(Some));
        for (s, slice) in self.split(jobs.collect()) {
            self.shards.apply(s, slice);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot(self.shards.secs())
    }

    /// Retry everything parked, jumping the clock, until idle.
    fn drain(self) -> RuntimeReport<B> {
        let shards = &self.shards;
        loop {
            for core in shards.cores.lock().iter_mut() {
                core.retry_due();
            }
            match shards.next_due() {
                Some(wait) => shards.clock.advance(wait.max(Duration::from_nanos(1))),
                None => break,
            }
        }
        drop(std::mem::take(&mut *shards.cores.lock()));
        self.core.finish(shards.secs())
    }
}
