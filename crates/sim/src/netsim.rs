//! The serving core's simulated driver.
//!
//! [`NetSim`] drives `wdm-net`'s [`ServingCore`] — the state machine the
//! epoll reactor drives in production — over per-lane byte queues, in
//! front of a virtual-clock engine ([`EngineCore`] plus one
//! [`ShardCore`] per engine shard). A lane is one client: a script of
//! encoded frames, a window of unanswered entries, and a send buffer of
//! `SEND_BUFFER` bytes toward it. Every hop is a [`Step`]; a
//! [`ChoiceStream`] picks the step and how many bytes it moves, so
//! stalled-window schedules are a script rather than a race.

use crate::executor::source_port;
use crate::schedule::ChoiceStream;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use wdm_net::codec::{decode_response, read_frame};
use wdm_net::serving::{
    Engine, EngineSlot, ReactorConfig, ReactorMetrics, ReactorSnapshot, ServingCore,
};
use wdm_net::{Response, HEADER_LEN};
use wdm_runtime::{
    Backend, EngineCore, FaultHandle, MetricsSnapshot, OutcomeCallback, RuntimeConfig,
    RuntimeReport, ShardCore, VirtualClock,
};
use wdm_workload::TimedEvent;

/// Bytes the modelled server → client socket buffer holds.
const SEND_BUFFER: usize = 64 * 1024;

type Job = (TimedEvent, Option<OutcomeCallback>);

struct SimShard<B: Backend> {
    core: ShardCore<B, VirtualClock>,
    queue: VecDeque<Vec<Job>>,
}

type Shards<B> = Arc<Mutex<Vec<SimShard<B>>>>;

/// The [`Engine`] seam over the virtual clock: a batch splits per shard
/// and waits for a [`Step::Deliver`] to apply it under one backend lock.
struct SimEngine<B: Backend> {
    core: EngineCore<B>,
    clock: VirtualClock,
    /// Shared with the [`NetSim`]; emptied by the drain.
    shards: Shards<B>,
}

impl<B: Backend> Engine for SimEngine<B> {
    type Backend = B;

    fn submit(&self, events: Vec<TimedEvent>, callbacks: Vec<OutcomeCallback>) {
        let mut shards = self.shards.lock();
        let n = shards.len();
        let mut split: Vec<Vec<Job>> = (0..n).map(|_| Vec::new()).collect();
        for (ev, cb) in events.into_iter().zip(callbacks) {
            split[self.core.shard_of(source_port(&ev.event), n)].push((ev, Some(cb)));
        }
        for (shard, batch) in shards.iter_mut().zip(split) {
            if !batch.is_empty() {
                shard.queue.push_back(batch);
            }
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot(self.clock.elapsed().as_secs_f64())
    }

    /// Deliver and retry everything, jumping the clock, until idle.
    fn drain(self) -> RuntimeReport<B> {
        let mut shards = std::mem::take(&mut *self.shards.lock());
        loop {
            for shard in &mut shards {
                for batch in shard.queue.drain(..) {
                    shard.core.handle_batch(batch);
                }
                shard.core.retry_due();
            }
            match shards.iter().filter_map(|s| s.core.next_due()).min() {
                Some(wait) => self.clock.advance(wait.max(Duration::from_nanos(1))),
                None => break,
            }
        }
        drop(shards);
        self.core.finish(self.clock.elapsed().as_secs_f64())
    }
}

/// How a lane's client treats its connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Peer {
    /// Reads every response.
    #[default]
    Reads,
    /// Never reads a response.
    NeverReads,
    /// Reads, but shuts its sending half after its last scripted frame:
    /// the server reads EOF with that frame's answer in flight.
    HangsUp,
}

/// One schedulable hop. Lanes and engine shards are named by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The lane's client puts its next scripted frame on the wire.
    Send(usize),
    /// The server reads the lane's pending bytes, or its hang-up.
    Read(usize),
    /// End of the server's cycle: the coalesced batch goes to the engine.
    Cycle,
    /// The server writes the lane's queued responses to its send buffer.
    Write(usize),
    /// The engine shard applies its oldest submitted batch.
    Deliver(usize),
    /// The engine shard retries its due parked requests.
    Retry(usize),
    /// The lane's client reads its send buffer, decoding whole responses.
    Recv(usize),
}

/// One client connection.
#[derive(Default)]
struct Lane {
    peer: Peer,
    window: usize,
    script: VecDeque<Vec<u8>>,
    sent: usize,
    to_server: VecDeque<u8>,
    to_client: VecDeque<u8>,
    /// Bytes the client read but has not decoded into a whole frame.
    inbox: Vec<u8>,
    responses: Vec<(u8, u64, Response)>,
    /// The client shut its sending half.
    closed: bool,
    /// The server tore the connection down.
    reaped: bool,
}

impl Lane {
    fn can_send(&self) -> bool {
        !self.script.is_empty()
            && self.sent.saturating_sub(self.responses.len()) < self.window
            && !self.closed
            && !self.reaped
    }

    /// Decode every whole response frame the client has read.
    fn decode(&mut self) {
        let mut rest = self.inbox.as_slice();
        while let Ok(frame) = read_frame(&mut &*rest) {
            let resp = decode_response(&frame).expect("the server writes responses");
            rest = &rest[HEADER_LEN + frame.payload.len()..];
            self.responses.push((frame.version, frame.id, resp));
        }
        let used = self.inbox.len() - rest.len();
        self.inbox.drain(..used);
    }
}

/// The simulated serving stack: lanes of scripted clients in front of
/// one [`ServingCore`] and cooperatively scheduled engine shards.
pub struct NetSim<B: Backend> {
    slot: Arc<EngineSlot<SimEngine<B>>>,
    core: ServingCore<SimEngine<B>>,
    metrics: Arc<ReactorMetrics>,
    clock: VirtualClock,
    shards: Shards<B>,
    faults: FaultHandle<B>,
    lanes: Vec<Lane>,
}

impl<B: Backend> NetSim<B> {
    /// A serving core (default [`ReactorConfig`] caps) in front of
    /// `shards` engine shards over `backend`.
    pub fn new(backend: B, shards: usize, runtime: RuntimeConfig) -> Self {
        let core = EngineCore::new(backend);
        let clock = VirtualClock::new();
        let shards: Shards<B> = Arc::new(Mutex::new(
            (0..shards.max(1))
                .map(|_| SimShard {
                    core: core.shard(runtime.clone(), clock.clone()),
                    queue: VecDeque::new(),
                })
                .collect(),
        ));
        let faults = core.fault_handle();
        let slot = Arc::new(EngineSlot::new(SimEngine {
            core,
            clock: clock.clone(),
            shards: Arc::clone(&shards),
        }));
        let metrics = Arc::new(ReactorMetrics::new());
        let serving = ServingCore::new(
            Arc::clone(&slot),
            Arc::clone(&metrics),
            &ReactorConfig::default(),
            || {},
        );
        NetSim {
            slot,
            core: serving,
            metrics,
            clock,
            shards,
            faults,
            lanes: Vec::new(),
        }
    }

    /// Open a lane whose client keeps at most `window` entries
    /// unanswered; returns its index.
    pub fn lane(&mut self, window: usize, peer: Peer) -> usize {
        let l = self.lanes.len();
        self.lanes.push(Lane {
            peer,
            window: window.max(1),
            ..Lane::default()
        });
        self.core.open(l as u64);
        l
    }

    /// Append `bytes` (normally one encoded request frame) to lane `l`'s
    /// script.
    pub fn script(&mut self, l: usize, bytes: Vec<u8>) {
        self.lanes[l].script.push_back(bytes);
    }

    /// Every step runnable now.
    pub fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for (l, lane) in self.lanes.iter().enumerate() {
            let token = l as u64;
            if lane.can_send() {
                steps.push(Step::Send(l));
            }
            if self.core.wants_read(token) && (lane.closed || !lane.to_server.is_empty()) {
                steps.push(Step::Read(l));
            }
            if self.core.queued(token) > 0 && lane.to_client.len() < SEND_BUFFER {
                steps.push(Step::Write(l));
            }
            if lane.peer != Peer::NeverReads && !lane.to_client.is_empty() {
                steps.push(Step::Recv(l));
            }
        }
        if self.core.pending() > 0 {
            steps.push(Step::Cycle);
        }
        for (s, shard) in self.shards.lock().iter().enumerate() {
            if !shard.queue.is_empty() {
                steps.push(Step::Deliver(s));
            }
            if shard.core.next_due() == Some(Duration::ZERO) {
                steps.push(Step::Retry(s));
            }
        }
        steps
    }

    /// Run `step`, moving every byte it can.
    pub fn step(&mut self, step: Step) {
        self.apply(step, usize::MAX);
    }

    /// Run one step, and its byte budget, that `choices` pick; with none
    /// runnable, jump the clock to the next parked retry. `false` once
    /// quiescent.
    pub fn step_random(&mut self, choices: &mut ChoiceStream) -> bool {
        let steps = self.enabled();
        if steps.is_empty() {
            let wait = self.next_due();
            wait.inspect(|&d| self.advance(d));
            return wait.is_some();
        }
        let step = steps[choices.choose(steps.len())];
        let budget = match step {
            Step::Read(_) | Step::Write(_) | Step::Recv(_) => match choices.choose(3) {
                0 => 1,
                1 => 1 + choices.choose(SEND_BUFFER),
                _ => usize::MAX,
            },
            _ => usize::MAX,
        };
        self.apply(step, budget);
        true
    }

    /// Step at random until quiescent.
    pub fn run(&mut self, choices: &mut ChoiceStream) {
        while self.step_random(choices) {}
    }

    fn apply(&mut self, step: Step, budget: usize) {
        let now = self.virtual_secs();
        match step {
            Step::Send(l) => {
                let lane = &mut self.lanes[l];
                let bytes = lane.script.pop_front().expect("Send is enabled");
                lane.to_server.extend(bytes);
                lane.sent += 1;
                lane.closed = lane.peer == Peer::HangsUp && lane.script.is_empty();
            }
            Step::Read(l) => {
                let lane = &mut self.lanes[l];
                if lane.to_server.is_empty() {
                    self.core.hang_up(l as u64);
                } else {
                    let n = budget.min(lane.to_server.len());
                    let bytes: Vec<u8> = lane.to_server.drain(..n).collect();
                    self.core.on_read(l as u64, &bytes, now);
                }
            }
            Step::Cycle => self.core.flush(),
            Step::Write(l) => {
                let (lane, mut budget) = (&mut self.lanes[l], budget);
                let blocked = self.core.write(l as u64, now, |bytes| {
                    let n = budget.min(SEND_BUFFER - lane.to_client.len());
                    if n == 0 {
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    let n = n.min(bytes.len());
                    lane.to_client.extend(&bytes[..n]);
                    budget -= n;
                    Ok(n)
                });
                if blocked {
                    self.metrics.eagain_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Step::Deliver(s) => {
                let shard = &mut self.shards.lock()[s];
                if let Some(batch) = shard.queue.pop_front() {
                    shard.core.handle_batch(batch);
                }
            }
            Step::Retry(s) => self.shards.lock()[s].core.retry_due(),
            Step::Recv(l) => {
                let lane = &mut self.lanes[l];
                let n = budget.min(lane.to_client.len());
                lane.inbox.extend(lane.to_client.drain(..n));
                lane.decode();
            }
        }
        // Readiness is recomputed every step, so wakeups are moot; the
        // reactor's end-of-cycle reap, at the finest grain.
        self.core.take_woken();
        let tokens: Vec<u64> = (0..self.lanes.len() as u64).collect();
        for token in self.core.reap(&tokens) {
            let lane = &mut self.lanes[token as usize];
            lane.reaped = true;
            lane.to_server.clear();
        }
    }

    /// Lane `l`'s decoded `(wire version, request id, response)`s.
    pub fn responses(&self, l: usize) -> &[(u8, u64, Response)] {
        &self.lanes[l].responses
    }

    /// Response bytes the server holds queued for lane `l`.
    pub fn buffered(&self, l: usize) -> usize {
        self.core.queued(l as u64)
    }

    /// The serving core's counters.
    pub fn stats(&self) -> ReactorSnapshot {
        self.metrics.snapshot()
    }

    /// Requests queued at engine shard `s` (none once drained).
    pub fn queued(&self, s: usize) -> usize {
        self.shards
            .lock()
            .get(s)
            .map_or(0, |sh| sh.queue.iter().map(Vec::len).sum())
    }

    /// Parked requests on engine shard `s` (none once drained).
    pub fn parked(&self, s: usize) -> usize {
        self.shards
            .lock()
            .get(s)
            .map_or(0, |sh| sh.core.parked_len())
    }

    /// Earliest parked-retry due time across engine shards.
    pub fn next_due(&self) -> Option<Duration> {
        let shards = self.shards.lock();
        shards.iter().filter_map(|s| s.core.next_due()).min()
    }

    /// Advance the virtual clock.
    pub fn advance(&self, d: Duration) {
        self.clock.advance(d.max(Duration::from_nanos(1)));
    }

    /// Virtual seconds elapsed.
    pub fn virtual_secs(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// A fault handle on the backend (no-ops once drained).
    pub fn fault_handle(&self) -> FaultHandle<B> {
        self.faults.clone()
    }

    /// Drain the engine (unless a `Drain` frame did) and report.
    pub fn finish(self) -> RuntimeReport<B> {
        self.slot.drain();
        self.slot.take_report().expect("drained above")
    }
}
