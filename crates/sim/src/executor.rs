//! The deterministic executor.
//!
//! One function, [`simulate`], runs a whole engine lifetime — submits,
//! parked retries, fault injection, drain — as a single-threaded loop
//! over the one simulated engine (an [`EngineCore`] and its
//! [`ShardCore`]s on a virtual clock, the engine behind [`NetSim`]
//! too). Its steps are the production engine's atomic units:
//!
//! * **Slice(k)** — submitter `k` runs the next shard slice of its open
//!   submit under that shard's lock, first opening a submit of up to
//!   [`SimParams::batch`] of its events if it has none. The
//!   [`SimParams::shards`] submitters each own the events of a
//!   source-disjoint part of the trace, split by source port (on a
//!   graph, by source node) and not by shard, so two submitters meet
//!   on one shard as two reactor threads do while each source keeps
//!   its order. The trace is the arrival order: a submit opens only at
//!   an event within `2 × batch` of the earliest unsubmitted one. That
//!   lookahead is a restriction the shrinker imposes, not a model of
//!   production: wider ones make order-dependent failures that a
//!   re-seeded shrink cannot keep (DESIGN.md §wdm-sim).
//! * **Retry(s)** — shard `s`'s retry thread wakes: if its earliest
//!   parked connect is not yet due the virtual clock moves on to it,
//!   then every due one is retried. Submitters keep running meanwhile.
//! * **Inject** — the next scripted fault fires through a real
//!   [`FaultHandle`].
//!
//! At every step the scheduler picks among the enabled steps with one
//! [`ChoiceStream`] decision. No wall clock, no threads, no sockets —
//! the same seed replays the same interleaving, bit for bit, including
//! every backoff and deadline.
//!
//! [`EngineCore`]: wdm_runtime::EngineCore
//! [`ShardCore`]: wdm_runtime::ShardCore
//! [`FaultHandle`]: wdm_runtime::FaultHandle
//! [`NetSim`]: crate::NetSim

use crate::engine::{source_port, Job, SimEngine};
use crate::schedule::ChoiceStream;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use wdm_net::serving::Engine;
use wdm_runtime::{Backend, OutcomeCallback, RequestOutcome, RuntimeConfig, RuntimeReport};
use wdm_workload::chaos::{FaultAction, TimedFault};
use wdm_workload::TimedEvent;

/// How the executor resolves scheduling choices.
pub enum Scheduler<'a> {
    /// Always run the highest-priority enabled step: finish the open
    /// submit, retry what is due, inject, open the submit holding the
    /// earliest unsubmitted event, and only then let a retry thread
    /// sleep the clock forward. With a one-event window (or one shard)
    /// this is the serial reference semantics — every event fully
    /// processed, in trace order, faults fired at their trace position.
    Serial,
    /// Draw every decision from a seeded [`ChoiceStream`].
    Random(&'a mut ChoiceStream),
}

/// Executor shape: shard and submitter count plus the engine tunables.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Number of engine shards, and of submitters.
    pub shards: usize,
    /// Submission window: each submit takes up to this many consecutive
    /// events of its submitter, and each of its shard slices is applied
    /// through [`ShardCore::handle_batch`] under one backend lock. `1`
    /// (the default) submits event by event. A window never crosses a
    /// fault's eligibility point, so fault ordering relative to the
    /// trace is the same for every window.
    ///
    /// [`ShardCore::handle_batch`]: wdm_runtime::ShardCore::handle_batch
    pub batch: usize,
    /// Engine tunables (deadline, backoff, retry budget). `workers` and
    /// `snapshot_every` are ignored — the executor owns scheduling.
    pub runtime: RuntimeConfig,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            shards: 4,
            batch: 1,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Everything one simulated run produced.
#[derive(Debug)]
pub struct SimRun<B> {
    /// Terminal outcome of each trace event, by trace index. `None`
    /// means the event never resolved — itself a reportable violation.
    pub outcomes: Vec<Option<RequestOutcome>>,
    /// The engine's final report (summary counters, consistency check).
    pub report: RuntimeReport<B>,
    /// Virtual seconds the run spanned (only parked retries advance it).
    pub virtual_secs: f64,
}

/// One submitting thread: its unsubmitted events and its open submit.
#[derive(Default)]
struct Submitter {
    /// Trace indices of its events not yet submitted, in trace order.
    events: VecDeque<usize>,
    /// The open submit's slices not yet run, in shard order.
    slices: VecDeque<(usize, Vec<Job>)>,
}

/// Run `trace` (and scripted `faults`) against `backend` under one
/// deterministic interleaving. A fault becomes eligible once every
/// submitter's next event is at or past its timestamp (or the trace is
/// exhausted); the scheduler decides exactly when it fires within its
/// eligibility window.
pub fn simulate<B: Backend>(
    backend: B,
    trace: &[TimedEvent],
    faults: &[TimedFault],
    params: &SimParams,
    mut sched: Scheduler<'_>,
) -> SimRun<B> {
    let k = params.shards.max(1);
    let batch = params.batch.max(1);
    // The sources of one graph node share its fibers, so which of them
    // blocks depends on their order: there a submitter owns whole
    // nodes, and the serial oracle keeps its meaning.
    let group = match backend.label() {
        "graph" => backend.ports_per_module().max(1),
        _ => 1,
    };
    let engine = SimEngine::new(backend, k, params.runtime.clone());
    let shards = &engine.shards;
    let handle = engine.fault_handle();
    let outcomes: Arc<Mutex<Vec<Option<RequestOutcome>>>> =
        Arc::new(Mutex::new(vec![None; trace.len()]));
    // A Fibonacci hash of the source port (node) picks the submitter,
    // so the sources one shard serves spread over the submitters.
    let owner: Vec<usize> = trace
        .iter()
        .map(|ev| {
            let key = u64::from(source_port(&ev.event) / group);
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % k
        })
        .collect();
    let mut submitters: Vec<Submitter> = (0..k).map(|_| Submitter::default()).collect();
    for (i, &s) in owner.iter().enumerate() {
        submitters[s].events.push_back(i);
    }
    let mut next_fault = 0usize;

    #[derive(Clone, Copy)]
    enum Action {
        Slice(usize),
        Retry(usize),
        Inject,
    }

    let mut actions: Vec<Action> = Vec::new();
    let mut sleeping = Vec::new();
    loop {
        // Enumerate enabled steps in a fixed priority order; the serial
        // scheduler always takes the first.
        actions.clear();
        sleeping.clear();
        for (s, sub) in submitters.iter().enumerate() {
            if !sub.slices.is_empty() {
                actions.push(Action::Slice(s));
            }
        }
        for (s, wait) in shards.parked_waits() {
            match wait.is_zero() {
                true => actions.push(Action::Retry(s)),
                false => sleeping.push((wait, s)),
            }
        }
        let earliest = submitters
            .iter()
            .filter_map(|s| s.events.front())
            .min()
            .copied();
        if let Some(fault) = faults.get(next_fault) {
            if earliest.is_none_or(|i| trace[i].time >= fault.time) {
                actions.push(Action::Inject);
            }
        }
        if let Some(e) = earliest {
            // Submits open in arrival order, within the lookahead.
            for i in e..(e + 2 * batch).min(trace.len()) {
                let sub = &submitters[owner[i]];
                if sub.slices.is_empty() && sub.events.front() == Some(&i) {
                    actions.push(Action::Slice(owner[i]));
                }
            }
        }
        sleeping.sort_unstable();
        actions.extend(sleeping.iter().map(|&(_, s)| Action::Retry(s)));
        if actions.is_empty() {
            break;
        }

        let pick = match &mut sched {
            Scheduler::Serial => 0,
            Scheduler::Random(choices) => choices.choose(actions.len()),
        };
        match actions[pick] {
            Action::Slice(s) => {
                let sub = &mut submitters[s];
                if sub.slices.is_empty() {
                    // First event unconditionally, then extend the
                    // window — but never past a fault's eligibility
                    // point, so the injection fires at the same trace
                    // position whatever the window.
                    let fault_at = faults.get(next_fault).map(|f| f.time);
                    let mut jobs = Vec::new();
                    while let Some(&i) = sub.events.front() {
                        let full =
                            jobs.len() == batch || fault_at.is_some_and(|t| trace[i].time >= t);
                        if !jobs.is_empty() && full {
                            break;
                        }
                        let slot = Arc::clone(&outcomes);
                        let done: OutcomeCallback = Box::new(move |o| slot.lock()[i] = Some(o));
                        jobs.push((trace[i].clone(), Some(done)));
                        sub.events.pop_front();
                    }
                    sub.slices = engine.split(jobs).into();
                }
                let (shard, slice) = sub.slices.pop_front().expect("an open submit");
                shards.apply(shard, slice);
            }
            Action::Retry(s) => shards.retry(s),
            Action::Inject => {
                match faults[next_fault].action {
                    FaultAction::Fail(f) => {
                        handle.inject(f);
                    }
                    FaultAction::Repair(f) => {
                        handle.repair(f);
                    }
                }
                next_fault += 1;
            }
        }
    }

    let virtual_secs = shards.secs();
    let report = engine.drain();
    let outcomes = std::mem::take(&mut *outcomes.lock());
    SimRun {
        outcomes,
        report,
        virtual_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
    use wdm_fabric::CrossbarSession;
    use wdm_workload::TraceEvent;

    fn crossbar() -> CrossbarSession {
        CrossbarSession::new(NetworkConfig::new(4, 1), MulticastModel::Msw)
    }

    fn ev(time: f64, event: TraceEvent) -> TimedEvent {
        TimedEvent { time, event }
    }

    fn conn(src: u32, dst: u32) -> MulticastConnection {
        MulticastConnection::unicast(Endpoint::new(src, 0), Endpoint::new(dst, 0))
    }

    #[test]
    fn serial_roundtrip_admits_and_departs() {
        let trace = vec![
            ev(0.0, TraceEvent::Connect(conn(0, 2))),
            ev(1.0, TraceEvent::Disconnect(Endpoint::new(0, 0))),
        ];
        let run = simulate(
            crossbar(),
            &trace,
            &[],
            &SimParams::default(),
            Scheduler::Serial,
        );
        assert_eq!(run.outcomes[0], Some(RequestOutcome::Admitted));
        assert_eq!(run.outcomes[1], Some(RequestOutcome::Departed));
        assert!(run.report.is_clean());
        assert_eq!(run.report.summary.active, 0);
        assert_eq!(run.virtual_secs, 0.0, "nothing parked ⇒ no virtual time");
    }

    #[test]
    fn busy_conflict_is_absorbed_by_virtual_retry() {
        // Both sources want dst 2 on a *closed* trace. Two submitters
        // may admit either first — the loser parks — but the
        // retry loop must absorb the conflict under every schedule, and
        // every event must resolve exactly as the serial order does.
        let trace = vec![
            ev(0.0, TraceEvent::Connect(conn(0, 2))),
            ev(1.0, TraceEvent::Disconnect(Endpoint::new(0, 0))),
            ev(1.1, TraceEvent::Connect(conn(1, 2))),
            ev(2.0, TraceEvent::Disconnect(Endpoint::new(1, 0))),
        ];
        for seed in 0..50 {
            let mut cs = ChoiceStream::new(seed);
            let run = simulate(
                crossbar(),
                &trace,
                &[],
                &SimParams::default(),
                Scheduler::Random(&mut cs),
            );
            assert_eq!(run.outcomes[0], Some(RequestOutcome::Admitted), "{seed}");
            assert_eq!(run.outcomes[1], Some(RequestOutcome::Departed), "{seed}");
            assert_eq!(run.outcomes[2], Some(RequestOutcome::Admitted), "{seed}");
            assert_eq!(run.outcomes[3], Some(RequestOutcome::Departed), "{seed}");
            assert!(run.report.is_clean(), "{seed}: {:?}", run.report.errors);
            assert_eq!(run.report.summary.expired, 0, "{seed}");
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let trace = vec![
            ev(0.0, TraceEvent::Connect(conn(0, 2))),
            ev(0.1, TraceEvent::Connect(conn(1, 3))),
            ev(1.0, TraceEvent::Disconnect(Endpoint::new(0, 0))),
            ev(1.1, TraceEvent::Disconnect(Endpoint::new(1, 0))),
        ];
        let run_with = |seed: u64| {
            let mut cs = ChoiceStream::new(seed);
            let run = simulate(
                crossbar(),
                &trace,
                &[],
                &SimParams::default(),
                Scheduler::Random(&mut cs),
            );
            (run.outcomes.clone(), cs.fingerprint(), run.virtual_secs)
        };
        assert_eq!(run_with(7), run_with(7));
    }

    #[test]
    fn unclosed_trace_expires_at_the_virtual_deadline() {
        // src 0 never departs, so src 1's rival connect must expire —
        // and the virtual clock must show at least the deadline passed,
        // in microseconds of wall time.
        let trace = vec![
            ev(0.0, TraceEvent::Connect(conn(0, 2))),
            ev(0.1, TraceEvent::Connect(conn(1, 2))),
        ];
        let params = SimParams {
            shards: 2,
            runtime: RuntimeConfig {
                max_retries: u32::MAX,
                ..RuntimeConfig::default()
            },
            ..SimParams::default()
        };
        let run = simulate(crossbar(), &trace, &[], &params, Scheduler::Serial);
        assert_eq!(run.outcomes[1], Some(RequestOutcome::Expired));
        let deadline = params.runtime.deadline.as_secs_f64();
        assert!(
            run.virtual_secs >= deadline,
            "stall ran to the deadline: {} < {deadline}",
            run.virtual_secs
        );
        assert!(
            run.virtual_secs <= deadline + params.runtime.max_backoff.as_secs_f64() + 1e-6,
            "deadline bounds the stall: {}",
            run.virtual_secs
        );
    }
}
