//! The deterministic executor.
//!
//! One function, [`simulate`], runs a whole engine lifetime — submit,
//! shard processing, parked retries, fault injection, drain — as a
//! single-threaded loop over a virtual clock. The concurrent engine's
//! moving parts become *cooperatively scheduled actions*:
//!
//! * **Submit** — the client thread hands the next trace event to its
//!   shard's queue (sharding is the engine's own `shard_of`).
//! * **Deliver** — a shard pops its queue head and applies it through
//!   the very same [`ShardCore`] logic the threaded engine runs.
//! * **Retry** — a shard whose earliest parked request is due retries it.
//! * **Inject** — the next scripted fault fires through a real
//!   [`FaultHandle`].
//!
//! At every step the scheduler picks among the currently enabled actions
//! with one [`ChoiceStream`] decision; when nothing is runnable the
//! virtual clock jumps straight to the earliest parked retry. No wall
//! clock, no threads, no sockets — the same seed replays the same
//! interleaving, bit for bit, including every backoff and deadline.
//!
//! [`ShardCore`]: wdm_runtime::ShardCore
//! [`FaultHandle`]: wdm_runtime::FaultHandle

use crate::schedule::ChoiceStream;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use wdm_runtime::{
    Backend, EngineCore, RequestOutcome, RuntimeConfig, RuntimeReport, VirtualClock,
};
use wdm_workload::chaos::{FaultAction, TimedFault};
use wdm_workload::{TimedEvent, TraceEvent};

/// How the executor resolves scheduling choices.
pub enum Scheduler<'a> {
    /// Always run the highest-priority enabled action: deliver before
    /// retrying, retry before injecting, inject before submitting. With
    /// one shard this is exactly the serial reference semantics — every
    /// event fully processed, in trace order, faults fired at their
    /// trace position.
    Serial,
    /// Draw every decision from a seeded [`ChoiceStream`].
    Random(&'a mut ChoiceStream),
}

/// Executor shape: shard count plus the engine tunables.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Number of cooperatively scheduled shards.
    pub shards: usize,
    /// Submission window: each Submit step enqueues up to this many
    /// consecutive trace events, and a shard delivery drains its whole
    /// queue through [`ShardCore::handle_batch`] (one backend lock per
    /// delivery) instead of popping one event. `1` (the default) is the
    /// classic single-event executor. A window never crosses a fault's
    /// eligibility point, so fault ordering relative to the trace is
    /// identical in both modes.
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

pub(crate) fn source_port(event: &TraceEvent) -> u32 {
    match event {
        TraceEvent::Connect(conn) => conn.source().port.0,
        TraceEvent::Disconnect(src) => src.port.0,
    }
}

/// Run `trace` (and scripted `faults`) against `backend` under one
/// deterministic interleaving. A fault becomes eligible once the next
/// event to submit is at or past its timestamp (or the trace is
/// exhausted); the scheduler decides exactly when it fires within its
/// eligibility window.
pub fn simulate<B: Backend>(
    backend: B,
    trace: &[TimedEvent],
    faults: &[TimedFault],
    params: &SimParams,
    mut sched: Scheduler<'_>,
) -> SimRun<B> {
    let shards_n = params.shards.max(1);
    let batch_n = params.batch.max(1);
    let core = EngineCore::new(backend);
    let clock = VirtualClock::new();
    let mut shards: Vec<_> = (0..shards_n)
        .map(|_| core.shard(params.runtime.clone(), clock.clone()))
        .collect();
    let handle = core.fault_handle();
    let outcomes: Arc<Mutex<Vec<Option<RequestOutcome>>>> =
        Arc::new(Mutex::new(vec![None; trace.len()]));
    let mut queues: Vec<VecDeque<(usize, TimedEvent)>> = vec![VecDeque::new(); shards_n];
    let mut next_ev = 0usize;
    let mut next_fault = 0usize;

    #[derive(Clone, Copy)]
    enum Action {
        Deliver(usize),
        Retry(usize),
        Inject,
        Submit,
    }

    let mut actions: Vec<Action> = Vec::new();
    loop {
        // Enumerate enabled actions in a fixed priority order; the
        // serial scheduler always takes the first.
        actions.clear();
        for (s, q) in queues.iter().enumerate() {
            if !q.is_empty() {
                actions.push(Action::Deliver(s));
            }
        }
        for (s, shard) in shards.iter().enumerate() {
            if shard.next_due() == Some(Duration::ZERO) {
                actions.push(Action::Retry(s));
            }
        }
        if next_fault < faults.len() {
            let due = faults[next_fault].time;
            if next_ev >= trace.len() || trace[next_ev].time >= due {
                actions.push(Action::Inject);
            }
        }
        if next_ev < trace.len() {
            actions.push(Action::Submit);
        }

        if actions.is_empty() {
            // Only parked retries (if anything) remain: jump the clock
            // to the earliest one, or quiesce.
            match shards.iter().filter_map(|s| s.next_due()).min() {
                Some(wait) => {
                    clock.advance(wait.max(Duration::from_nanos(1)));
                    continue;
                }
                None => break,
            }
        }

        let pick = match &mut sched {
            Scheduler::Serial => 0,
            Scheduler::Random(choices) => choices.choose(actions.len()),
        };
        match actions[pick] {
            Action::Deliver(s) => {
                if batch_n > 1 {
                    let jobs: Vec<_> = std::mem::take(&mut queues[s])
                        .into_iter()
                        .map(|(idx, ev)| {
                            let slot = Arc::clone(&outcomes);
                            let done = Box::new(move |o| {
                                slot.lock()[idx] = Some(o);
                            })
                                as wdm_runtime::OutcomeCallback;
                            (ev, Some(done))
                        })
                        .collect();
                    shards[s].handle_batch(jobs);
                } else {
                    let (idx, ev) = queues[s].pop_front().expect("enabled ⇒ non-empty");
                    let slot = Arc::clone(&outcomes);
                    shards[s].handle_event(
                        ev,
                        Some(Box::new(move |o| {
                            slot.lock()[idx] = Some(o);
                        })),
                    );
                }
            }
            Action::Retry(s) => shards[s].retry_due(),
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
            Action::Submit => {
                // First event unconditionally, then extend the window —
                // but never past a fault's eligibility point, so the
                // injection fires at the same trace position whether or
                // not submission is batched.
                let mut taken = 0;
                while next_ev < trace.len()
                    && (taken == 0
                        || (taken < batch_n
                            && !(next_fault < faults.len()
                                && trace[next_ev].time >= faults[next_fault].time)))
                {
                    let ev = trace[next_ev].clone();
                    let s = core.shard_of(source_port(&ev.event), shards_n);
                    queues[s].push_back((next_ev, ev));
                    next_ev += 1;
                    taken += 1;
                }
            }
        }
    }

    drop(shards);
    let virtual_secs = clock.elapsed().as_secs_f64();
    let report = core.finish(virtual_secs);
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
        // Both sources want dst 2 on a *closed* trace. Cross-shard
        // reordering may admit either first — the loser parks — but the
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
