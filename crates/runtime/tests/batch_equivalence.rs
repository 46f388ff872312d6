//! Satellite: `submit_batch` must be an *amortization*, not a semantic
//! change — on one shard, the per-index outcomes of a batch are
//! identical to submitting the same events sequentially, across the
//! whole taxonomy (Busy, Blocked, ComponentDown, Fatal, departures),
//! and a batch submitted just before `begin_drain` fires still resolves
//! its real outcomes.

use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;
use wdm_core::{Endpoint, Fault, MulticastConnection, MulticastModel};
use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_runtime::{AdmissionEngine, EngineBuilder, OutcomeCallback, RequestOutcome, SubmitOutcome};
use wdm_workload::{TimedEvent, TraceEvent};

/// A deliberately starved three-stage network (m below any nonblocking
/// bound) so random traffic hits Blocked, plus a dead port for
/// ComponentDown.
fn starved_engine() -> AdmissionEngine<ThreeStageNetwork> {
    let p = ThreeStageParams::new(4, 2, 4, 2); // n=4, m=2, r=4, k=2 → 16 ports
    let net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    // One shard ⇒ strictly in-order processing; zero retries ⇒ a Busy
    // conflict resolves immediately (Expired) instead of depending on
    // wall-clock backoff timing. Outcomes are then fully deterministic.
    EngineBuilder::new()
        .shards(1)
        .retry_policy(0, Duration::from_micros(1), Duration::from_micros(1))
        .start(net)
}

const PORTS: u32 = 16;
const WAVELENGTHS: u32 = 2;

/// (kind, src_port, src_wl, dest_seed) compressed event description.
fn arb_events() -> impl Strategy<Value = Vec<(u8, u32, u32, u64)>> {
    prop::collection::vec(
        (0u8..4, 0u32..PORTS, 0u32..WAVELENGTHS, any::<u64>()),
        1..40,
    )
}

fn decode(raw: &[(u8, u32, u32, u64)]) -> Vec<TimedEvent> {
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, port, wl, seed))| {
            let src = Endpoint::new(port, wl);
            let event = if kind == 0 {
                TraceEvent::Disconnect(src)
            } else {
                // 1–3 destinations on the source wavelength (Msw).
                let dests: Vec<Endpoint> = (0..kind as u64)
                    .map(|d| Endpoint::new((seed.wrapping_add(d * 7919) % PORTS as u64) as u32, wl))
                    .collect();
                match MulticastConnection::new(src, dests) {
                    Ok(c) => TraceEvent::Connect(c),
                    Err(_) => TraceEvent::Disconnect(src),
                }
            };
            TimedEvent {
                time: i as f64,
                event,
            }
        })
        .collect()
}

/// Run the events through an engine and collect per-index outcomes.
fn outcomes_of(
    engine: AdmissionEngine<ThreeStageNetwork>,
    events: Vec<TimedEvent>,
    batched: bool,
) -> Vec<RequestOutcome> {
    // Half the ports lose their link hardware up front, so a slice of
    // every trace is ComponentDown.
    let handle = engine.fault_handle();
    handle.inject(Fault::Port(3));
    handle.inject(Fault::Port(11));
    let n = events.len();
    let (tx, rx) = mpsc::channel::<(usize, RequestOutcome)>();
    let callbacks: Vec<OutcomeCallback> = (0..n)
        .map(|i| {
            let tx = tx.clone();
            Box::new(move |o| tx.send((i, o)).unwrap()) as OutcomeCallback
        })
        .collect();
    if batched {
        let out = engine.submit_batch_tracked(events, callbacks);
        assert_eq!(out, SubmitOutcome::Accepted);
    } else {
        for (ev, cb) in events.into_iter().zip(callbacks) {
            assert_eq!(engine.submit_tracked(ev, cb), SubmitOutcome::Accepted);
        }
    }
    engine.drain();
    let mut got = vec![None; n];
    for _ in 0..n {
        let (i, o) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        got[i] = Some(o);
    }
    got.into_iter()
        .map(|o| o.expect("every event resolved"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One shard, zero retries: batched and sequential submission see
    /// the same event order, so every index must resolve identically —
    /// including Busy conflicts, Blocked middles, dead components, and
    /// departures for never-admitted sources.
    #[test]
    fn batch_outcomes_equal_sequential(raw in arb_events()) {
        let singles = outcomes_of(starved_engine(), decode(&raw), false);
        let batch = outcomes_of(starved_engine(), decode(&raw), true);
        prop_assert_eq!(&singles, &batch);
        // The starved geometry + dead ports must actually exercise the
        // taxonomy sometimes; guard against a degenerate generator by
        // checking the trace produced at least one terminal outcome.
        prop_assert!(!singles.is_empty());
    }
}

#[test]
fn batch_spanning_begin_drain_still_resolves() {
    let engine = starved_engine();
    let (tx, rx) = mpsc::channel::<(usize, RequestOutcome)>();
    let mk = |i: usize| -> OutcomeCallback {
        let tx = tx.clone();
        Box::new(move |o| tx.send((i, o)).unwrap())
    };
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(4, 0));
    let events = vec![
        TimedEvent {
            time: 0.0,
            event: TraceEvent::Connect(conn.clone()),
        },
        TimedEvent {
            time: 1.0,
            event: TraceEvent::Disconnect(Endpoint::new(0, 0)),
        },
    ];
    // Submitted before the drain signal: both events must resolve their
    // real outcomes even though the drain begins immediately after.
    assert_eq!(
        engine.submit_batch_tracked(events, vec![mk(0), mk(1)]),
        SubmitOutcome::Accepted
    );
    engine.begin_drain();
    // Refused after the drain signal: every callback fires Draining.
    let late = vec![TimedEvent {
        time: 2.0,
        event: TraceEvent::Connect(conn),
    }];
    assert_eq!(
        engine.submit_batch_tracked(late, vec![mk(2)]),
        SubmitOutcome::Draining
    );
    let mut got: Vec<(usize, RequestOutcome)> = (0..3)
        .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
        .collect();
    got.sort_by_key(|(i, _)| *i);
    assert_eq!(got[0], (0, RequestOutcome::Admitted));
    assert_eq!(got[1], (1, RequestOutcome::Departed));
    assert_eq!(got[2], (2, RequestOutcome::Draining));
    engine.drain();
}
