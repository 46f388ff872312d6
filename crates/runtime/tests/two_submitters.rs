//! Two submitting threads against one engine — the shape the serving
//! layer's two reactor shards give it — with the retry threads racing
//! both.
//!
//! A G1 three-stage fabric (n=8 r=16 k=4, m at the Theorem-1 bound)
//! runs two engine shards; each submitter owns the sources of every
//! other pair of input modules, so both reach both shards. First a
//! handshake forces one cross-shard conflict: a connect parks `Busy` on
//! a destination the other thread holds, its source's later events
//! queue behind it, and a retry admits it once the holder departs. Then
//! both threads pour a closed churn trace in at once, so destination
//! conflicts park and retry wherever the threads overtake each other.
//!
//! Checked: each source's verdicts arrive in its submission order; the
//! outcome conservation law holds exactly at a quiescent
//! `snapshot_now()` and at drain; the per-wavelength gauges sum to the
//! live connection count.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Sender};
use std::sync::Barrier;
use std::time::Duration;
use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_runtime::{
    AdmissionEngine, EngineBuilder, MetricsSnapshot, OutcomeCallback, RequestOutcome,
};
use wdm_workload::{DynamicTraffic, TimedEvent, TraceEvent};

const N: u32 = 8;
const R: u32 = 16;
const K: u32 = 4;
/// Events per tracked submit in the churn phase.
const BATCH: usize = 8;

/// A source's `seq`-th event resolved as the outcome.
type Verdict = (Endpoint, u32, RequestOutcome);

/// An event tagged with its source's submission index.
type Tagged = (TimedEvent, u32);

fn source_of(event: &TraceEvent) -> Endpoint {
    match event {
        TraceEvent::Connect(c) => c.source(),
        TraceEvent::Disconnect(src) => *src,
    }
}

/// Which thread submits a source's events: input-module pairs
/// alternate, and shards are input modules mod 2, so each thread
/// reaches both shards.
fn submitter_of(src: Endpoint) -> usize {
    (src.port.0 / N / 2 % 2) as usize
}

fn connect(src: u32, dst: u32) -> TraceEvent {
    TraceEvent::Connect(MulticastConnection::unicast(
        Endpoint::new(src, 0),
        Endpoint::new(dst, 0),
    ))
}

fn disconnect(src: u32) -> TraceEvent {
    TraceEvent::Disconnect(Endpoint::new(src, 0))
}

/// Numbers each source's events in submission order.
#[derive(Default)]
struct Tagger(HashMap<Endpoint, u32>);

impl Tagger {
    fn tag(&mut self, event: TraceEvent) -> Tagged {
        let seq = self.0.entry(source_of(&event)).or_default();
        *seq += 1;
        (TimedEvent { time: 0.0, event }, *seq - 1)
    }
}

fn submit(engine: &AdmissionEngine<ThreeStageNetwork>, batch: Vec<Tagged>, tx: &Sender<Verdict>) {
    let (events, callbacks): (Vec<_>, Vec<OutcomeCallback>) = batch
        .into_iter()
        .map(|(ev, seq)| {
            let (tx, src) = (tx.clone(), source_of(&ev.event));
            let cb: OutcomeCallback = Box::new(move |o| {
                let _ = tx.send((src, seq, o));
            });
            (ev, cb)
        })
        .unzip();
    assert!(engine.submit_batch_tracked(events, callbacks).is_accepted());
}

/// Every offered connect resolved exactly once, and the gauges agree
/// with the fabric.
fn assert_conserved(s: &MetricsSnapshot) {
    assert_eq!(
        s.offered,
        s.admitted + s.blocked + s.expired + s.component_down + s.overloaded + s.fatal,
        "{s:?}"
    );
    assert_eq!(s.wavelength_live.iter().sum::<u64>(), s.active, "{s:?}");
}

#[test]
fn two_submitters_keep_per_source_order_and_conserve_outcomes() {
    let m = bounds::theorem1_min_m(N, R).m;
    let net = ThreeStageNetwork::new(
        ThreeStageParams::new(N, m, R, K),
        Construction::MswDominant,
        MulticastModel::Msw,
    );
    let engine = EngineBuilder::new().shards(2).start(net);
    let mut tagger = Tagger::default();

    // The handshake: A holds output 100 from source 0 (module 0, shard
    // 0); B's connect to it from source 24 (module 3, shard 1) parks,
    // with three more events of source 24 behind it; A departs.
    let (a, b) = (0u32, 24u32);
    assert_eq!(submitter_of(Endpoint::new(a, 0)), 0);
    assert_eq!(submitter_of(Endpoint::new(b, 0)), 1);
    let a_hold = vec![tagger.tag(connect(a, 100))];
    let b_queue: Vec<Tagged> = [
        connect(b, 100),
        disconnect(b),
        connect(b, 101),
        disconnect(b),
    ]
    .into_iter()
    .map(|e| tagger.tag(e))
    .collect();
    let a_leave = vec![tagger.tag(disconnect(a))];

    // The churn: a closed trace, split by source between the threads.
    let mut trace = DynamicTraffic::new(
        NetworkConfig::new(N * R, K),
        MulticastModel::Msw,
        60.0,
        1.0,
        4,
        29,
    )
    .generate(12.0);
    let mut live: Vec<Endpoint> = Vec::new();
    for e in &trace {
        match &e.event {
            TraceEvent::Connect(c) => live.push(c.source()),
            TraceEvent::Disconnect(src) => live.retain(|s| s != src),
        }
    }
    trace.extend(live.into_iter().map(|src| TimedEvent {
        time: 13.0,
        event: TraceEvent::Disconnect(src),
    }));
    let mut churn: [Vec<Tagged>; 2] = [Vec::new(), Vec::new()];
    for e in trace {
        let thread = submitter_of(source_of(&e.event));
        churn[thread].push(tagger.tag(e.event));
    }
    let connects = 3 + churn
        .iter()
        .flatten()
        .filter(|(e, _)| matches!(e.event, TraceEvent::Connect(_)))
        .count() as u64;
    let expected = 6 + churn.iter().map(Vec::len).sum::<usize>();
    assert!(expected > 1_000, "the churn needs a real trace");

    let (tx, rx) = mpsc::channel::<Verdict>();
    let start = Barrier::new(2);
    let [churn_a, churn_b] = churn;
    std::thread::scope(|scope| {
        let (to_b, from_a) = mpsc::channel::<()>();
        let (to_a, from_b) = mpsc::channel::<()>();
        let (engine, start) = (&engine, &start);
        let tx_a = tx.clone();
        scope.spawn(move || {
            submit(engine, a_hold, &tx_a);
            to_b.send(()).expect("B waits");
            from_b.recv().expect("B parked");
            submit(engine, a_leave, &tx_a);
            start.wait();
            for batch in churn_a.chunks(BATCH) {
                submit(engine, batch.to_vec(), &tx_a);
            }
        });
        let tx_b = tx.clone();
        scope.spawn(move || {
            from_a.recv().expect("A holds");
            submit(engine, b_queue, &tx_b);
            // Its connect parked: only A's is admitted.
            assert_eq!(engine.metrics().admitted.load(Ordering::Relaxed), 1);
            to_a.send(()).expect("A waits");
            start.wait();
            for batch in churn_b.chunks(BATCH) {
                submit(engine, batch.to_vec(), &tx_b);
            }
        });
    });
    drop(tx);

    // Callbacks fire on the submitters and on the retry threads; for one
    // source they fire under one shard lock, so the channel keeps their
    // order.
    let mut next: HashMap<Endpoint, u32> = HashMap::new();
    let mut verdicts: HashMap<Endpoint, Vec<RequestOutcome>> = HashMap::new();
    for _ in 0..expected {
        let (src, seq, outcome) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every tracked event resolves");
        let want = next.entry(src).or_default();
        assert_eq!(seq, *want, "{src}: verdict {seq} arrived before {want}");
        *want += 1;
        verdicts.entry(src).or_default().push(outcome);
    }
    // At the bound nothing blocks, and the 5 s deadline outlasts every
    // conflict: each source alternates admitted and departed.
    for (src, outcomes) in &verdicts {
        for (i, &o) in outcomes.iter().enumerate() {
            let want = [RequestOutcome::Admitted, RequestOutcome::Departed][i % 2];
            assert_eq!(o, want, "{src}: verdict {i}");
        }
    }

    // The last callbacks may have fired on a retry thread, which
    // publishes its slice's counters before it releases the shard lock.
    // One probe connect per shard takes both locks after that, so the
    // snapshot below sees every slice published.
    let probes = [(1u32, 120u32), (9, 121)];
    for (src, dst) in probes {
        let probe = TimedEvent {
            time: 0.0,
            event: connect(src, dst),
        };
        assert!(engine.submit(probe).is_accepted());
    }
    let quiet = engine.snapshot_now();
    assert_conserved(&quiet);
    assert_eq!(quiet.offered, connects + 2);
    assert_eq!(quiet.active, 2);
    // The parked connect waited for the holder's departure.
    assert!(quiet.mean_admit_ns > 0.0, "{quiet:?}");

    for (src, _) in probes {
        let leave = TimedEvent {
            time: 0.0,
            event: disconnect(src),
        };
        assert!(engine.submit(leave).is_accepted());
    }
    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    let s = &report.summary;
    assert_conserved(s);
    assert_eq!((s.offered, s.admitted), (connects + 2, connects + 2));
    assert_eq!((s.blocked, s.expired, s.active), (0, 0, 0));
    assert_eq!(s.departed, s.admitted);
}
