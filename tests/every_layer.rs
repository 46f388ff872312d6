//! One smoke per layer the conformance suites own, so that tier-1
//! (`cargo test -q` at the root, which runs only this package) touches
//! the simulator, the wire codec, the serving state machine and the
//! engine's fault and retry paths too.

#[path = "../crates/sim/tests/simulated/mod.rs"]
mod simulated;
#[path = "../crates/net/tests/transcripts/mod.rs"]
mod transcripts;

use std::io::Cursor;
use std::sync::mpsc;
use wdm_multicast::core::{Endpoint, Fault, MulticastConnection};
use wdm_multicast::net::codec::{encode_request, encode_response, read_request, read_response};
use wdm_multicast::net::{RejectReason, Request, Response};
use wdm_multicast::runtime::{EngineBuilder, RequestOutcome, RuntimeConfig, RuntimeMetrics};
use wdm_multicast::sim::{BackendKind, NetSim, Scenario};
use wdm_multicast::workload::{TimedEvent, TraceEvent};

/// One seeded interleaving per backend through `Scenario`, at the
/// default geometry (`n=2 r=4 k=2`; the AWG Clos needs `k ≥ r`): zero
/// violations, and the schedule each seed induces is pinned — the same
/// fingerprints `wdmcast sim --seed 42` prints.
#[test]
fn one_simulator_seed_per_backend_through_scenario() {
    let three_stage = Scenario::new(BackendKind::ThreeStage);
    for (label, scenario, events, fingerprint) in [
        (
            "crossbar",
            Scenario::new(BackendKind::Crossbar),
            44,
            0x214f_e499_6b94_e944_u64,
        ),
        ("three-stage", three_stage, 44, 0x4aff_4935_6f09_5584),
        (
            "three-stage-cas",
            three_stage.concurrent(true),
            44,
            0x4aff_4935_6f09_5584,
        ),
        (
            "awg-clos",
            Scenario::new(BackendKind::AwgClos).geometry(2, 4, 4),
            48,
            0xf119_cac2_2e44_0734,
        ),
        (
            "graph",
            Scenario::new(BackendKind::DEFAULT_GRAPH),
            44,
            0x4aff_4935_6f09_5584,
        ),
    ] {
        assert_eq!(scenario.build().unwrap().label(), label);
        let verdict = scenario.check_seed(42).unwrap();
        assert!(verdict.violations.is_empty(), "{label}: {verdict:?}");
        assert_eq!(verdict.events, events, "{label}");
        assert_eq!(
            verdict.fingerprint, fingerprint,
            "{label}: {:016x}",
            verdict.fingerprint
        );
    }
}

/// Every `Request` and `Response` kind survives encode → frame → decode
/// with its id.
#[test]
fn wire_codec_round_trips_every_request_and_response_kind() {
    let multicast = MulticastConnection::new(
        Endpoint::new(3, 1),
        [Endpoint::new(0, 0), Endpoint::new(7, 1)],
    )
    .unwrap();
    let unicast = MulticastConnection::unicast(Endpoint::new(1, 0), Endpoint::new(2, 0));
    for req in [
        Request::Connect(multicast.clone()),
        Request::Disconnect(Endpoint::new(5, 0)),
        Request::Snapshot,
        Request::Drain,
        Request::Ping,
        Request::BatchConnect(vec![multicast, unicast]),
    ] {
        let bytes = encode_request(7, &req);
        assert_eq!(read_request(&mut Cursor::new(bytes)).unwrap(), (7, req));
    }
    let rejected = Response::Rejected {
        reason: RejectReason::Blocked,
        detail: "middle stage exhausted".into(),
    };
    let snapshot = RuntimeMetrics::new(2).snapshot(1.5, 3, vec![1, 2, 0]);
    for resp in [
        Response::Ok,
        rejected.clone(),
        Response::Snapshot(snapshot.clone()),
        Response::DrainReport {
            clean: true,
            summary: snapshot,
        },
        Response::Pong,
        Response::ProtocolError {
            message: "bad magic".into(),
        },
        Response::Batch(vec![Response::Ok, rejected]),
    ] {
        let bytes = encode_response(9, &resp);
        assert_eq!(read_response(&mut Cursor::new(bytes)).unwrap(), (9, resp));
    }
}

/// Fault → heal → repair through the engine's `FaultHandle` on a
/// three-stage network with one spare middle: the kill evicts live
/// routes, every victim is re-admitted on the survivors, admissions
/// keep succeeding while the switch is down, the repair is seen once,
/// and the drained backend is empty and consistent.
#[test]
fn fault_heal_repair_cycle_ends_consistent() {
    let at_bound = Scenario::new(BackendKind::ThreeStage).geometry(2, 4, 1);
    let spare = at_bound.middles(at_bound.middle_count().unwrap() + 1);
    let engine = EngineBuilder::new().shards(2).start(spare.build().unwrap());
    let handle = engine.fault_handle();

    // Each call blocks on the request's own completion, so the fault
    // below lands on exactly the routes admitted here.
    let resolve = |event: TraceEvent| {
        let (tx, rx) = mpsc::channel();
        let submitted = engine.submit_tracked(
            TimedEvent { time: 0.0, event },
            Box::new(move |outcome| tx.send(outcome).expect("the test is waiting")),
        );
        assert!(submitted.is_accepted());
        rx.recv().expect("the engine resolves every tracked event")
    };
    let connect = |src: u32, dst: u32| {
        let conn = MulticastConnection::unicast(Endpoint::new(src, 0), Endpoint::new(dst, 0));
        resolve(TraceEvent::Connect(conn))
    };
    for (src, dst) in [(0, 2), (2, 4), (4, 6)] {
        assert_eq!(connect(src, dst), RequestOutcome::Admitted);
    }

    // First-fit put every route on middle 0.
    let fault = Fault::MiddleSwitch(0);
    let hit = handle.inject(fault);
    assert_eq!(
        (hit.connections_hit, hit.healed, hit.heal_failed),
        (3, 3, 0)
    );
    assert_eq!(connect(6, 0), RequestOutcome::Admitted);
    assert!(handle.repair(fault));
    assert!(!handle.repair(fault), "a repaired fault is not down");

    for src in [0, 2, 4, 6] {
        let departed = resolve(TraceEvent::Disconnect(Endpoint::new(src, 0)));
        assert_eq!(departed, RequestOutcome::Departed);
    }
    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(report.backend.check().is_empty());
    let s = &report.summary;
    assert_eq!((s.faults_injected, s.faults_repaired), (1, 1));
    assert_eq!((s.admitted, s.departed, s.blocked, s.active), (4, 4, 0, 0));
}

/// The engine's per-shard bookkeeping, pinned through one seeded faulted
/// simulation: two middles on `n=2 r=4 k=2` (well below the Theorem-1
/// bound), so connects block and their departures are skipped, and the
/// scripted middle kill strands two connections a heal cannot re-admit,
/// whose departures are then orphaned. The drained counters, the
/// per-wavelength gauges and the mean holding time must not move when
/// the bookkeeping's data structures change.
#[test]
fn faulted_simulation_bookkeeping_is_pinned() {
    use wdm_multicast::sim::{simulate, ChoiceStream, Scheduler, SimParams};
    let scenario = Scenario::new(BackendKind::ThreeStage)
        .geometry(2, 4, 2)
        .middles(2)
        .faulted(true)
        .schedule(200, 2);
    let seed = 9;
    let trace = scenario.trace(seed).unwrap();
    let faults = scenario.faults(seed, &trace).unwrap();
    let params = SimParams {
        shards: scenario.shards,
        ..SimParams::default()
    };
    let mut choices = ChoiceStream::new(seed);
    let run = simulate(
        scenario.build().unwrap(),
        &trace,
        &faults,
        &params,
        Scheduler::Random(&mut choices),
    );
    let s = &run.report.summary;
    assert_eq!(
        (s.offered, s.admitted, s.departed),
        (102, 90, 88),
        "offered / admitted / departed"
    );
    assert_eq!(
        (s.skipped_departures, s.orphaned_departures, s.heal_failed),
        (12, 2, 2),
        "skipped / orphaned / heal_failed"
    );
    assert_eq!(s.wavelength_live, vec![0, 0]);
    assert_eq!(s.mean_holding, 4.5227272727272725);
}

/// Run to completion, and the one exception: on an idle engine a
/// connect resolves before its submit returns, while a connect that
/// goes `Busy` parks and is admitted by its shard's retry thread once
/// the blocker's departure is submitted, with no other traffic to wake
/// anything. It must resolve well inside the deadline (a lost retry
/// wakeup would leave it parked until the drain), and the same-source
/// events queued behind it must resolve after it, in order.
#[test]
fn busy_connect_is_retried_once_its_blocker_departs() {
    use std::time::Duration;
    use wdm_multicast::core::{MulticastModel, NetworkConfig};
    use wdm_multicast::fabric::CrossbarSession;

    let backend = CrossbarSession::new(NetworkConfig::new(8, 1), MulticastModel::Msw);
    let engine = EngineBuilder::new()
        .shards(2)
        .deadline(Duration::from_secs(30))
        .start(backend);
    let (tx, rx) = mpsc::channel();
    let submit = |tag: &'static str, event: TraceEvent| {
        let tx = tx.clone();
        let done = Box::new(move |outcome| tx.send((tag, outcome)).expect("the test is waiting"));
        assert!(engine
            .submit_tracked(TimedEvent { time: 0.0, event }, done)
            .is_accepted());
    };
    let connect = |src: u32, dst: u32| {
        TraceEvent::Connect(MulticastConnection::unicast(
            Endpoint::new(src, 0),
            Endpoint::new(dst, 0),
        ))
    };
    let depart = |src: u32| TraceEvent::Disconnect(Endpoint::new(src, 0));

    // The blocker holds output 4; a crossbar shards per port, so the
    // rival from port 1 parks on the other shard.
    submit("blocker", connect(0, 4));
    assert_eq!(rx.try_recv(), Ok(("blocker", RequestOutcome::Admitted)));
    // Let both retry threads fall asleep with nothing parked, so the
    // rival's park must wake one (the test holds without the pause; it
    // only makes a lost wakeup show).
    std::thread::sleep(Duration::from_millis(20));
    submit("rival", connect(1, 4));
    submit("rival departs", depart(1));
    submit("rival again", connect(1, 5));
    std::thread::sleep(Duration::from_millis(20));
    assert!(rx.try_recv().is_err(), "the rival and its tail wait");

    submit("blocker departs", depart(0));
    assert_eq!(
        rx.try_recv(),
        Ok(("blocker departs", RequestOutcome::Departed))
    );
    let tail: Vec<_> = (0..3)
        .map(|_| rx.recv_timeout(Duration::from_secs(2)))
        .collect();
    assert_eq!(
        tail,
        [
            Ok(("rival", RequestOutcome::Admitted)),
            Ok(("rival departs", RequestOutcome::Departed)),
            Ok(("rival again", RequestOutcome::Admitted)),
        ]
    );
    submit("last departs", depart(1));
    assert_eq!(
        rx.try_recv(),
        Ok(("last departs", RequestOutcome::Departed))
    );

    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    let s = &report.summary;
    assert_eq!((s.admitted, s.departed, s.expired, s.active), (3, 3, 0, 0));
}

/// The v2 wire conformance script on the serving core's simulated
/// driver: under 8 schedule seeds the transcript must equal, entry for
/// entry, the literal the socket suite (`reactor_conformance.rs`) pins.
#[test]
fn serving_core_reproduces_the_v2_transcript_on_the_simulated_driver() {
    let script = transcripts::conformance_script(2);
    for seed in 0..8 {
        let sim = NetSim::new(
            transcripts::conformance_backend(),
            2,
            RuntimeConfig::default(),
        );
        let got = simulated::run_simulated(sim, 2, &script, seed);
        assert_eq!(got, transcripts::pinned_transcript(2), "seed {seed}");
    }
}
