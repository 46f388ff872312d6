//! Fault-injection integration tests: the spare-margin guarantee, the
//! tightness of the bound under kills, self-healing with repair, dead-port
//! tombstoning, and the panic/cleanliness contract.
//!
//! The headline pair is Clos sparing for Theorem 1: provision
//! `m = bound + f` middle switches and *any* `f` of them can die mid-run
//! with zero blocking and 100 % heals; provision only `m = bound` and the
//! same kills produce honest, witnessed blocking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wdm_core::{Endpoint, MulticastConnection, MulticastModel};
use wdm_fabric::CrossbarSession;
use wdm_multistage::{
    bounds, find_blocking_witness_faulted, Construction, ThreeStageNetwork, ThreeStageParams,
};
use wdm_runtime::{Backend, EngineBuilder, Fault, FaultSet, Reject, RuntimeConfig, RuntimeReport};
use wdm_workload::{DynamicTraffic, TimedEvent, TraceEvent};

fn unicast(src: (u32, u32), dst: (u32, u32)) -> MulticastConnection {
    MulticastConnection::unicast(Endpoint::new(src.0, src.1), Endpoint::new(dst.0, dst.1))
}

fn connect_at(time: f64, conn: MulticastConnection) -> TimedEvent {
    TimedEvent {
        time,
        event: TraceEvent::Connect(conn),
    }
}

fn disconnect_at(time: f64, src: (u32, u32)) -> TimedEvent {
    TimedEvent {
        time,
        event: TraceEvent::Disconnect(Endpoint::new(src.0, src.1)),
    }
}

/// Append the departures `generate` truncated past the horizon, so the
/// run ends with an empty network.
fn close_trace(events: &mut Vec<TimedEvent>, tail_time: f64) {
    let mut live = std::collections::BTreeSet::new();
    for e in events.iter() {
        match &e.event {
            TraceEvent::Connect(c) => live.insert(c.source()),
            TraceEvent::Disconnect(s) => live.remove(s),
        };
    }
    events.extend(live.into_iter().map(|src| TimedEvent {
        time: tail_time,
        event: TraceEvent::Disconnect(src),
    }));
}

/// Poll a counter until it reaches `want` (or a wall-clock deadline).
fn wait_for(counter: &AtomicU64, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter.load(Ordering::Relaxed) < want {
        assert!(
            Instant::now() < deadline,
            "{what} never reached {want} (at {})",
            counter.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Churn `m = 13 + 8` with any 8 middles killed mid-run: zero blocking,
/// every evicted connection heals. This is the sparing corollary of
/// Theorem 1 — the calibrated `f = 8` leaves exactly `bound` live
/// middles, the provable edge of nonblocking operation.
#[test]
fn fault_spare_margin_absorbs_f_kills_with_zero_blocking() {
    let bound = bounds::theorem1_min_m(4, 4);
    assert_eq!(bound.m, 13, "calibration anchor");
    let f = 8u32;
    let p = ThreeStageParams::new(4, bound.m + f, 4, 1);

    let kill_sets: [Vec<u32>; 3] = [
        (0..f).collect(),                 // FirstFit's favourites
        (bound.m..bound.m + f).collect(), // the spare tail
        vec![0, 2, 4, 6, 14, 16, 18, 20], // a mixed spread
    ];
    for (i, kills) in kill_sets.iter().enumerate() {
        let mut events = DynamicTraffic::new(
            p.network(),
            MulticastModel::Msw,
            6.0,
            2.0,
            4,
            1000 + i as u64,
        )
        .generate(30.0);
        close_trace(&mut events, 31.0);
        let half = events.len() / 2;

        let engine = EngineBuilder::from_config(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        })
        .start(ThreeStageNetwork::new(
            p,
            Construction::MswDominant,
            MulticastModel::Msw,
        ));
        let handle = engine.fault_handle();
        engine.run_events(events[..half].iter().cloned());
        // Let the fabric warm up so the kills land on live traffic.
        std::thread::sleep(Duration::from_millis(40));
        let mut hit = 0usize;
        for &j in kills {
            hit += handle.inject(Fault::MiddleSwitch(j)).connections_hit;
        }
        engine.run_events(events[half..].iter().cloned());
        let report = engine.drain();

        let s = &report.summary;
        assert!(report.is_clean(), "kill set {i}: {:?}", report.errors);
        assert_eq!(s.blocked, 0, "kill set {i}: sparing margin must hold");
        assert_eq!(s.component_down, 0, "kill set {i}: middles route around");
        assert_eq!(s.heal_failed, 0, "kill set {i}: every eviction re-admits");
        assert_eq!(s.healed, s.connections_hit, "kill set {i}");
        assert_eq!(s.healed as usize, hit, "kill set {i}");
        assert_eq!(s.expired, 0, "kill set {i}");
        assert_eq!(s.faults_injected, u64::from(f), "kill set {i}");
        if i == 0 {
            // FirstFit concentrates load on low middles, so killing 0..8
            // on a warm fabric must evict something.
            assert!(s.connections_hit > 0, "kill set 0 hit a warm fabric");
        }
    }
}

/// The margin is tight: at `m = bound` (no spares) the same 8 kills leave
/// a blockable fabric — a witness search finds a request sequence that
/// hard-blocks, and the engine reproduces it honestly as `Blocked` (not
/// `ComponentDown` — the fabric is degraded, not severed). The identical
/// sequence on `m = bound + 8` admits in full.
#[test]
fn fault_bound_tightness_blocks_at_m_without_spares() {
    let bound = bounds::theorem1_min_m(4, 4);
    let kill_sets: [Vec<u32>; 2] = [(5..13).collect(), (0..8).collect()];
    for kills in &kill_sets {
        let faults: FaultSet = kills.iter().map(|&j| Fault::MiddleSwitch(j)).collect();
        let p13 = ThreeStageParams::new(4, bound.m, 4, 1);
        let witness = find_blocking_witness_faulted(
            p13,
            Construction::MswDominant,
            MulticastModel::Msw,
            bound.x,
            300,
            7,
            &faults,
        )
        .expect("bound-sized fabric minus 8 middles is blockable");

        let events: Vec<TimedEvent> = witness
            .established
            .iter()
            .chain(std::iter::once(&witness.blocked_request))
            .enumerate()
            .map(|(i, c)| connect_at(i as f64 * 0.01, c.clone()))
            .collect();

        let run = |m: u32| -> RuntimeReport<ThreeStageNetwork> {
            let p = ThreeStageParams::new(4, m, 4, 1);
            let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
            net.set_fanout_limit(bound.x);
            let engine = EngineBuilder::from_config(RuntimeConfig {
                workers: 1, // strict order: replay the witness exactly
                ..RuntimeConfig::default()
            })
            .start(net);
            let handle = engine.fault_handle();
            for &fault in faults.iter() {
                handle.inject(fault);
            }
            engine.run_events(events.iter().cloned());
            engine.drain()
        };

        let starved = run(bound.m);
        assert!(starved.is_clean(), "{:?}", starved.errors);
        assert_eq!(
            starved.summary.blocked, 1,
            "kills {kills:?}: the witnessed request must hard-block"
        );
        assert_eq!(starved.summary.component_down, 0, "degraded ≠ severed");
        assert_eq!(starved.summary.admitted as usize, witness.established.len());

        let spared = run(bound.m + 8);
        assert!(spared.is_clean(), "{:?}", spared.errors);
        assert_eq!(
            spared.summary.blocked, 0,
            "kills {kills:?}: with spares the same sequence admits in full"
        );
        assert_eq!(
            spared.summary.admitted as usize,
            witness.established.len() + 1
        );
    }
}

/// One spare middle: kill the busiest middle switch mid-run (its traffic
/// heals onto survivors), repair it, and show capacity is fully restored.
#[test]
fn fault_heal_then_repair_restores_capacity() {
    let bound = bounds::theorem1_min_m(2, 2);
    let p = ThreeStageParams::new(2, bound.m + 1, 2, 2);
    let engine = EngineBuilder::from_config(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    })
    .start(ThreeStageNetwork::new(
        p,
        Construction::MswDominant,
        MulticastModel::Msw,
    ));
    let handle = engine.fault_handle();
    let _ = engine.submit(connect_at(0.0, unicast((0, 0), (2, 0))));
    let _ = engine.submit(connect_at(0.0, unicast((1, 1), (3, 1))));
    wait_for(&engine.metrics().admitted, 2, "admitted");

    let loads = engine.snapshot_now().middle_loads;
    let busiest = (0..loads.len()).max_by_key(|&j| loads[j]).unwrap() as u32;
    assert!(loads[busiest as usize] > 0);

    let outcome = handle.inject(Fault::MiddleSwitch(busiest));
    assert!(outcome.connections_hit >= 1, "the busiest middle had load");
    assert_eq!(
        outcome.healed, outcome.connections_hit,
        "bound live middles remain — every victim re-admits"
    );
    assert_eq!(outcome.heal_failed, 0);
    assert!(handle.repair(Fault::MiddleSwitch(busiest)), "it was down");

    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.summary.blocked, 0);
    assert_eq!(report.summary.faults_injected, 1);
    assert_eq!(report.summary.faults_repaired, 1);
    assert!(report.backend.faults().is_empty(), "repair cleared the set");
}

/// A dead *port* cannot heal (the endpoint itself is gone). Its victim is
/// tombstoned so the scheduled departure is an orphan, not a fatal error;
/// new requests for the port are `ComponentDown` until repair.
#[test]
fn fault_dead_port_tombstones_victims_until_repair() {
    let engine = EngineBuilder::new().shards(2).start(CrossbarSession::new(
        wdm_core::NetworkConfig::new(8, 1),
        MulticastModel::Msw,
    ));
    let handle = engine.fault_handle();
    let victim = MulticastConnection::new(
        Endpoint::new(0, 0),
        [Endpoint::new(1, 0), Endpoint::new(2, 0)],
    )
    .unwrap();
    let _ = engine.submit(connect_at(0.0, victim));
    wait_for(&engine.metrics().admitted, 1, "admitted");

    let outcome = handle.inject(Fault::Port(1));
    assert_eq!(outcome.connections_hit, 1);
    assert_eq!(outcome.heal_failed, 1, "destination port is the dead part");

    // The victim's scheduled departure is an orphan, quietly absorbed.
    let _ = engine.submit(disconnect_at(1.0, (0, 0)));
    wait_for(&engine.metrics().orphaned_departures, 1, "orphaned");

    // A fresh request needing the dead port is refused as ComponentDown…
    let _ = engine.submit(connect_at(2.0, unicast((3, 0), (1, 0))));
    wait_for(&engine.metrics().component_down, 1, "component_down");
    // …and its departure is skipped (it was never admitted).
    let _ = engine.submit(disconnect_at(3.0, (3, 0)));
    wait_for(&engine.metrics().skipped_departures, 1, "skipped");

    assert!(handle.repair(Fault::Port(1)));
    let _ = engine.submit(connect_at(4.0, unicast((4, 0), (1, 0))));
    wait_for(&engine.metrics().admitted, 2, "admitted after repair");

    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.summary.fatal, 0);
    assert_eq!(report.summary.blocked, 0);
}

/// Busy is retryable (the rival departs and the request lands); a dead
/// component is not (only a repair helps). Neither is ever conflated with
/// theorem-relevant blocking.
#[test]
fn fault_component_down_is_not_retried_but_busy_is() {
    let engine = EngineBuilder::new()
        .shards(2)
        .deadline(Duration::from_secs(2))
        .start(CrossbarSession::new(
            wdm_core::NetworkConfig::new(8, 1),
            MulticastModel::Msw,
        ));
    let handle = engine.fault_handle();
    handle.inject(Fault::Port(5));

    let _ = engine.submit(connect_at(0.0, unicast((0, 0), (4, 0))));
    wait_for(&engine.metrics().admitted, 1, "first admit");
    // Same destination: Busy, parked and retried until the rival leaves.
    let _ = engine.submit(connect_at(1.0, unicast((1, 0), (4, 0))));
    std::thread::sleep(Duration::from_millis(20));
    let _ = engine.submit(disconnect_at(2.0, (0, 0)));
    wait_for(&engine.metrics().admitted, 2, "retry lands after departure");
    // Dead destination port: refused once, never retried.
    let _ = engine.submit(connect_at(3.0, unicast((2, 0), (5, 0))));
    wait_for(&engine.metrics().component_down, 1, "component_down");

    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.summary.admitted, 2);
    assert_eq!(report.summary.component_down, 1);
    assert_eq!(report.summary.blocked, 0);
    assert_eq!(report.summary.expired, 0);
    assert!(report.summary.retried >= 1, "the busy rival retried");
}

/// A backend that panics on one port — stands in for any shard-worker
/// crash mid-queue.
struct PanickyBackend {
    active: usize,
}

impl Backend for PanickyBackend {
    fn label(&self) -> &'static str {
        "panicky"
    }
    fn ports_per_module(&self) -> u32 {
        1
    }
    fn wavelengths(&self) -> u32 {
        1
    }
    fn connect(&mut self, conn: &MulticastConnection) -> Result<(), Reject> {
        assert!(conn.source().port.0 != 7, "injected worker crash");
        self.active += 1;
        Ok(())
    }
    fn disconnect(&mut self, _src: Endpoint) -> Result<(), Reject> {
        self.active -= 1;
        Ok(())
    }
    fn active_connections(&self) -> usize {
        self.active
    }
    fn check(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Satellite: a shard worker dying by panic can never report a clean
/// run — its queued events were dropped, so the counters lie.
#[test]
fn fault_worker_panic_is_never_clean() {
    let engine = EngineBuilder::from_config(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    })
    .start(PanickyBackend { active: 0 });
    let _ = engine.submit(connect_at(0.0, unicast((0, 0), (1, 0))));
    let _ = engine.submit(connect_at(0.0, unicast((7, 0), (2, 0)))); // kills its shard
    let report = engine.drain();
    assert_eq!(report.worker_panics, 1);
    assert!(
        !report.is_clean(),
        "a panicked worker must poison the report"
    );
    assert!(
        report.errors.iter().any(|e| e.contains("panic")),
        "{:?}",
        report.errors
    );
    assert_eq!(report.summary.admitted, 1, "the healthy shard drained");
}

/// Each backend's `fault_domain` names exactly its own components: a
/// fault one past any index is outside it, the last index inside. The
/// crossbar has no middle stage; a graph's nodes are its modules and
/// middles.
#[test]
fn fault_domain_names_exactly_the_fabric() {
    use wdm_core::{FaultDomain, NetworkConfig};
    use wdm_graph::{GraphNetwork, GraphTopology, Splitting};
    let clos = ThreeStageNetwork::new(
        ThreeStageParams::new(2, 7, 4, 1),
        Construction::MswDominant,
        MulticastModel::Msw,
    );
    let ring = GraphTopology::Ring { nodes: 5 }.build();
    let graph = GraphNetwork::new(ring, 2, 1, Splitting::Hierarchy, MulticastModel::Msw);
    let xbar = CrossbarSession::new(NetworkConfig::new(8, 2), MulticastModel::Msw);
    let domain = |ports, modules, middles| FaultDomain {
        ports,
        modules,
        middles,
    };
    assert_eq!(clos.fault_domain(), domain(8, 4, 7));
    assert_eq!(graph.fault_domain(), domain(10, 5, 5));
    assert_eq!(xbar.fault_domain(), domain(8, 8, 0));
    let d = clos.fault_domain();
    for (inside, outside) in [
        (Fault::MiddleSwitch(6), Fault::MiddleSwitch(7)),
        (Fault::MiddleConverters(6), Fault::MiddleConverters(7)),
        (Fault::Port(7), Fault::Port(8)),
        (Fault::InputConverters(3), Fault::InputConverters(4)),
        (Fault::OutputConverters(3), Fault::OutputConverters(4)),
        (
            Fault::InputLink {
                module: 3,
                middle: 6,
            },
            Fault::InputLink {
                module: 4,
                middle: 6,
            },
        ),
        (
            Fault::MiddleLink {
                middle: 6,
                module: 3,
            },
            Fault::MiddleLink {
                middle: 7,
                module: 3,
            },
        ),
    ] {
        assert!(
            d.contains(&inside) && !d.contains(&outside),
            "{inside} / {outside}"
        );
    }
    assert!(!xbar.fault_domain().contains(&Fault::MiddleSwitch(0)));
}
