//! Integration tests for the extension features: recursive five-stage
//! networks, photonic realizations, limited-range conversion, crossbar
//! sessions, path tracing, and dynamic traffic.

use wdm_multicast::core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_multicast::fabric::{trace_signal, CrossbarSession, PowerParams};
use wdm_multicast::multistage::{
    bounds, Construction, FiveStageNetwork, PhotonicFiveStage, PhotonicThreeStage, RouteError,
    SelectionStrategy, ThreeStageNetwork, ThreeStageParams,
};
use wdm_multicast::workload::{AssignmentGen, DynamicTraffic, TraceEvent};

#[test]
fn five_stage_and_photonic_agree_under_dynamic_traffic() {
    let mut five = FiveStageNetwork::square(16, 2, Construction::MswDominant, MulticastModel::Msw);
    let mut photonic = PhotonicFiveStage::build(&five, MulticastModel::Msw);
    let mut traffic = DynamicTraffic::new(five.network(), MulticastModel::Msw, 3.0, 1.0, 4, 99);
    for timed in traffic.generate(60.0) {
        match timed.event {
            TraceEvent::Connect(conn) => {
                five.connect(&conn)
                    .expect("five-stage at bounds never blocks");
            }
            TraceEvent::Disconnect(src) => {
                five.disconnect(src).unwrap();
            }
        }
    }
    let outcome = photonic
        .realize(&five)
        .expect("hardware follows the logical state");
    assert!(outcome.delivered_exactly(five.assignment()));
}

#[test]
fn photonic_three_stage_strategies_all_realizable() {
    // Whatever middle switches the strategy picks, the hardware must
    // carry the light.
    let (n, r, k) = (3u32, 3u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    for strategy in [
        SelectionStrategy::FirstFit,
        SelectionStrategy::Pack,
        SelectionStrategy::Spread,
    ] {
        let mut logical = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        logical.set_strategy(strategy);
        let mut gen = AssignmentGen::new(p.network(), MulticastModel::Msw, 31);
        for _ in 0..10 {
            if let Some(req) = gen.next_request(logical.assignment(), 4) {
                let _ = logical.connect(&req);
            }
        }
        let mut photonic =
            PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msw);
        let outcome = photonic.realize(&logical).unwrap();
        assert!(
            outcome.delivered_exactly(logical.assignment()),
            "{strategy:?}"
        );
    }
}

#[test]
fn limited_range_interpolates_between_constructions() {
    // Blocking under MAW churn: reach 0 ≥ reach 1 ≥ full range (= 0
    // blocked at the Theorem 2 bound).
    let (n, r, k) = (3u32, 3u32, 4u32);
    let m = bounds::theorem2_min_m(n, r, k).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let trace =
        wdm_multicast::workload::RequestTrace::churn(p.network(), MulticastModel::Maw, 1500, 35, 5);
    let blocked_with = |range: Option<u32>| {
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_conversion_range(range);
        let mut blocked = 0usize;
        trace
            .replay(|event| -> Result<(), String> {
                match event {
                    TraceEvent::Connect(conn) => match net.connect(conn) {
                        Ok(_) => {}
                        Err(RouteError::Blocked { .. }) => blocked += 1,
                        Err(e) => return Err(e.to_string()),
                    },
                    TraceEvent::Disconnect(src) => {
                        let _ = net.disconnect(*src);
                    }
                }
                Ok(())
            })
            .unwrap();
        blocked
    };
    let b0 = blocked_with(Some(0));
    let b1 = blocked_with(Some(1));
    let bfull = blocked_with(None);
    assert_eq!(bfull, 0, "full range at the Theorem 2 bound must not block");
    assert!(
        b0 >= b1,
        "reach 0 ({b0}) should block at least as much as reach 1 ({b1})"
    );
    assert!(b0 > 0, "frozen converters must block under MAW churn");
}

#[test]
fn session_admits_and_delivers_scenario_assignments() {
    use wdm_multicast::workload::app_mix::AppMix;
    let net = NetworkConfig::new(12, 2);
    for model in MulticastModel::ALL {
        let offered = AppMix::VideoConference { group_size: 4 }.generate(net, model, 3);
        let mut session = CrossbarSession::new(net, model);
        for conn in offered.connections() {
            session.connect(conn).unwrap();
        }
        let (_, outcome) = session.verify().unwrap();
        assert!(outcome.delivered_exactly(session.assignment()), "{model}");
    }
}

#[test]
fn path_loss_orders_msw_below_maw() {
    // The same unicast costs more optical budget in the MAW fabric (its
    // splitters fan to Nk, and the output converter adds loss).
    let net = NetworkConfig::new(6, 3);
    let params = PowerParams::default();
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(4, 0));
    let loss = |model| {
        let mut session = CrossbarSession::new(net, model);
        session.connect(&conn).unwrap();
        let (xbar, outcome) = session.verify().unwrap();
        trace_signal(xbar.netlist(), &outcome, Endpoint::new(4, 0), &params)
            .unwrap()
            .loss_db
    };
    assert!(loss(MulticastModel::Msw) < loss(MulticastModel::Maw));
}

#[test]
fn photonic_fault_on_routed_path_is_detected() {
    // Use path tracing to find a load-bearing gate deep inside the
    // three-stage netlist, break it, and watch realization fail at
    // exactly the affected endpoint.
    use wdm_multicast::fabric::{Component, ComponentKind};
    let p = ThreeStageParams::new(2, 4, 2, 2);
    let mut logical = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    let dest = Endpoint::new(3, 0);
    logical
        .connect(&MulticastConnection::unicast(Endpoint::new(0, 0), dest))
        .unwrap();
    let mut photonic = PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msw);
    let healthy = photonic.realize(&logical).unwrap();
    let path = trace_signal(photonic.netlist(), &healthy, dest, &PowerParams::default()).unwrap();
    // The path crosses three gates (one per stage).
    let gates: Vec<_> = path
        .nodes
        .iter()
        .copied()
        .filter(|&id| photonic.netlist().component(id).kind() == ComponentKind::SoaGate)
        .collect();
    assert_eq!(gates.len(), 3, "one crosspoint per stage");
    // Break the *middle-stage* gate (the second one).
    assert!(photonic.break_node(gates[1]));
    match photonic.realize(&logical) {
        Err(wdm_multicast::fabric::FabricError::DeliveryFailure { endpoint }) => {
            assert_eq!(endpoint, dest);
        }
        other => panic!("fault not detected: {other:?}"),
    }
    // Sanity: breaking a non-device node is refused.
    let some_mux = photonic
        .netlist()
        .iter()
        .find(|(_, c)| matches!(c, Component::Mux))
        .map(|(id, _)| id)
        .unwrap();
    assert!(!photonic.break_node(some_mux));
}

#[test]
fn dynamic_traffic_blocking_monotone_in_m() {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let blocked_at = |m: u32| {
        let p = ThreeStageParams::new(n, m, r, k);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        let mut traffic = DynamicTraffic::new(p.network(), MulticastModel::Msw, 8.0, 1.0, 3, 1);
        let mut blocked = 0usize;
        for timed in traffic.generate(150.0) {
            match timed.event {
                TraceEvent::Connect(conn) => {
                    if matches!(net.connect(&conn), Err(RouteError::Blocked { .. })) {
                        blocked += 1;
                    }
                }
                TraceEvent::Disconnect(src) => {
                    let _ = net.disconnect(src);
                }
            }
        }
        blocked
    };
    let b2 = blocked_at(2);
    let b4 = blocked_at(4);
    let b13 = blocked_at(bounds::theorem1_min_m(n, r).m);
    assert!(b2 > b4, "{b2} !> {b4}");
    assert_eq!(b13, 0);
}
