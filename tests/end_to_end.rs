//! End-to-end integration: workload generation → fabric construction →
//! routing → gate-level delivery verification, across crates.

use wdm_multicast::core::{capacity, MulticastModel, NetworkConfig};
use wdm_multicast::fabric::WdmCrossbar;
use wdm_multicast::multistage::{
    bounds, Construction, RouteError, ThreeStageNetwork, ThreeStageParams,
};
use wdm_multicast::workload::app_mix::AppMix;
use wdm_multicast::workload::{AssignmentGen, RequestTrace, TraceEvent};

#[test]
fn random_assignments_route_through_matching_crossbars() {
    for model in MulticastModel::ALL {
        let net = NetworkConfig::new(8, 3);
        let mut gen = AssignmentGen::new(net, model, 2025);
        let mut xbar = WdmCrossbar::build(net, model);
        for i in 0..10 {
            let asg = if i % 2 == 0 {
                gen.full_assignment()
            } else {
                gen.any_assignment()
            };
            let outcome = xbar.route_verified(&asg).unwrap_or_else(|e| {
                panic!("{model} assignment {i} failed: {e}\n{asg}");
            });
            assert!(outcome.delivered_exactly(&asg));
        }
    }
}

#[test]
fn scenario_workloads_route_and_match_cost_model() {
    let net = NetworkConfig::new(12, 2);
    for scenario in [
        AppMix::VideoConference { group_size: 4 },
        AppMix::VideoOnDemand { servers: 2 },
        AppMix::ECommerce { multicast_pct: 30 },
    ] {
        for model in MulticastModel::ALL {
            let asg = scenario.generate(net, model, 7);
            assert!(
                !asg.is_empty(),
                "{} produced nothing under {model}",
                scenario.label()
            );
            let mut xbar = WdmCrossbar::build(net, model);
            let outcome = xbar.route_verified(&asg).unwrap();
            assert!(outcome.delivered_exactly(&asg));
            // Fig. 3 converter accounting holds on real traffic.
            let expected: u64 = asg
                .connections()
                .map(|c| model.converters_per_connection(c.fanout() as u64))
                .sum();
            assert_eq!(asg.converter_demand(), expected);
        }
    }
}

#[test]
fn churn_trace_runs_identically_on_crossbar_and_multistage() {
    // The same trace drives a flat crossbar (always nonblocking) and a
    // Theorem-1-sized three-stage network (nonblocking by Theorem 1);
    // neither may ever fail.
    let (n, r, k) = (3u32, 3u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let net = p.network();
    let model = MulticastModel::Msw;
    let trace = RequestTrace::churn(net, model, 500, 35, 99);

    let mut three = ThreeStageNetwork::new(p, Construction::MswDominant, model);
    let mut xbar = WdmCrossbar::build(net, model);

    trace
        .replay(|event| -> Result<(), String> {
            match event {
                TraceEvent::Connect(conn) => {
                    three.connect(conn).map_err(|e| e.to_string())?;
                }
                TraceEvent::Disconnect(src) => {
                    three.disconnect(*src).map_err(|e| e.to_string())?;
                }
            }
            // After every event, the multistage network's live assignment
            // must also route through the crossbar (they represent the
            // same endpoint-level state).
            let outcome = xbar
                .route_verified(three.assignment())
                .map_err(|e| e.to_string())?;
            assert!(outcome.delivered_exactly(three.assignment()));
            Ok(())
        })
        .expect("both fabrics handle the trace");
    assert!(three.check_consistency().is_empty());
}

#[test]
fn multistage_capacity_equals_crossbar_capacity() {
    // §3.1: a nonblocking multistage network has the same multicast
    // capacity as the crossbar — verified by routing *every* tiny
    // assignment through a Theorem-1-sized network.
    let (n, r, k) = (2u32, 2u32, 1u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let net = p.network();
    let model = MulticastModel::Msw;
    let mut routed = 0u64;
    for map in wdm_multicast::core::enumerate::valid_maps(net, model, true) {
        let asg = map.to_assignment(model).unwrap();
        let mut three = ThreeStageNetwork::new(p, Construction::MswDominant, model);
        for conn in asg.connections() {
            three
                .connect(conn)
                .unwrap_or_else(|e| panic!("assignment not routable in multistage: {e}\n{asg}"));
        }
        routed += 1;
    }
    assert_eq!(
        wdm_multicast::bignum::BigUint::from(routed),
        capacity::any_assignments(net, model)
    );
}

#[test]
fn fig10_outcome_stable_under_request_order() {
    // The blocking contrast does not depend on which setup request comes
    // first — both orders pin λ1 on the shared links.
    use wdm_multicast::multistage::scenarios;
    let mut requests = scenarios::fig10_requests();
    requests.reverse();
    let mut net = ThreeStageNetwork::new(
        scenarios::fig10_params(),
        Construction::MswDominant,
        MulticastModel::Maw,
    );
    net.set_fanout_limit(1);
    let last = requests.pop().unwrap();
    for r in requests {
        net.connect(&r).unwrap();
    }
    assert!(matches!(
        net.connect(&last),
        Err(RouteError::Blocked { .. })
    ));
}

/// Serving-layer smoke, so tier-1 opens a socket: two clients replay a
/// source-partitioned closed trace into a `ReactorServer` fronting a
/// three-stage network at the Theorem-1 bound. No request may come back
/// `Blocked`, and the server's admissions must equal the clients' acks.
#[cfg(target_os = "linux")]
#[test]
fn reactor_serves_a_closed_trace_at_the_bound_without_blocking() {
    use wdm_multicast::net::{
        NetClient, ReactorConfig, ReactorServer, RejectReason, Request, Response,
    };
    use wdm_multicast::runtime::EngineBuilder;
    use wdm_multicast::workload::{close_trace, partition_by_source, DynamicTraffic};

    let (n, r, k) = (4u32, 4u32, 2u32);
    let p = ThreeStageParams::new(n, bounds::theorem1_min_m(n, r).m, r, k);
    let backend = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    let engine = EngineBuilder::new().start(backend);
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();

    let horizon = 10.0;
    let mut events =
        DynamicTraffic::new(p.network(), MulticastModel::Msw, 5.0, 1.0, 3, 11).generate(horizon);
    close_trace(&mut events, horizon + 1.0);
    let clients: Vec<_> = partition_by_source(events, 2)
        .into_iter()
        .map(|lane| {
            std::thread::spawn(move || {
                let reqs: Vec<Request> = lane.iter().map(|ev| Request::from(&ev.event)).collect();
                let mut client = NetClient::connect(addr).expect("connect");
                let resps = client.pipeline(&reqs).expect("pipelined replay");
                let mut acks = 0u64;
                for (req, resp) in reqs.iter().zip(&resps) {
                    assert!(
                        !matches!(
                            resp,
                            Response::Rejected {
                                reason: RejectReason::Blocked,
                                ..
                            }
                        ),
                        "{req:?} blocked at the Theorem-1 bound"
                    );
                    if matches!(req, Request::Connect(_)) && resp.is_ok() {
                        acks += 1;
                    }
                }
                acks
            })
        })
        .collect();
    let acks: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(acks > 20, "trace too small to mean anything: {acks} acks");

    let mut control = NetClient::connect(addr).expect("control client");
    match control.drain().expect("drain round trip") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.blocked, 0);
            assert_eq!(summary.admitted, acks);
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    assert!(server.wait().is_clean());
}

/// Tier-1 smoke of the graph layer: a seeded `HotspotGen` closed loop on
/// the sparse ring in `graph_curves`' shape (ring(8), a splitter on every
/// other node, hierarchy routing, 4 ports per node, k = 2, fanout 2, four
/// live sessions, 60 % of destinations on node 0). Serial replay of
/// seeded draws repeats exactly, so a router that decides anything
/// differently moves these counts.
#[test]
fn graph_hotspot_churn_counts_are_pinned() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wdm_multicast::core::{Endpoint, MulticastAssignment};
    use wdm_multicast::graph::{GraphNetwork, GraphTopology, Splitting};
    use wdm_multicast::runtime::Backend;
    use wdm_multicast::workload::adversarial::Geometry;
    use wdm_multicast::workload::HotspotGen;

    let geo = Geometry { n: 4, r: 8, k: 2 };
    let model = MulticastModel::Msw;
    let (mut attempts, mut admitted, mut blocked, mut hops) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..3u64 {
        let mut gen = HotspotGen::new(geo, model, 0, 60, seed).with_fanout(2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a4b_5eed);
        let mut mirror = MulticastAssignment::new(NetworkConfig::new(geo.ports(), geo.k), model);
        let mut net = GraphNetwork::new(
            GraphTopology::Ring { nodes: geo.r }
                .build()
                .with_mc_every(2),
            geo.n,
            geo.k,
            Splitting::Hierarchy,
            model,
        );
        let mut live: Vec<Endpoint> = Vec::new();
        for _ in 0..600 {
            if live.len() >= 4 {
                let src = live.swap_remove(rng.gen_range(0..live.len()));
                mirror.remove(src).expect("mirror tracked this source");
                net.disconnect(src).expect("admitted source departs");
            }
            let Some(req) = gen.next_request(&mirror) else {
                continue;
            };
            attempts += 1;
            match net.connect(&req) {
                Ok(route) => {
                    admitted += 1;
                    hops += route.hops() as u64;
                    live.push(req.source());
                    mirror.add(req).expect("mirror admits what the graph did");
                }
                Err(_) => blocked += 1,
            }
        }
        for src in live {
            net.disconnect(src).expect("admitted source departs");
        }
        assert_eq!(Backend::active_connections(&net), 0);
        assert_eq!(net.link_utilization().0, 0, "a departed session left light");
        assert_eq!(Backend::check(&net), Vec::<String>::new());
    }
    assert_eq!((attempts, admitted, blocked, hops), (1800, 1649, 151, 7164));
}
