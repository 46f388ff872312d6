//! End-to-end acceptance tests over loopback TCP: N client threads
//! stream a `wdm-workload` trace through [`NetClient`]s into a
//! [`ReactorServer`] fronting a Theorem-1-sized three-stage network with
//! `m` at the nonblocking bound. The drained report must be clean with
//! **zero** blocks (the theorem's claim, holding across a real socket
//! boundary), and the server-observed admission count must equal the
//! clients' observed acks. The serving-layer behaviours ride along:
//! coalescing telemetry is live, the in-flight cap sheds with
//! `Backpressure`, malformed frames close the connection, drains are
//! idempotent, and v1 clients and wire batches round-trip.

#![cfg(target_os = "linux")]

use std::thread;
use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::{ClientConfig, NetClient, ReactorConfig, ReactorServer, RejectReason};
use wdm_net::{Request, Response};
use wdm_runtime::{AdmissionEngine, EngineBuilder};
use wdm_workload::{close_trace, partition_by_source, DynamicTraffic, TimedEvent, TraceEvent};

const CLIENTS: usize = 4;

fn trace(net: NetworkConfig, seed: u64) -> Vec<TimedEvent> {
    let horizon = 20.0;
    let mut events =
        DynamicTraffic::new(net, MulticastModel::Msw, 6.0, 1.0, 2, seed).generate(horizon);
    close_trace(&mut events, horizon + 1.0);
    events
}

fn crossbar_engine(ports: u32, k: u32) -> AdmissionEngine<CrossbarSession> {
    let backend = CrossbarSession::new(NetworkConfig::new(ports, k), MulticastModel::Msw);
    EngineBuilder::new().start(backend)
}

fn serve_crossbar(ports: u32, k: u32, config: ReactorConfig) -> ReactorServer<CrossbarSession> {
    ReactorServer::serve(crossbar_engine(ports, k), "127.0.0.1:0", config).expect("bind")
}

/// Replay one lane through one connection, fully pipelined (a windowed
/// loop could stall against a parked admission whose freeing departure
/// sits in an unsent window).
fn replay_lane(addr: std::net::SocketAddr, lane: Vec<TimedEvent>) -> (u64, u64, Vec<Response>) {
    let mut client = NetClient::connect(addr).expect("client connects");
    let mut connect_acks = 0u64;
    let mut disconnect_responses = 0u64;
    let mut rejects = Vec::new();
    let reqs: Vec<Request> = lane.iter().map(|ev| Request::from(&ev.event)).collect();
    let resps = client.pipeline(&reqs).expect("pipelined replay");
    for (req, resp) in reqs.iter().zip(&resps) {
        assert!(
            !matches!(resp, Response::ProtocolError { .. }),
            "server reported a protocol error for {req:?}: {resp:?}"
        );
        match (req, resp) {
            (Request::Connect(_), Response::Ok) => connect_acks += 1,
            (Request::Disconnect(_), _) => disconnect_responses += 1,
            (_, other) => rejects.push(other.clone()),
        }
    }
    (connect_acks, disconnect_responses, rejects)
}

#[test]
fn reactor_replay_at_the_bound_is_nonblocking_and_coalesces() {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m;
    let p = ThreeStageParams::new(n, m, r, k);
    let backend = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    let engine = EngineBuilder::new().start(backend);
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();

    let events = trace(p.network(), 42);
    let offered: u64 = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Connect(_)))
        .count() as u64;
    let disconnects = events.len() as u64 - offered;
    assert!(offered > 20, "trace too small to mean anything");

    let lanes = partition_by_source(events, CLIENTS);
    let handles: Vec<_> = lanes
        .into_iter()
        .map(|lane| thread::spawn(move || replay_lane(addr, lane)))
        .collect();
    let mut connect_acks = 0u64;
    let mut disconnect_responses = 0u64;
    let mut rejects = Vec::new();
    for h in handles {
        let (acks, dis, rej) = h.join().expect("client thread");
        connect_acks += acks;
        disconnect_responses += dis;
        rejects.extend(rej);
    }
    assert_eq!(disconnect_responses, disconnects);
    assert_eq!(connect_acks + rejects.len() as u64, offered);

    // The coalescing path actually ran: frames were decoded, every
    // admission went through a coalesced submission, and the acceptor
    // saw every client.
    let stats = server.stats();
    assert!(stats.accepted >= CLIENTS as u64, "{stats:?}");
    assert!(stats.frames >= offered + disconnects, "{stats:?}");
    assert!(stats.coalesced_batches > 0, "{stats:?}");
    assert_eq!(
        stats.coalesced_events,
        offered + disconnects,
        "every connect/disconnect flowed through a coalesced batch: {stats:?}"
    );
    assert!(stats.coalesced_batch_mean >= 1.0, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");

    // Drain over the wire and cross-check the final report.
    let mut control = NetClient::connect(addr).expect("control client");
    match control.drain().expect("drain round trip") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.blocked, 0, "blocked at m = Theorem 1 bound");
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let resp = control.snapshot().expect("post-drain snapshot");
    assert!(matches!(resp, Response::Snapshot(_)));

    let report = server.wait();
    assert_eq!(report.worker_panics, 0);
    assert!(report.is_clean(), "{:?}", report.consistency);
    assert_eq!(report.summary.blocked, 0);
    assert_eq!(report.summary.admitted, connect_acks);
    assert_eq!(report.summary.offered, offered);
}

#[test]
fn reactor_drain_refuses_new_connects_with_draining() {
    let server = serve_crossbar(4, 2, ReactorConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    assert!(matches!(
        client.drain().expect("drain"),
        Response::DrainReport { clean: true, .. }
    ));
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
    match client
        .call(&Request::Connect(conn))
        .expect("post-drain connect")
    {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Draining),
        other => panic!("expected Draining rejection, got {other:?}"),
    }
    let report = server.wait();
    assert!(report.is_clean());
}

/// Two `Drain` frames on one connection: the first consumes the engine,
/// the second must answer with the *same* completed summary rather than
/// hanging, erroring, or re-draining — and the server still tears down
/// to a single clean report.
#[test]
fn reactor_drain_frame_twice_is_idempotent() {
    let server = serve_crossbar(4, 2, ReactorConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
    assert!(matches!(
        client.call(&Request::Connect(conn)).expect("connect req"),
        Response::Ok
    ));
    assert!(matches!(
        client
            .call(&Request::Disconnect(Endpoint::new(0, 0)))
            .expect("disconnect req"),
        Response::Ok
    ));

    let first = match client.drain().expect("first drain") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "first drain not clean");
            summary
        }
        other => panic!("expected DrainReport, got {other:?}"),
    };
    let second = match client.drain().expect("second drain") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "second drain not clean");
            summary
        }
        other => panic!("expected DrainReport, got {other:?}"),
    };
    assert_eq!(first.offered, second.offered);
    assert_eq!(first.admitted, second.admitted);
    assert_eq!(first.departed, second.departed);
    assert_eq!(first.orphaned_departures, second.orphaned_departures);
    assert_eq!(first.admitted, 1);
    assert_eq!(first.departed, 1);

    let report = server.wait();
    assert!(report.is_clean());
    assert_eq!(report.summary.admitted, 1);
}

#[test]
fn reactor_malformed_frame_gets_protocol_error_then_close() {
    use std::io::{Read, Write};
    let server = serve_crossbar(4, 2, ReactorConfig::default());

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("read until close");
    let frame = wdm_net::codec::read_frame(&mut std::io::Cursor::new(buf)).expect("frame");
    match wdm_net::codec::decode_response(&frame).expect("decodes") {
        Response::ProtocolError { message } => assert!(message.contains("magic")),
        other => panic!("expected ProtocolError, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors, 1);

    let report = server.shutdown();
    assert!(report.is_clean());
}

/// Version negotiation: a strict v1 client (stamping version 1 on every
/// frame, and rejecting any other version byte in replies thanks to the
/// codec's range check) must round-trip ping/connect/disconnect against
/// the v2 server unchanged — the server mirrors the request's version.
#[test]
fn reactor_v1_client_round_trips_against_v2_server() {
    assert_eq!(wdm_net::WIRE_VERSION, 2);
    let server = serve_crossbar(4, 2, ReactorConfig::default());

    let config = ClientConfig {
        wire_version: 1,
        ..ClientConfig::default()
    };
    let mut v1 = NetClient::connect_with(server.local_addr(), config).expect("connect");
    v1.ping().expect("v1 ping");
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
    assert!(matches!(
        v1.call(&Request::Connect(conn)).expect("v1 connect"),
        Response::Ok
    ));
    assert!(matches!(
        v1.call(&Request::Disconnect(Endpoint::new(0, 0)))
            .expect("v1 disconnect"),
        Response::Ok
    ));
    assert!(matches!(
        v1.snapshot().expect("v1 snapshot"),
        Response::Snapshot(_)
    ));

    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.summary.admitted, 1);
}

/// A v2 `BatchConnect` answers with one `Batch` reply whose items line
/// up index-for-index with the submitted connections.
#[test]
fn reactor_batch_connect_round_trips_with_per_item_verdicts() {
    let server = serve_crossbar(4, 2, ReactorConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let conns = vec![
        MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0)),
        MulticastConnection::unicast(Endpoint::new(2, 0), Endpoint::new(3, 0)),
        // Same source again: must come back rejected, never dropped.
        MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(3, 0)),
    ];
    let verdicts = client.connect_batch(conns).expect("batch round trip");
    assert_eq!(verdicts.len(), 3);
    assert!(matches!(verdicts[0], Response::Ok));
    assert!(matches!(verdicts[1], Response::Ok));
    assert!(
        matches!(verdicts[2], Response::Rejected { .. }),
        "source 0 is already lit: {:?}",
        verdicts[2]
    );
    assert_eq!(
        client.connect_batch(Vec::new()).expect("empty batch"),
        Vec::new()
    );

    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.summary.offered, 3);
    assert_eq!(report.summary.admitted, 2);
}

/// With the per-connection in-flight cap at zero every admission frame
/// is shed with `Backpressure` before reaching the engine — the
/// deterministic edge of the cap — and the `shed` counter records each
/// refusal. Pings are exempt (they never enter the engine).
#[test]
fn reactor_inflight_cap_sheds_with_backpressure() {
    let server = serve_crossbar(
        4,
        2,
        ReactorConfig {
            max_inflight_per_conn: 0,
            ..ReactorConfig::default()
        },
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping is exempt from the cap");
    let conn = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
    match client.call(&Request::Connect(conn.clone())).expect("call") {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Backpressure),
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // A wire batch over the cap is answered item-for-item.
    let verdicts = client
        .connect_batch(vec![conn.clone(), conn])
        .expect("batch");
    assert_eq!(verdicts.len(), 2);
    for v in &verdicts {
        assert!(
            matches!(
                v,
                Response::Rejected {
                    reason: RejectReason::Backpressure,
                    ..
                }
            ),
            "got {v:?}"
        );
    }
    assert_eq!(server.stats().shed, 2, "one single + one batch refusal");

    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.summary.offered, 0, "nothing reached the engine");
}
