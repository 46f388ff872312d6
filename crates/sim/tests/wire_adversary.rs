//! The seeded wire adversary, first slice: hostile and careless clients
//! against the serving core on its simulated driver. Each row is one
//! client behaviour run under 64 schedule seeds; after every seed the
//! run must not have panicked, the backend must be consistent, nothing
//! may stay lit after the drain, and the outcome conservation laws must
//! hold.

use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_net::codec::{encode_request, encode_request_v};
use wdm_net::serving::MAX_QUEUED_OUTPUT;
use wdm_net::{Request, Response, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION};
use wdm_runtime::{Backend, RuntimeConfig, RuntimeReport};
use wdm_sim::{invariant_violations, ChoiceStream, NetSim, Peer, SimRun, Step};

type Sim = NetSim<CrossbarSession>;

const SEEDS: u64 = 64;

fn new_sim() -> Sim {
    let backend = CrossbarSession::new(NetworkConfig::new(8, 2), MulticastModel::Msw);
    NetSim::new(backend, 2, RuntimeConfig::default())
}

fn unicast(src: u32, dst: u32) -> MulticastConnection {
    MulticastConnection::unicast(Endpoint::new(src, 0), Endpoint::new(dst, 0))
}

/// Step `sim` at random to quiescence, calling `each` after every step.
fn drive(sim: &mut Sim, seed: u64, mut each: impl FnMut(&Sim)) {
    let mut choices = ChoiceStream::new(seed);
    while sim.step_random(&mut choices) {
        each(sim);
    }
}

/// The server has let go of every lane.
fn all_reaped(sim: &Sim) -> bool {
    sim.stats().active_conns == 0
}

/// A length field one past `MAX_PAYLOAD`: the header alone earns a
/// `ProtocolError`, and the connection closes before the client (window
/// 1, so it waits for that answer) ever sends a payload byte.
fn oversized_length(seed: u64) -> RuntimeReport<CrossbarSession> {
    let mut sim = new_sim();
    let l = sim.lane(1, Peer::Reads);
    let mut header = encode_request(1, &Request::Ping);
    header[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
    assert_eq!(header.len(), HEADER_LEN);
    sim.script(l, header);
    sim.script(l, vec![0; 64]);
    drive(&mut sim, seed, |_| {});
    let got: Vec<_> = sim
        .responses(l)
        .iter()
        .map(|(v, id, _)| (*v, *id))
        .collect();
    assert_eq!(got, [(WIRE_VERSION, 0)], "seed {seed}");
    assert!(matches!(
        sim.responses(l)[0].2,
        Response::ProtocolError { .. }
    ));
    assert!(all_reaped(&sim), "seed {seed}: closed after the error");
    assert_eq!(sim.stats().protocol_errors, 1);
    sim.finish()
}

/// A v1 frame, then a v2 frame, on one connection: each is answered in
/// its own version.
fn version_switch(seed: u64) -> RuntimeReport<CrossbarSession> {
    let mut sim = new_sim();
    let l = sim.lane(4, Peer::Reads);
    sim.script(l, encode_request_v(1, 1, &Request::Connect(unicast(0, 1))));
    let batch = Request::BatchConnect(vec![unicast(2, 3)]);
    sim.script(l, encode_request_v(2, 2, &batch));
    let gone = |src| Request::Disconnect(Endpoint::new(src, 0));
    sim.script(l, encode_request_v(1, 3, &gone(0)));
    sim.script(l, encode_request_v(2, 4, &gone(2)));
    drive(&mut sim, seed, |_| {});
    let mut got = sim.responses(l).to_vec();
    got.sort_by_key(|(_, id, _)| *id);
    let want = [
        (1, 1, Response::Ok),
        (2, 2, Response::Batch(vec![Response::Ok])),
        (1, 3, Response::Ok),
        (2, 4, Response::Ok),
    ];
    assert_eq!(got, want, "seed {seed}");
    sim.finish()
}

/// A version-3 frame between two good ones: the first is answered, the
/// bad one earns a `ProtocolError`, and nothing after it is served.
fn version_3_mid_stream(seed: u64) -> RuntimeReport<CrossbarSession> {
    let mut sim = new_sim();
    let l = sim.lane(3, Peer::Reads);
    let mut v3 = encode_request(2, &Request::Ping);
    v3[2] = 3;
    sim.script(l, encode_request(1, &Request::Ping));
    sim.script(l, v3);
    sim.script(l, encode_request(3, &Request::Ping));
    drive(&mut sim, seed, |_| {});
    let got: Vec<_> = sim.responses(l).iter().map(|(_, id, r)| (*id, r)).collect();
    assert_eq!(got.len(), 2, "seed {seed}: {got:?}");
    assert_eq!(got[0], (1, &Response::Pong));
    assert!(matches!(got[1], (0, Response::ProtocolError { .. })));
    assert!(all_reaped(&sim), "seed {seed}");
    sim.finish()
}

/// A peer that hangs up with requests in flight: the server keeps the
/// connection until every engine callback that would write to it has
/// resolved, and only then reaps it.
fn hang_up_in_flight(seed: u64) -> RuntimeReport<CrossbarSession> {
    let mut sim = new_sim();
    let l = sim.lane(8, Peer::HangsUp);
    for (id, src) in (1u64..).zip(0..4u32) {
        sim.script(
            l,
            encode_request(id, &Request::Connect(unicast(src, src + 4))),
        );
    }
    for (id, src) in (5u64..).zip(0..4u32) {
        sim.script(
            l,
            encode_request(id, &Request::Disconnect(Endpoint::new(src, 0))),
        );
    }
    drive(&mut sim, seed, |sim| {
        if all_reaped(sim) {
            let idle = !sim.enabled().contains(&Step::Cycle) && (0..2).all(|s| sim.parked(s) == 0);
            assert!(idle, "seed {seed}: reaped with callbacks unresolved");
        }
    });
    assert!(all_reaped(&sim), "seed {seed}");
    sim.finish()
}

/// The polite neighbour of the flood: admissions, departures and pings
/// on sources of its own.
fn polite_lane(sim: &mut Sim) -> usize {
    let l = sim.lane(4, Peer::Reads);
    let script = [
        Request::Connect(unicast(4, 5)),
        Request::Ping,
        Request::Connect(unicast(6, 7)),
        Request::Disconnect(Endpoint::new(4, 0)),
        Request::Disconnect(Endpoint::new(6, 0)),
    ];
    for (id, req) in (1u64..).zip(&script) {
        sim.script(l, encode_request(id, req));
    }
    l
}

fn sorted_responses(sim: &Sim, l: usize) -> Vec<(u8, u64, Response)> {
    let mut got = sim.responses(l).to_vec();
    got.sort_by_key(|(_, id, _)| *id);
    got
}

/// A lane that pipelines 100 000 `Ping`s and never reads: its queued
/// output stays within the cap plus one `Pong`, and a polite lane
/// beside it gets exactly the answers it gets alone.
fn ping_flood(seed: u64) -> RuntimeReport<CrossbarSession> {
    let pong_len = HEADER_LEN;
    let mut solo = new_sim();
    let alone = polite_lane(&mut solo);
    drive(&mut solo, seed, |_| {});

    let mut sim = new_sim();
    let flood = sim.lane(usize::MAX, Peer::NeverReads);
    let burst: Vec<u8> = (0..1000u64)
        .flat_map(|id| encode_request(id, &Request::Ping))
        .collect();
    for _ in 0..100 {
        sim.script(flood, burst.clone());
    }
    let polite = polite_lane(&mut sim);
    drive(&mut sim, seed, |sim| {
        let held = sim.buffered(flood);
        assert!(
            held <= MAX_QUEUED_OUTPUT + pong_len,
            "seed {seed}: {held} B"
        );
    });
    assert!(sim.buffered(flood) > MAX_QUEUED_OUTPUT, "the cap engaged");
    assert_eq!(
        sorted_responses(&sim, polite),
        sorted_responses(&solo, alone)
    );
    solo.finish();
    sim.finish()
}

#[test]
fn hostile_clients_degrade_by_the_taxonomy() {
    type Row = (&'static str, fn(u64) -> RuntimeReport<CrossbarSession>);
    let rows: [Row; 5] = [
        ("length past MAX_PAYLOAD", oversized_length),
        ("v1 then v2 on one connection", version_switch),
        ("version 3 mid-stream", version_3_mid_stream),
        ("hang-up with requests in flight", hang_up_in_flight),
        ("never-reading ping flood", ping_flood),
    ];
    for (name, row) in rows {
        for seed in 0..SEEDS {
            let report = row(seed);
            assert!(report.backend.check().is_empty(), "{name} seed {seed}");
            assert_eq!(report.summary.active, 0, "{name} seed {seed}");
            let run = SimRun {
                outcomes: Vec::new(),
                report,
                virtual_secs: 0.0,
            };
            let violations = invariant_violations(&run, true);
            assert!(violations.is_empty(), "{name} seed {seed}: {violations:?}");
        }
    }
}
