//! The seeded wire adversary, first slice: hostile and careless clients
//! against the serving core on its simulated driver. Each row is one
//! client behaviour run under 64 schedule seeds; after every seed the
//! run must not have panicked, the backend must be consistent, nothing
//! may stay lit after the drain, and the outcome conservation laws must
//! hold. The same laws bind fault frames racing admissions from other
//! lanes.

use wdm_core::{Endpoint, Fault, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::codec::encode_request;
use wdm_net::serving::MAX_QUEUED_OUTPUT;
use wdm_net::{RejectReason, Request, Response, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION};
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
fn drive<B: Backend>(sim: &mut NetSim<B>, seed: u64, mut each: impl FnMut(&NetSim<B>)) {
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
    let got: Vec<_> = sim.responses(l).iter().map(|(id, _)| *id).collect();
    assert_eq!(got, [0], "seed {seed}");
    assert!(matches!(
        sim.responses(l)[0].1,
        Response::ProtocolError { .. }
    ));
    assert!(all_reaped(&sim), "seed {seed}: closed after the error");
    assert_eq!(sim.stats().protocol_errors, 1);
    sim.finish()
}

/// A frame of `version` — retired or not yet spoken — between two good
/// ones: the first is answered, the bad one earns a `ProtocolError`,
/// nothing after it is served, and the connection is reaped.
fn version_mid_stream(version: u8, seed: u64) -> RuntimeReport<CrossbarSession> {
    assert_ne!(version, WIRE_VERSION);
    let mut sim = new_sim();
    let l = sim.lane(3, Peer::Reads);
    let mut bad = encode_request(2, &Request::Ping);
    bad[2] = version;
    sim.script(l, encode_request(1, &Request::Ping));
    sim.script(l, bad);
    sim.script(l, encode_request(3, &Request::Ping));
    drive(&mut sim, seed, |_| {});
    let got: Vec<_> = sim.responses(l).iter().map(|(id, r)| (*id, r)).collect();
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

fn sorted_responses<B: Backend>(sim: &NetSim<B>, l: usize) -> Vec<(u64, Response)> {
    let mut got = sim.responses(l).to_vec();
    got.sort_by_key(|(id, _)| *id);
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
    let rows: [Row; 6] = [
        ("length past MAX_PAYLOAD", oversized_length),
        ("retired version 1 mid-stream", |seed| {
            version_mid_stream(1, seed)
        }),
        ("retired version 2 mid-stream", |seed| {
            version_mid_stream(2, seed)
        }),
        ("next version mid-stream", |seed| {
            version_mid_stream(WIRE_VERSION + 1, seed)
        }),
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

/// A three-stage fabric (n=2, r=4, k=1) with one middle above the
/// Theorem 1 bound, behind a fresh simulated server.
fn spare_clos() -> (NetSim<ThreeStageNetwork>, u32) {
    let m = bounds::theorem1_min_m(2, 4).m + 1;
    let params = ThreeStageParams::new(2, m, 4, 1);
    let net = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    (NetSim::new(net, 2, RuntimeConfig::default()), m)
}

fn multicast(src: u32, dsts: [u32; 2]) -> MulticastConnection {
    MulticastConnection::new(Endpoint::new(src, 0), dsts.map(|d| Endpoint::new(d, 0))).unwrap()
}

/// Script `reqs` on a fresh lane with window `window`.
fn scripted_lane<B: Backend>(sim: &mut NetSim<B>, window: usize, reqs: &[Request]) -> usize {
    let l = sim.lane(window, Peer::Reads);
    for (id, req) in (1u64..).zip(reqs) {
        sim.script(l, encode_request(id, req));
    }
    l
}

/// A fault frame waits for every frame its connection sent before it:
/// a connect and a kill of the middle first-fit routes it through,
/// read in one chunk, must evict (and heal) that connection.
#[test]
fn fault_frame_lands_after_earlier_frames_of_its_connection() {
    for seed in 0..SEEDS {
        let (mut sim, _) = spare_clos();
        let reqs = [
            Request::Connect(unicast(0, 4)),
            Request::Inject(Fault::MiddleSwitch(0)),
            Request::Disconnect(Endpoint::new(0, 0)),
        ];
        let l = scripted_lane(&mut sim, 3, &reqs);
        sim.step(Step::Send(l));
        sim.step(Step::Send(l));
        sim.step(Step::Read(l));
        drive(&mut sim, seed, |_| {});
        let got = sorted_responses(&sim, l);
        let healed = Response::Healed {
            hit: 1,
            healed: 1,
            failed: 0,
        };
        assert_eq!(got[1].1, healed, "seed {seed}: {got:?}");
        assert!(sim.finish().is_clean());
    }
}

/// A fault frame naming a middle the fabric does not have is refused
/// before it reaches the backend, and after a drain a fault frame is
/// refused as `Draining`.
#[test]
fn fault_frames_outside_the_fabric_or_after_a_drain_are_refused() {
    let (mut sim, m) = spare_clos();
    let reqs = [
        Request::Inject(Fault::MiddleSwitch(m)),
        Request::Repair(Fault::Port(8)),
        Request::Drain,
        Request::Inject(Fault::MiddleSwitch(0)),
    ];
    let l = scripted_lane(&mut sim, 1, &reqs);
    drive(&mut sim, 0, |_| {});
    let reasons: Vec<_> = sorted_responses(&sim, l)
        .into_iter()
        .filter_map(|(_, r)| match r {
            Response::Rejected { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    use RejectReason::{Draining, Fatal};
    assert_eq!(reasons, [Fatal, Fatal, Draining]);
    let report = sim.finish();
    assert!(
        report.backend.faults().is_empty(),
        "{}",
        report.backend.faults()
    );
    assert_eq!(report.summary.faults_injected, 0);
}

/// Fault frames from one lane race connects and disconnects from two
/// others, under 64 schedule seeds: no panic, no wedge (every frame is
/// answered), no wavelength left lit, the conservation laws (orphaned
/// departures included), and the server's fault counters equal to the
/// frames it accepted.
#[test]
fn fault_frames_race_admissions_across_lanes() {
    let (mut hit, mut orphaned) = (0, 0);
    for seed in 0..SEEDS {
        let (mut sim, m) = spare_clos();
        let faults = [
            Request::Inject(Fault::MiddleSwitch(0)),
            Request::Inject(Fault::Port(5)),
            Request::Inject(Fault::MiddleSwitch(1)),
            Request::Inject(Fault::MiddleSwitch(m)),
            Request::Repair(Fault::MiddleSwitch(0)),
            Request::Repair(Fault::Port(5)),
            Request::Repair(Fault::Port(5)),
            Request::Repair(Fault::MiddleSwitch(1)),
        ];
        let churn = |a: u32, b: u32, dsts: [u32; 2]| {
            let mut reqs = Vec::new();
            for _ in 0..3 {
                for src in [a, b] {
                    reqs.push(Request::Connect(multicast(src, dsts)));
                    reqs.push(Request::Disconnect(Endpoint::new(src, 0)));
                }
            }
            reqs
        };
        let lanes = [
            scripted_lane(&mut sim, 2, &faults),
            scripted_lane(&mut sim, 4, &churn(0, 2, [4, 5])),
            scripted_lane(&mut sim, 4, &churn(1, 3, [6, 7])),
        ];
        drive(&mut sim, seed, |_| {});
        for (l, sent) in lanes.into_iter().zip([faults.len(), 12, 12]) {
            assert_eq!(sim.responses(l).len(), sent, "seed {seed}: lane {l} wedged");
        }
        let (mut injected, mut repaired) = (0, 0);
        for (_, r) in sim.responses(lanes[0]) {
            match r {
                Response::Healed { .. } => injected += 1,
                Response::Repaired(true) => repaired += 1,
                _ => {}
            }
        }
        let report = sim.finish();
        let s = &report.summary;
        assert_eq!((s.faults_injected, s.faults_repaired), (injected, repaired));
        assert_eq!(s.wavelength_live, [0], "seed {seed}: a wavelength leaked");
        assert!(report.backend.check_consistency().is_empty(), "seed {seed}");
        hit += s.connections_hit;
        orphaned += s.orphaned_departures;
        let run = SimRun {
            outcomes: Vec::new(),
            report,
            virtual_secs: 0.0,
        };
        let violations = invariant_violations(&run, false);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
    assert!(
        hit > 0 && orphaned > 0,
        "the faults hit nothing: {hit} {orphaned}"
    );
}
