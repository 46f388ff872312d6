//! The DESIGN.md windowed closed-loop stall, as a deterministic
//! regression test — plus randomized loopback conformance through the
//! serving core on its simulated driver.
//!
//! DESIGN.md ("wdm-net → Client") records the caveat: replaying a trace
//! through a *windowed* pipeline can stall, because the departure that
//! would free a parked admission may sit in a window the client has not
//! sent yet — the prescribed behavior is to accept deadline expiries as
//! `Busy` rejects rather than hang. Under real sockets that schedule is
//! a race; under [`NetSim`] it is a script.

use std::time::Duration;
use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_net::codec::encode_request;
use wdm_net::protocol::{RejectReason, Request, Response};
use wdm_runtime::RuntimeConfig;
use wdm_sim::{ChoiceStream, NetSim, Peer, Step};
use wdm_workload::TraceEvent;

fn crossbar(ports: u32) -> CrossbarSession {
    CrossbarSession::new(NetworkConfig::new(ports, 1), MulticastModel::Msw)
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

/// A lane whose client scripts `events` as request frames with ids
/// 1, 2, ….
fn lane(sim: &mut NetSim<CrossbarSession>, window: usize, events: &[TraceEvent]) -> usize {
    let l = sim.lane(window, Peer::Reads);
    for (id, ev) in (1u64..).zip(events) {
        sim.script(l, encode_request(id, &Request::from(ev)));
    }
    l
}

/// The client of lane `l` reads everything buffered and must find
/// exactly one new response.
fn client_recv(sim: &mut NetSim<CrossbarSession>, l: usize) -> Response {
    let before = sim.responses(l).len();
    sim.step(Step::Recv(l));
    assert_eq!(sim.responses(l).len(), before + 1, "one response buffered");
    sim.responses(l)[before].2.clone()
}

/// One request of lane `l` from the client's send to its admission at
/// the end of the server's cycle, and its response written back into
/// the send buffer.
fn round_trip(sim: &mut NetSim<CrossbarSession>, l: usize) {
    sim.step(Step::Send(l));
    sim.step(Step::Read(l));
    sim.step(Step::Cycle);
    if sim.enabled().contains(&Step::Write(l)) {
        sim.step(Step::Write(l));
    }
}

/// The stall, step by step: lane 0 (window 1) admits a connection and
/// holds the freeing departure unsent because its client never reads
/// the admission response; lane 1's rival connect parks behind the
/// occupant. No departure can arrive — the engine's deadline must bound
/// the stall and surface it as an expiry (`Busy` on the wire), after
/// which draining the window completes the trace cleanly.
#[test]
fn unsent_window_stall_is_bounded_by_the_deadline() {
    let runtime = RuntimeConfig {
        max_retries: u32::MAX, // let the deadline, not the budget, bind
        ..RuntimeConfig::default()
    };
    let deadline = runtime.deadline.as_secs_f64();
    let max_backoff = runtime.max_backoff.as_secs_f64();
    let mut sim = NetSim::new(crossbar(4), 2, runtime);
    let a = lane(&mut sim, 1, &[connect(0, 2), disconnect(0)]); // lane 0: window of 1
    let b = lane(&mut sim, 1, &[connect(1, 2)]); // lane 1: the rival

    // Lane 0's connect is admitted; the response sits unread in the
    // client buffer, so the window stays full and the departure unsent.
    round_trip(&mut sim, a);
    assert!(
        sim.enabled().contains(&Step::Recv(a)),
        "admission response is buffered"
    );
    assert!(
        !sim.enabled().contains(&Step::Send(a)),
        "window of 1 is full until the client reads"
    );

    // Lane 1's rival connect parks behind the occupant.
    round_trip(&mut sim, b);
    assert_eq!(sim.parked(1), 1, "rival must park, not fail");

    // Nothing else is runnable: only the virtual clock can move. The
    // deadline — not an unbounded hang — must resolve the parked rival.
    while sim.parked(1) > 0 {
        let due = sim.next_due().expect("parked request keeps a due time");
        sim.advance(due.max(Duration::from_nanos(1)));
        sim.step(Step::Retry(1));
    }
    assert!(
        sim.virtual_secs() >= deadline,
        "expired before the deadline: {}",
        sim.virtual_secs()
    );
    assert!(
        sim.virtual_secs() <= deadline + max_backoff + 1e-6,
        "deadline did not bound the stall: {}",
        sim.virtual_secs()
    );
    sim.step(Step::Write(b));
    let resp = client_recv(&mut sim, b);
    assert!(
        matches!(
            resp,
            Response::Rejected {
                reason: RejectReason::Busy,
                ..
            }
        ),
        "stall surfaces as a Busy reject, got {resp:?}"
    );

    // Drain the window: the departure flows and the run ends clean.
    let resp = client_recv(&mut sim, a);
    assert!(resp.is_ok());
    round_trip(&mut sim, a);
    let resp = client_recv(&mut sim, a);
    assert!(resp.is_ok(), "departure completes after the window drains");

    let report = sim.finish();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.summary.admitted, 1);
    assert_eq!(report.summary.departed, 1);
    assert_eq!(report.summary.expired, 1, "exactly the stalled rival");
}

/// With windows wide enough that departures are never held back, the
/// full serving path (encode → frame → decode → coalesce → admit →
/// respond) must deliver every outcome under any seeded schedule: all
/// events resolve, nothing expires, and the engine drains clean.
#[test]
fn loopback_codec_conformance_under_random_schedules() {
    // Two lanes sharing destination 2: cross-lane conflicts exercise
    // park-and-retry through the wire path.
    let lane0 = vec![connect(0, 2), disconnect(0), connect(0, 3), disconnect(0)];
    let lane1 = vec![connect(1, 2), disconnect(1)];
    for seed in 0..64u64 {
        let mut sim = NetSim::new(crossbar(4), 2, RuntimeConfig::default());
        lane(&mut sim, 8, &lane0);
        lane(&mut sim, 8, &lane1);
        let mut choices = ChoiceStream::new(seed);
        sim.run(&mut choices);
        for lane in 0..2 {
            for (_, id, resp) in sim.responses(lane) {
                assert!(
                    resp.is_ok(),
                    "seed {seed}: lane {lane} id {id} got {resp:?}"
                );
            }
        }
        assert_eq!(sim.responses(0).len(), 4, "seed {seed}");
        assert_eq!(sim.responses(1).len(), 2, "seed {seed}");
        let report = sim.finish();
        assert!(report.is_clean(), "seed {seed}: {:?}", report.errors);
        assert_eq!(report.summary.expired, 0, "seed {seed}");
        assert_eq!(report.summary.active, 0, "seed {seed}");
    }
}

/// `Ping` is answered inline by the serving layer, never touching the
/// admission path — exactly like the real server.
#[test]
fn ping_answered_inline() {
    let mut sim = NetSim::new(crossbar(4), 1, RuntimeConfig::default());
    let l = sim.lane(4, Peer::Reads);
    // A Ping ahead of the scripted traffic is answered without any
    // engine step.
    sim.script(l, encode_request(1, &Request::Ping));
    for (id, ev) in [(2, connect(0, 1)), (3, disconnect(0))] {
        sim.script(l, encode_request(id, &Request::from(&ev)));
    }
    sim.step(Step::Send(l));
    sim.step(Step::Read(l));
    assert!(
        !sim.enabled().contains(&Step::Cycle),
        "Ping must not reach the coalesced batch"
    );
    sim.step(Step::Write(l));
    let resp = client_recv(&mut sim, l);
    assert!(matches!(resp, Response::Pong), "got {resp:?}");

    let mut choices = ChoiceStream::new(7);
    sim.run(&mut choices);
    let report = sim.finish();
    assert!(report.is_clean());
    assert_eq!(report.summary.admitted, 1);
    assert_eq!(report.summary.departed, 1);
}
