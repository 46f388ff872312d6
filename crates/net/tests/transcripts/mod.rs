//! The wire conformance scripts and their pinned per-index verdict
//! transcripts — one copy, included by every suite that checks them:
//! the socket driver (`wdm-net`'s `reactor_conformance.rs`), the
//! simulated driver (`wdm-sim`'s `serving.rs`) and tier-1
//! (`tests/every_layer.rs`). The scripts are sequential round trips on
//! one connection, so every entry (including the drain counters and the
//! final report) is fully determined and the reference is a literal.
//! Responses are recorded as a normalized fingerprint (verdict +
//! integer counters; free-text details and wall-clock fields
//! excluded).

#![allow(dead_code)]

use wdm_core::{Endpoint, Fault, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::{Request, Response};
use wdm_runtime::{Backend, RuntimeReport};

/// Normalize a response to its comparable essence: the verdict and any
/// integer counters, never free text or wall-clock values.
pub fn fingerprint(resp: &Response) -> String {
    match resp {
        Response::Ok => "ok".into(),
        Response::Pong => "pong".into(),
        Response::Rejected { reason, .. } => format!("rejected:{reason:?}"),
        Response::Snapshot(_) => "snapshot".into(),
        Response::ProtocolError { .. } => "protocol-error".into(),
        Response::Batch(items) => {
            let inner: Vec<String> = items.iter().map(fingerprint).collect();
            format!("batch:[{}]", inner.join(","))
        }
        Response::Healed {
            hit,
            healed,
            failed,
        } => format!("inject:hit={hit}:healed={healed}:failed={failed}"),
        Response::Repaired(was_down) => format!("repair:{was_down}"),
        Response::DrainReport { clean, summary } => format!(
            "drain:clean={clean}:offered={}:admitted={}:blocked={}:departed={}:\
             skipped={}:orphaned={}:component_down={}",
            summary.offered,
            summary.admitted,
            summary.blocked,
            summary.departed,
            summary.skipped_departures,
            summary.orphaned_departures,
            summary.component_down,
        ),
    }
}

/// A server driven through one client connection.
pub trait Driver<B: Backend> {
    /// One round trip: send `req`, wait for its response.
    fn call(&mut self, req: &Request) -> Response;
    /// Wait for the drain the script requested and return the report.
    fn finish(self) -> RuntimeReport<B>;
}

/// Run `script` through `driver`, one round trip per request, and
/// return the transcript of fingerprints plus the final report's
/// comparable counters.
pub fn run_script<B: Backend>(mut driver: impl Driver<B>, script: &[Request]) -> Vec<String> {
    let mut transcript: Vec<String> = script
        .iter()
        .map(|req| fingerprint(&driver.call(req)))
        .collect();
    let report = driver.finish();
    transcript.push(format!(
        "report:clean={}:offered={}:admitted={}:blocked={}:departed={}:panics={}",
        report.is_clean(),
        report.summary.offered,
        report.summary.admitted,
        report.summary.blocked,
        report.summary.departed,
        report.worker_panics,
    ));
    transcript
}

/// Check a transcript against its pin. On a mismatch, panic with the
/// entry-by-entry diff (`-` pinned, `+` actual), so a failure that does
/// not reproduce still leaves its evidence in the test log.
pub fn assert_transcript(label: &str, got: &[String], want: &[&str]) {
    if got.iter().map(String::as_str).eq(want.iter().copied()) {
        return;
    }
    let mut diff = format!("{label}: transcript differs from its pin\n");
    for i in 0..got.len().max(want.len()) {
        let (want, got) = (want.get(i).copied(), got.get(i).map(String::as_str));
        if want == got {
            diff += &format!("  {i:>2} {}\n", want.unwrap_or_default());
            continue;
        }
        if let Some(want) = want {
            diff += &format!("- {i:>2} {want}\n");
        }
        if let Some(got) = got {
            diff += &format!("+ {i:>2} {got}\n");
        }
    }
    panic!("{diff}");
}

fn unicast(sp: u32, sw: u32, dp: u32, dw: u32) -> MulticastConnection {
    MulticastConnection::unicast(Endpoint::new(sp, sw), Endpoint::new(dp, dw))
}

/// The backend [`conformance_script`] runs against.
pub fn conformance_backend() -> CrossbarSession {
    CrossbarSession::new(NetworkConfig::new(4, 2), MulticastModel::Msw)
}

/// The conformance script, written to the engine's trace
/// semantics: a disconnect for a source the engine never saw is
/// `Fatal`; a *rejected* connect on source S swallows the next
/// disconnect on S as a skipped departure (`UnknownSource` on the
/// wire), so releasing a live source after a duplicate rejection takes
/// two disconnects. The script exercises admissions, the
/// duplicate-source rejection, that skip pairing, readmission after
/// release, a wire batch with a per-item rejection, a drain over the
/// wire, and post-drain refusals.
pub fn conformance_script() -> Vec<Request> {
    let a = unicast(0, 0, 1, 0);
    let b = unicast(2, 0, 3, 0);
    vec![
        Request::Ping,
        Request::Connect(a.clone()),
        Request::Connect(b.clone()),
        // Source (1,1) never connected at all: Fatal.
        Request::Disconnect(Endpoint::new(1, 1)),
        // Source (0,0) is already lit: rejected, deterministically.
        Request::Connect(unicast(0, 0, 3, 0)),
        // Skipped: pairs the rejected duplicate, A stays lit.
        Request::Disconnect(a.source()),
        // ... and this one actually departs A.
        Request::Disconnect(a.source()),
        // Released source readmits.
        Request::Connect(a.clone()),
        Request::Disconnect(a.source()),
        Request::Disconnect(b.source()),
        // Batch: second item repeats the first item's source, so the
        // engine's per-source FIFO resolves [Ok, Rejected]; the first
        // disconnect pairs the rejected item, the second departs.
        Request::BatchConnect(vec![unicast(1, 0, 2, 0), unicast(1, 0, 3, 0)]),
        Request::Disconnect(Endpoint::new(1, 0)),
        Request::Disconnect(Endpoint::new(1, 0)),
        Request::Drain,
        // Post-drain: admissions refused as Draining, drain idempotent,
        // snapshot still answers.
        Request::Connect(a),
        Request::Drain,
        Request::Snapshot,
    ]
}

/// What [`conformance_script`] must answer, entry for entry. The
/// `Fatal` disconnect leaves an engine error behind, so the drain is
/// (deterministically) not clean.
pub fn pinned_transcript() -> Vec<&'static str> {
    let drain = "drain:clean=false:offered=6:admitted=4:blocked=0:departed=4:\
                 skipped=2:orphaned=0:component_down=0";
    vec![
        "pong",
        "ok",
        "ok",
        "rejected:Fatal",
        "rejected:Busy",
        "rejected:UnknownSource",
        "ok",
        "ok",
        "ok",
        "ok",
        "batch:[ok,rejected:Busy]",
        "rejected:UnknownSource",
        "ok",
        drain,
        // Post-drain: refused as Draining, drain idempotent, snapshot
        // answers.
        "rejected:Draining",
        drain,
        "snapshot",
        "report:clean=false:offered=6:admitted=4:blocked=0:departed=4:panics=0",
    ]
}

/// The backend [`fault_script`] runs against: a three-stage fabric with
/// one middle switch of slack above the Theorem 1 bound.
pub fn fault_backend() -> ThreeStageNetwork {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let m = bounds::theorem1_min_m(n, r).m + 1;
    let p = ThreeStageParams::new(n, m, r, k);
    ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw)
}

/// Fault conformance: the fabric loses a middle switch mid-script by
/// an in-band fault frame, serves through the degraded window, and is
/// repaired.
pub fn fault_script() -> Vec<Request> {
    vec![
        Request::Connect(unicast(0, 0, 4, 0)),
        Request::Connect(unicast(1, 0, 5, 0)),
        // In-band: the frame lands after both connects, so the backend
        // holds exactly these two connections when the switch dies.
        Request::Inject(Fault::MiddleSwitch(0)),
        // One spare above the bound: the degraded fabric still admits.
        Request::Connect(unicast(2, 0, 6, 0)),
        Request::Disconnect(Endpoint::new(0, 0)),
        Request::Disconnect(Endpoint::new(1, 0)),
        Request::Repair(Fault::MiddleSwitch(0)),
        Request::Connect(unicast(3, 0, 7, 0)),
        Request::Disconnect(Endpoint::new(2, 0)),
        Request::Disconnect(Endpoint::new(3, 0)),
        Request::Drain,
    ]
}

/// What [`fault_script`] must answer: the heal outcome and the verdicts
/// before, during, and after the fault.
pub fn pinned_fault_transcript() -> Vec<&'static str> {
    vec![
        "ok",
        "ok",
        "inject:hit=1:healed=1:failed=0",
        "ok",
        "ok",
        "ok",
        "repair:true",
        "ok",
        "ok",
        "ok",
        "drain:clean=true:offered=4:admitted=4:blocked=0:departed=4:\
         skipped=0:orphaned=0:component_down=0",
        "report:clean=true:offered=4:admitted=4:blocked=0:departed=4:panics=0",
    ]
}
