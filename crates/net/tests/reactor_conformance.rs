//! Wire conformance over sockets: one scripted session through the
//! [`ReactorServer`] must yield the fixed **per-index verdict
//! transcript** pinned in `transcripts/` — for a strict v1 client and a
//! v2 client, through a drain over the wire, and across mid-script
//! fault frames (inject and repair, in-band). `wdm-sim`'s simulated driver checks the
//! same literals under seeded schedules. A mismatch prints the
//! entry-by-entry diff, which CI keeps as an artifact.

#![cfg(target_os = "linux")]

mod transcripts;

use transcripts::{
    assert_transcript, conformance_backend, conformance_script, fault_backend, fault_script,
    pinned_fault_transcript, pinned_transcript, run_script, Driver,
};
use wdm_net::{ClientConfig, NetClient, ReactorConfig, ReactorServer, Request, Response};
use wdm_runtime::{Backend, EngineBuilder, RuntimeReport};

/// A [`ReactorServer`] and one client connection to it.
struct Sockets<B: Backend> {
    server: ReactorServer<B>,
    client: NetClient,
}

impl<B: Backend> Driver<B> for Sockets<B> {
    fn call(&mut self, req: &Request) -> Response {
        self.client.call(req).expect("round trip")
    }

    fn finish(self) -> RuntimeReport<B> {
        self.server.wait()
    }
}

/// Run `script` against `backend` behind a [`ReactorServer`],
/// sequentially on one connection speaking `wire_version`.
fn run_over_sockets<B: Backend>(backend: B, wire_version: u8, script: &[Request]) -> Vec<String> {
    let engine = EngineBuilder::new().shards(2).start(backend);
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let config = ClientConfig {
        wire_version,
        ..ClientConfig::default()
    };
    let client = NetClient::connect_with(server.local_addr(), config).expect("client connects");
    run_script(Sockets { server, client }, script)
}

#[test]
fn conformance_script_yields_the_pinned_transcript() {
    for wire_version in [1u8, 2] {
        let script = conformance_script(wire_version);
        let got = run_over_sockets(conformance_backend(), wire_version, &script);
        assert_transcript(
            &format!("wire v{wire_version}"),
            &got,
            &pinned_transcript(wire_version),
        );
    }
}

/// Fault conformance: a three-stage fabric with one middle switch of
/// slack loses a middle switch mid-script to a fault frame, serves
/// through the degraded window, and is repaired — the heal outcome and the verdicts before,
/// during, and after are pinned.
#[test]
fn fault_injection_script_yields_the_pinned_transcript() {
    let got = run_over_sockets(fault_backend(), 2, &fault_script());
    assert_transcript("fault script", &got, &pinned_fault_transcript());
}
