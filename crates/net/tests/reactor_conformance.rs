//! Wire conformance over sockets: one scripted session through the
//! [`ReactorServer`] must yield the fixed **per-index verdict
//! transcript** pinned in `transcripts/` — for a strict v1 client and a
//! v2 client, through a drain over the wire, and across mid-script
//! fault injection and repair. `wdm-sim`'s simulated driver checks the
//! same literals under seeded schedules.

#![cfg(target_os = "linux")]

mod transcripts;

use transcripts::{
    conformance_backend, conformance_script, fault_backend, fault_script, pinned_fault_transcript,
    pinned_transcript, run_script, Driver, Step,
};
use wdm_net::{ClientConfig, NetClient, ReactorConfig, ReactorServer, Request, Response};
use wdm_runtime::{Backend, EngineBuilder, FaultHandle, RuntimeReport};

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
fn run_over_sockets<B: Backend>(backend: B, wire_version: u8, script: &[Step]) -> Vec<String> {
    let engine = EngineBuilder::new().shards(2).start(backend);
    let handle: FaultHandle<B> = engine.fault_handle();
    let server =
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let config = ClientConfig {
        wire_version,
        ..ClientConfig::default()
    };
    let client = NetClient::connect_with(server.local_addr(), config).expect("client connects");
    run_script(Sockets { server, client }, &handle, script)
}

#[test]
fn conformance_script_yields_the_pinned_transcript() {
    for wire_version in [1u8, 2] {
        let script = conformance_script(wire_version);
        let got = run_over_sockets(conformance_backend(), wire_version, &script);
        assert_eq!(got, pinned_transcript(wire_version), "wire v{wire_version}");
    }
}

/// Fault conformance: a three-stage fabric with one middle switch of
/// slack loses a middle switch mid-script, serves through the degraded
/// window, and is repaired — the heal outcome and the verdicts before,
/// during, and after are pinned.
#[test]
fn fault_injection_script_yields_the_pinned_transcript() {
    let got = run_over_sockets(fault_backend(), 2, &fault_script());
    assert_eq!(got, pinned_fault_transcript());
}
