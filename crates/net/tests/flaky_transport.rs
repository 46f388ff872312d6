//! Transport-flakiness tests: the client's capped, jittered backoff
//! must ride out a refusing endpoint and connect once the server shows
//! up, and must give up with the transport error — not hang — when it
//! never does.

#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};
use wdm_core::{MulticastModel, NetworkConfig};
use wdm_net::{ClientConfig, NetClient, NetClientError, ReactorConfig, ReactorServer};
use wdm_runtime::EngineBuilder;

fn flaky_config() -> ClientConfig {
    ClientConfig {
        connect_retries: 10,
        retry_backoff: Duration::from_millis(10),
        retry_backoff_cap: Duration::from_millis(80),
        jitter_seed: 0xF1A6,
        ..ClientConfig::default()
    }
}

/// Reserve a port, release it, and let the real server bind it only
/// after the client has already burned a few refused attempts.
#[test]
fn client_backs_off_through_a_late_server() {
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    }; // listener dropped: connections to `addr` are now refused

    let server = thread::spawn(move || {
        // Well inside the ~10+20+40+80+... ms the backoff schedule
        // covers, but late enough that the first attempts are refused.
        thread::sleep(Duration::from_millis(120));
        let net = NetworkConfig::new(4, 2);
        let backend = wdm_fabric::CrossbarSession::new(net, MulticastModel::Msw);
        let engine = EngineBuilder::new().start(backend);
        ReactorServer::serve(engine, addr, ReactorConfig::default()).expect("late bind")
    });

    let started = Instant::now();
    let mut client =
        NetClient::connect_with(addr, flaky_config()).expect("backoff should outlast the outage");
    // The client cannot have connected before the server existed.
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "connected in {:?}, before the server was up",
        started.elapsed()
    );
    client.ping().expect("ping after flaky connect");
    let report = server.join().expect("server thread").shutdown();
    assert!(report.is_clean());
}

/// With nothing ever listening, the retries exhaust and surface the
/// OS-level refusal as [`NetClientError::Io`].
#[test]
fn exhausted_retries_surface_the_io_error() {
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let config = ClientConfig {
        connect_retries: 2,
        retry_backoff: Duration::from_millis(1),
        retry_backoff_cap: Duration::from_millis(4),
        ..ClientConfig::default()
    };
    match NetClient::connect_with(addr, config) {
        Err(NetClientError::Io(_)) => {}
        Err(other) => panic!("expected an I/O error, got {other}"),
        Ok(_) => panic!("connected to a dead address"),
    }
}
