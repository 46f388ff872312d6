//! End-to-end CLI tests for backend selection: the `--backend` flag
//! must reject unknown names with the full menu and a nonzero exit, and
//! the AWG-Clos backend must work through `serve --listen` (real TCP,
//! wire protocol, drain) and `sim` exactly like the other fabrics. The
//! `#[ignore]`d C10k test holds ten thousand real sockets open against
//! a served child process.

use std::net::SocketAddr;
use std::process::{Child, Command};
use wdm_core::{Endpoint, MulticastConnection};
use wdm_net::{NetClient, Request, Response};

fn wdmcast() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wdmcast"))
}

/// Start `wdmcast serve --listen 127.0.0.1:0 <fabric>` as a child and
/// wait for the address it binds.
fn spawn_server(tag: &str, fabric: &[&str]) -> (Child, SocketAddr) {
    let addr_file = std::env::temp_dir().join(format!("wdmcast-{tag}-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let server = wdmcast()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(fabric)
        .arg("--addr-file")
        .arg(&addr_file)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn server");

    // The server writes its bound address once the socket is live.
    let mut waited = 0;
    let addr = loop {
        let written = std::fs::read_to_string(&addr_file).ok();
        if let Some(addr) = written.and_then(|s| s.trim().parse().ok()) {
            break addr;
        }
        waited += 1;
        assert!(waited < 200, "server never wrote {addr_file:?}");
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    let _ = std::fs::remove_file(&addr_file);
    (server, addr)
}

#[test]
fn unknown_backend_lists_the_menu_and_exits_nonzero() {
    for subcommand in ["sim", "serve"] {
        let out = wdmcast()
            .args([
                subcommand,
                "--backend",
                "warp-drive",
                "--n",
                "2",
                "--r",
                "4",
                "-k",
                "4",
                "--listen",
                "127.0.0.1:0",
            ])
            .output()
            .expect("spawn wdmcast");
        assert!(
            !out.status.success(),
            "{subcommand} accepted an unknown backend"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown backend \"warp-drive\""),
            "{stderr}"
        );
        for valid in [
            "crossbar",
            "three-stage",
            "awg-clos",
            "graph",
            "three-stage-cas",
        ] {
            assert!(
                stderr.contains(valid),
                "{subcommand} error does not list {valid}: {stderr}"
            );
        }
    }
}

/// `sim --concurrent three-stage` used to die with a generic
/// "--concurrent must be true or false": the valueless boolean flag
/// swallowed the backend name as its value. The parser now recognizes
/// backend names in that position and points at `--backend`.
#[test]
fn boolean_flag_swallowing_a_backend_name_suggests_backend_flag() {
    let out = wdmcast()
        .args([
            "sim",
            "--concurrent",
            "three-stage-cas",
            "--n",
            "2",
            "--r",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--backend three-stage-cas"),
        "error does not point at --backend: {stderr}"
    );
}

/// The CAS backend's own label (`three-stage-cas`, what it reports over
/// the wire and in reports) must round-trip through --backend instead
/// of being rejected as unknown.
#[test]
fn three_stage_cas_label_selects_the_concurrent_path() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "three-stage-cas",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "2",
            "--steps",
            "16",
            "--seeds",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("concurrent"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

#[test]
fn graph_sim_sweep_exits_clean() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "graph",
            "--topology",
            "ring",
            "--nodes",
            "6",
            "--n",
            "1",
            "-k",
            "2",
            "--steps",
            "24",
            "--seeds",
            "8",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("graph ring(6)"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

/// Graph-only flags on a switch-box backend are a contradiction, not a
/// silent no-op.
#[test]
fn topology_flags_without_graph_backend_are_rejected() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "three-stage",
            "--topology",
            "ring",
            "--n",
            "2",
            "--r",
            "4",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--backend graph"), "{stderr}");
}

/// Geometry no constructor accepts is an `error:` line and exit 1 from
/// every command that builds a backend — never a panic (exit 101) —
/// and all three commands give the same message, because `Scenario`
/// validates for all of them. `--backend graph -k 65` is legal: its
/// occupancy is not u64-masked.
#[test]
fn illegal_geometry_is_an_error_not_a_panic_on_every_backend_command() {
    const GEO: [&str; 4] = ["--n", "2", "--r", "4"];
    let rows: [(&[&str], &[&str], &str); 7] = [
        (&GEO, &["-k", "65"], "limited to 64 wavelengths"),
        (
            &GEO,
            &["--backend", "three-stage-cas", "-k", "65"],
            "limited to 64 wavelengths",
        ),
        (
            &GEO,
            &["--backend", "awg-clos", "-k", "65"],
            "limited to 64 wavelengths",
        ),
        (&[], &["--n", "70000", "--r", "70000"], "n·r overflows"),
        (&GEO, &["--m", "0"], "--m must be a positive integer"),
        (&GEO, &["--construction", "bogus"], "unknown construction"),
        (
            &["--n", "2"],
            &["--backend", "graph", "--m", "3"],
            "no middle stage",
        ),
    ];
    let commands: [&[&str]; 3] = [&["sim"], &["serve"], &["serve", "--listen", "127.0.0.1:0"]];
    for command in commands {
        for (geo, flags, needle) in rows {
            let out = wdmcast()
                .args(command)
                .args(geo)
                .args(flags)
                .output()
                .expect("spawn wdmcast");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command:?} {flags:?}: {stderr}"
            );
            let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
            assert_eq!(errors.len(), 1, "{command:?} {flags:?}: {stderr}");
            assert!(
                errors[0].contains(needle),
                "{command:?} {flags:?}: {stderr}"
            );
        }
    }
    let out = wdmcast()
        .args(["sim", "--backend", "graph", "--n", "2", "-k", "65"])
        .output()
        .expect("spawn wdmcast");
    assert!(out.status.success(), "graph -k 65 must keep working");
}

#[test]
fn awg_clos_infeasible_geometry_is_a_helpful_error() {
    // k=1 < r=4: no channel class reaches most module pairs.
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "awg-clos",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "1",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("k ≥ r"), "{stderr}");
}

#[test]
fn awg_clos_sim_sweep_exits_clean() {
    let out = wdmcast()
        .args([
            "sim",
            "--backend",
            "awg-clos",
            "--n",
            "2",
            "--r",
            "4",
            "-k",
            "4",
            "--steps",
            "24",
            "--seeds",
            "8",
        ])
        .output()
        .expect("spawn wdmcast");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sim failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("awg-clos"), "{stdout}");
    assert!(stdout.contains("0 failing"), "{stdout}");
}

#[test]
fn serve_listen_runs_the_awg_backend_over_tcp() {
    let (mut server, addr) = spawn_server(
        "awg",
        &["--backend", "awg-clos", "--n", "2", "--r", "4", "-k", "4"],
    );

    let mut client = NetClient::connect(addr).expect("connect");
    // Port 0 (module 0) λ0 → modules 1 and 2: the module-2 leg rides
    // channel class 2 ≠ λ0, so the full AWG path (ingress conversion,
    // grating hop, egress conversion) is exercised over the wire.
    let conn = MulticastConnection::new(
        Endpoint::new(0, 0),
        [Endpoint::new(5, 0), Endpoint::new(2, 0)],
    )
    .unwrap();
    assert_eq!(
        client.call(&Request::Connect(conn)).expect("connect rpc"),
        Response::Ok
    );
    assert_eq!(
        client
            .call(&Request::Disconnect(Endpoint::new(0, 0)))
            .expect("disconnect rpc"),
        Response::Ok
    );
    match client.drain().expect("drain rpc") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.admitted, 1);
            assert_eq!(summary.blocked, 0);
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
}

#[test]
fn cost_report_covers_all_three_architectures() {
    let out = wdmcast()
        .args(["cost", "-N", "16", "-k", "4"])
        .output()
        .expect("spawn wdmcast");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["AWG ports", "/CB", "/MS", "AWG/Clos"] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
}

#[test]
fn serve_listen_on_an_occupied_port_fails_with_context() {
    // Squat on a port, then ask the server to bind it: the CLI must
    // exit nonzero with an error naming both the address and the OS
    // failure, not panic or serve on a different port.
    let squatter = std::net::TcpListener::bind("127.0.0.1:0").expect("bind squatter");
    let addr = squatter.local_addr().expect("squatter addr").to_string();
    let out = wdmcast()
        .args([
            "serve", "--listen", &addr, "--n", "2", "--r", "4", "-k", "2",
        ])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success(), "bound an occupied port: {addr}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("bind {addr}")),
        "error lacks the address being bound: {stderr}"
    );
    drop(squatter);
}

/// `Opts::parse` ignores unknown flags, so the removed `--serve-mode`
/// must be refused by name — otherwise `--serve-mode threads` would
/// silently run the reactor.
#[test]
fn removed_serving_layer_flag_is_rejected_loudly() {
    for args in [
        &["serve", "--listen", "127.0.0.1:0", "--n", "2", "--r", "4"][..],
        &["bench-net", "--connect", "127.0.0.1:1"][..],
    ] {
        let out = wdmcast()
            .args(args)
            .args(["--serve-mode", "threads"])
            .output()
            .expect("spawn wdmcast");
        assert!(!out.status.success(), "{args:?} accepted --serve-mode");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--serve-mode was removed")
                && stderr.contains("reactor is the only serving layer"),
            "{args:?}: {stderr}"
        );
    }
}

/// `bench-net` is only the socket smoke's client; without `--connect`
/// it refuses and says where the measurement lives.
#[test]
fn bench_net_without_connect_points_at_the_benchmark() {
    let out = wdmcast()
        .args(["bench-net", "--n", "4", "--r", "4"])
        .output()
        .expect("spawn wdmcast");
    assert!(!out.status.success(), "bench-net ran without --connect");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--connect") && stderr.contains("benchmark/"),
        "{stderr}"
    );
}

/// C10k proper: ten thousand sockets held open at once against a
/// three-stage fabric at the Theorem-1 bound (32×5 modules of 64
/// wavelengths, one dedicated endpoint per socket) see zero rejects of
/// any class, and the server drains clean. The server is a child
/// process so each side gets its own `RLIMIT_NOFILE` budget.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "needs ~10k fds per side: cargo test --release -p wdmcast --test backend_cli -- --ignored c10k_sockets"]
fn c10k_sockets_zero_rejects_at_the_bound() {
    use wdm_net::{ClientConfig, LoadConfig};

    let connections = 10_000u64;
    let fd_limit = wdm_net::reactor::raise_nofile_limit(connections + 1024);
    assert!(
        fd_limit >= connections + 64,
        "fd limit {fd_limit} cannot hold {connections} sockets; raise `ulimit -n`"
    );
    let (mut server, addr) = spawn_server("c10k", &["--n", "32", "--r", "5", "-k", "64"]);

    let config = LoadConfig {
        connections: connections as usize,
        lanes_per_conn: 1,
        pipeline: 4,
        rounds: 2,
        ports: 32 * 5,
        wavelengths: 64,
        ..LoadConfig::default()
    };
    let report = wdm_net::loadgen::run(addr, config).expect("load run");
    assert!(report.completed, "timed out: {report:?}");
    assert_eq!(report.rejects(), 0, "{report:?}");
    assert_eq!(report.connect_acks, connections * 2);
    assert_eq!(report.disconnect_acks, connections * 2);

    // The server reaps ten thousand closed sockets before it answers
    // the drain, so the control client waits past the default timeout.
    let patient = ClientConfig {
        timeout: std::time::Duration::from_secs(120),
        ..ClientConfig::default()
    };
    let mut control = NetClient::connect_with(addr, patient).expect("control client");
    match control.drain().expect("drain rpc") {
        Response::DrainReport { clean, summary } => {
            assert!(clean, "drain not clean");
            assert_eq!(summary.blocked, 0);
            assert_eq!(summary.admitted, report.connect_acks);
        }
        other => panic!("expected DrainReport, got {other:?}"),
    }
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
}
