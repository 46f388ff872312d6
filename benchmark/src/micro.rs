//! Single-thread microbenches of each layer's public functions, on the
//! workload's own request mix. They run in the traced invocation only
//! and feed per-layer metrics; nothing here is an end-to-end number.
//!
//! Every loop runs for [`Scale::micro_iters`] calls (≥ 1 M in a full
//! run) or until [`Scale::micro_time_cap`] has passed, whichever comes
//! first, so a slow backend cannot blow the run's time budget; the
//! reported figure is always time ÷ calls actually made.

use std::hint::black_box;
use std::time::{Duration, Instant};
use wdm_core::{MulticastAssignment, MulticastModel, NetworkConfig};
use wdm_multistage::{Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_net::codec::{decode_request, decode_response, encode_request, encode_response};
use wdm_net::{RawFrame, Request, Response, HEADER_LEN};
use wdm_runtime::{Backend, EngineBuilder};
use wdm_workload::adversarial::Geometry;
use wdm_workload::HotspotGen;

use crate::engine::Driver;
use crate::report::RunRecord;
use crate::slots::{self, FanoutMix, Slot};
use crate::spec::{
    BenchmarkSpec, ENGINE_WINDOW, ENGINE_WINDOWS_IN_FLIGHT, G1, G1_M, GRAPH_FANOUT, GRAPH_GEO,
    GRAPH_SKEW_PCT, MIX_G1_MULTICAST, SHARDS,
};
use crate::stats::{median, Clock};
use crate::{backends, RunArgs, Scale};

/// Calls between looks at the clock.
const CHUNK: u64 = 1024;

/// Mean nanoseconds per call of `f`, which receives the call index.
fn ns_per_call(scale: &Scale, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < scale.micro_iters && start.elapsed() < scale.micro_time_cap {
        for i in calls..calls + CHUNK {
            f(i);
        }
        calls += CHUNK;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Cut an encoded frame back into the `RawFrame` the decoders take.
fn raw(frame: &[u8]) -> RawFrame {
    RawFrame {
        version: frame[2],
        kind: frame[3],
        id: u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes")),
        payload: frame[HEADER_LEN..].to_vec(),
    }
}

/// `net.codec.*` on the workload's requests (each slot's connect and
/// disconnect, alternating as they do on the wire).
pub fn codec(rec: &mut RunRecord, spec: &BenchmarkSpec, slots: &[Slot], scale: &Scale) {
    let requests: Vec<Request> = slots
        .iter()
        .flat_map(|s| {
            [
                Request::Connect(s.connect.clone()),
                Request::Disconnect(s.source()),
            ]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = requests.iter().map(|r| encode_request(1, r)).collect();
    let frames: Vec<RawFrame> = encoded.iter().map(|b| raw(b)).collect();
    let ok = raw(&encode_response(1, &Response::Ok));
    let n = requests.len() as u64;

    rec.put1(
        spec,
        "net.codec.request_bytes_mean",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / n as f64,
    );
    rec.put1(
        spec,
        "net.codec.encode_request_ns",
        ns_per_call(scale, |i| {
            black_box(encode_request(i, black_box(&requests[(i % n) as usize])));
        }),
    );
    rec.put1(
        spec,
        "net.codec.decode_request_ns",
        ns_per_call(scale, |i| {
            black_box(decode_request(black_box(&frames[(i % n) as usize])).expect("decodes"));
        }),
    );
    rec.put1(
        spec,
        "net.codec.encode_response_ns",
        ns_per_call(scale, |i| {
            black_box(encode_response(i, black_box(&Response::Ok)));
        }),
    );
    rec.put1(
        spec,
        "net.codec.decode_response_ns",
        ns_per_call(scale, |_| {
            black_box(decode_response(black_box(&ok)).expect("decodes"));
        }),
    );
}

/// `runtime.engine.submit_call_ns_per_req`: time the caller spends
/// inside `submit_batch_tracked` per request, on a fresh in-process
/// engine fed the workload's slots in the engine workload's windows.
pub fn engine_submit(
    rec: &mut RunRecord,
    spec: &BenchmarkSpec,
    geo: Geometry,
    slots: &[Slot],
    scale: &Scale,
) {
    let m = wdm_multistage::bounds::theorem1_min_m(geo.n, geo.r).m;
    let engine = EngineBuilder::new()
        .shards(SHARDS)
        .start(backends::three_stage(geo, m, None));
    let mut driver = Driver::new(Clock::start(), slots.to_vec(), 1);
    let start = Instant::now();
    let (iters, cap) = (scale.micro_iters, scale.micro_time_cap);
    let submitting = driver.churn(&engine, ENGINE_WINDOW, ENGINE_WINDOWS_IN_FLIGHT, |d| {
        d.sent >= iters || start.elapsed() >= cap
    });
    driver.wind_down(&engine);
    let report = engine.drain();
    rec.check(report.is_clean() && driver.rejected() == 0, || {
        format!(
            "engine microbench: unclean drain or {} rejects",
            driver.rejected()
        )
    });
    rec.put1(
        spec,
        "runtime.engine.submit_call_ns_per_req",
        submitting.as_nanos() as f64 / driver.sent.max(1) as f64,
    );
}

/// Connect every slot (in order — the generator already shuffled them),
/// then disconnect every slot, timing each sweep; occupancy ramps
/// 0 → all up → 0, so the means average over every load level. Returns
/// mean ns per (connect, disconnect).
fn churn_sweeps<B: Backend + ?Sized>(net: &mut B, slots: &[Slot], scale: &Scale) -> (f64, f64) {
    let (mut connect, mut disconnect) = (Duration::ZERO, Duration::ZERO);
    let (mut connects, mut disconnects) = (0u64, 0u64);
    let start = Instant::now();
    while connects + disconnects < scale.micro_iters && start.elapsed() < scale.micro_time_cap {
        let t = Instant::now();
        let admitted: Vec<bool> = slots
            .iter()
            .map(|s| black_box(net.connect(black_box(&s.connect))).is_ok())
            .collect();
        connect += t.elapsed();
        connects += slots.len() as u64;
        let t = Instant::now();
        for (s, _) in slots.iter().zip(&admitted).filter(|(_, &up)| up) {
            black_box(net.disconnect(black_box(s.source()))).expect("admitted slot departs");
            disconnects += 1;
        }
        disconnect += t.elapsed();
    }
    (
        connect.as_nanos() as f64 / connects.max(1) as f64,
        disconnect.as_nanos() as f64 / disconnects.max(1) as f64,
    )
}

/// Fanout mix of the graph backend's microbench slots.
const MIX_GRAPH: FanoutMix = &[(GRAPH_FANOUT, 100)];

/// Everything that does not depend on which workload is running:
/// `backend.<b>.*`, `multistage.network.*` and
/// `workload.hotspot_next_request_ns`.
pub fn common(rec: &mut RunRecord, spec: &BenchmarkSpec, args: &RunArgs) {
    let scale = &args.scale;
    for (name, geo, scenario) in backends::micro_set() {
        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(scenario.build().expect("valid scenario"));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        rec.put1(spec, &format!("backend.{name}.build_us"), median(&builds));
        let mix = if name == "graph" {
            MIX_GRAPH
        } else {
            MIX_G1_MULTICAST
        };
        let slots = slots::generate(geo, mix, args.seed);
        let mut net = scenario.build().expect("valid scenario");
        let (connect_ns, disconnect_ns) = churn_sweeps(&mut *net, &slots, scale);
        rec.put1(spec, &format!("backend.{name}.connect_ns"), connect_ns);
        rec.put1(
            spec,
            &format!("backend.{name}.disconnect_ns"),
            disconnect_ns,
        );
        let findings = net.check();
        rec.check(findings.is_empty() && net.active_connections() == 0, || {
            format!("backend {name} microbench left findings {findings:?}")
        });
    }

    // The three-stage router itself, statically dispatched (no trait
    // object).
    let fresh = || {
        ThreeStageNetwork::new(
            ThreeStageParams::new(G1.n, G1_M, G1.r, G1.k),
            Construction::MswDominant,
            MulticastModel::Msw,
        )
    };
    const FANOUT_1: FanoutMix = &[(1, 100)];
    const FANOUT_16: FanoutMix = &[(16, 100)];
    for (metric, mix) in [
        ("multistage.network.connect_ns_f1", FANOUT_1),
        ("multistage.network.connect_ns_f16", FANOUT_16),
    ] {
        let slots = slots::generate(G1, mix, args.seed);
        rec.put1(spec, metric, churn_sweeps(&mut fresh(), &slots, scale).0);
    }
    // The probe (the 3-way bitset AND) at half occupancy.
    let slots = slots::generate(G1, MIX_G1_MULTICAST, args.seed);
    let mut net = fresh();
    for s in slots.iter().step_by(2) {
        net.connect(&s.connect).expect("at the bound");
    }
    let pairs = u64::from(G1.r * G1.k);
    rec.put1(
        spec,
        "multistage.network.probe_ns",
        ns_per_call(scale, |i| {
            let at = (i % pairs) as u32;
            black_box(net.available_middles_mask(black_box(at / G1.k), black_box(at % G1.k)));
        }),
    );

    // The graph workload's request generator against a half-full mirror.
    let mut mirror = MulticastAssignment::new(
        NetworkConfig::new(GRAPH_GEO.ports(), GRAPH_GEO.k),
        MulticastModel::Msw,
    );
    for s in slots::generate(GRAPH_GEO, MIX_GRAPH, args.seed)
        .iter()
        .step_by(2)
    {
        mirror.add(s.connect.clone()).expect("conflict-free");
    }
    let mut gen = HotspotGen::new(GRAPH_GEO, MulticastModel::Msw, 0, GRAPH_SKEW_PCT, args.seed)
        .with_fanout(GRAPH_FANOUT);
    rec.put1(
        spec,
        "workload.hotspot_next_request_ns",
        ns_per_call(scale, |_| {
            black_box(gen.next_request(black_box(&mirror)));
        }),
    );
}
