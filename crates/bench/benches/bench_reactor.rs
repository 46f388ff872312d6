//! **Serving-layer benchmark**: the epoll reactor under the closed-loop
//! lane workload (the same generator the C10k soak and the `bench-net`
//! sweep use). Each iteration is a full serve cycle — bind, connect
//! storm, pipelined admission/release rounds, drain — so the number is
//! end-to-end admissions time, not a microbenchmark of the event loop.

use criterion::{criterion_group, criterion_main, Criterion};

#[cfg(target_os = "linux")]
mod linux {
    use criterion::{BenchmarkId, Criterion};
    use wdm_core::MulticastModel;
    use wdm_multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
    use wdm_net::{loadgen, LoadConfig, ReactorConfig, ReactorServer};
    use wdm_runtime::{AdmissionEngine, EngineBuilder};

    fn engine(p: ThreeStageParams) -> AdmissionEngine<ThreeStageNetwork> {
        EngineBuilder::new().shards(2).start(ThreeStageNetwork::new(
            p,
            Construction::MswDominant,
            MulticastModel::Msw,
        ))
    }

    fn load(p: ThreeStageParams, connections: usize) -> LoadConfig {
        LoadConfig {
            connections,
            lanes_per_conn: 4,
            pipeline: 4,
            rounds: 2,
            ports: p.network().ports,
            wavelengths: p.k,
            ..LoadConfig::default()
        }
    }

    /// One full serve cycle through the epoll reactor.
    fn drive_reactor(p: ThreeStageParams, connections: usize) {
        let server = ReactorServer::serve(engine(p), "127.0.0.1:0", ReactorConfig::default())
            .expect("bind reactor");
        let report = loadgen::run(server.local_addr(), load(p, connections)).expect("load");
        assert!(report.completed && report.rejects() == 0, "{report:?}");
        let report = server.shutdown();
        assert!(report.is_clean());
    }

    pub fn bench_reactor_serve(c: &mut Criterion) {
        // 8×8 modules of 8 wavelengths at the Theorem-1 bound: big
        // enough that every lane is conflict-free, small enough that
        // engine admission cost does not mask the serving layer.
        let (n, r, k) = (8u32, 8u32, 8u32);
        let m = bounds::theorem1_min_m(n, r).m;
        let p = ThreeStageParams::new(n, m, r, k);
        let mut g = c.benchmark_group("reactor/serve");
        g.sample_size(10);
        for connections in [16usize, 64] {
            g.bench_with_input(
                BenchmarkId::new("reactor", connections),
                &connections,
                |b, &conns| b.iter(|| drive_reactor(p, conns)),
            );
        }
        g.finish();
    }
}

#[cfg(target_os = "linux")]
fn benches(c: &mut Criterion) {
    linux::bench_reactor_serve(c);
}

#[cfg(not(target_os = "linux"))]
fn benches(_c: &mut Criterion) {}

criterion_group!(reactor, benches);
criterion_main!(reactor);
