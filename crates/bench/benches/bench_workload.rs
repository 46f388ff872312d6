//! Workload-generation benchmarks: random assignments, churn traces, and
//! the application scenarios — the fixed cost every routing experiment
//! pays before it starts measuring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_core::{MulticastModel, NetworkConfig};
use wdm_workload::{app_mix::AppMix, AssignmentGen, RequestTrace};

fn bench_full_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload/full_assignment");
    for (n, k) in [(8u32, 2u32), (32, 4), (64, 8)] {
        let net = NetworkConfig::new(n, k);
        for model in MulticastModel::ALL {
            g.bench_with_input(
                BenchmarkId::new(model.to_string(), format!("N{n}k{k}")),
                &net,
                |b, &net| {
                    let mut gen = AssignmentGen::new(net, model, 5);
                    b.iter(|| gen.full_assignment())
                },
            );
        }
    }
    g.finish();
}

fn bench_churn_trace(c: &mut Criterion) {
    let net = NetworkConfig::new(16, 2);
    c.bench_function("workload/churn_trace_500_steps", |b| {
        b.iter(|| RequestTrace::churn(net, MulticastModel::Msw, 500, 35, 1))
    });
}

fn bench_scenarios(c: &mut Criterion) {
    let net = NetworkConfig::new(64, 4);
    let mut g = c.benchmark_group("workload/scenarios");
    for s in [
        AppMix::VideoConference { group_size: 5 },
        AppMix::VideoOnDemand { servers: 4 },
        AppMix::ECommerce { multicast_pct: 20 },
    ] {
        g.bench_function(s.label(), |b| {
            b.iter(|| s.generate(net, MulticastModel::Maw, 3))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_full_assignment,
    bench_churn_trace,
    bench_scenarios
);
criterion_main!(benches);
