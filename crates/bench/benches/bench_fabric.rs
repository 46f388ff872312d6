//! **Figs. 4–7 benchmark**: construction time, routing time, and signal
//! propagation time of the crossbar fabrics at several sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_core::{MulticastModel, NetworkConfig};
use wdm_fabric::WdmCrossbar;
use wdm_workload::AssignmentGen;

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric/build");
    for (n, k) in [(4u32, 2u32), (8, 2), (16, 4)] {
        let net = NetworkConfig::new(n, k);
        for model in MulticastModel::ALL {
            g.bench_with_input(
                BenchmarkId::new(model.to_string(), format!("N{n}k{k}")),
                &net,
                |b, &net| b.iter(|| WdmCrossbar::build(black_box(net), model)),
            );
        }
    }
    g.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric/route_full_assignment");
    for (n, k) in [(4u32, 2u32), (8, 2), (16, 4)] {
        let net = NetworkConfig::new(n, k);
        for model in MulticastModel::ALL {
            let mut xbar = WdmCrossbar::build(net, model);
            let asg = AssignmentGen::new(net, model, 7).full_assignment();
            g.bench_with_input(
                BenchmarkId::new(model.to_string(), format!("N{n}k{k}")),
                &asg,
                |b, asg| b.iter(|| xbar.route(black_box(asg)).expect("crossbar is nonblocking")),
            );
        }
    }
    g.finish();
}

fn bench_census(c: &mut Criterion) {
    let xbar = WdmCrossbar::build(NetworkConfig::new(16, 4), MulticastModel::Maw);
    c.bench_function("fabric/census_N16k4_maw", |b| {
        b.iter(|| black_box(&xbar).census())
    });
}

fn bench_batch_reroute(c: &mut Criterion) {
    // One connect+disconnect cycle, reprogramming the whole fabric each way.
    use wdm_core::MulticastConnection;
    let net = NetworkConfig::new(16, 4);
    let model = MulticastModel::Maw;
    // A random background may be full; free one slot deterministically by
    // removing its first connection and re-adding a unicast slice of it.
    let mut background = AssignmentGen::new(net, model, 9).any_assignment();
    let victim = background.connections().next().unwrap().source();
    let removed = background.remove(victim).unwrap();
    let extra = MulticastConnection::unicast(removed.source(), removed.destinations()[0]);

    let mut xbar = WdmCrossbar::build(net, model);
    let mut with_extra = background.clone();
    with_extra.add(extra).unwrap();
    c.bench_function("fabric/batch_reroute_cycle_N16k4", |b| {
        b.iter(|| {
            xbar.route(black_box(&with_extra)).unwrap();
            xbar.route(black_box(&background)).unwrap();
        })
    });
}

fn bench_awg_clos_connect_cycle(c: &mut Criterion) {
    // One multicast connect+disconnect cycle through the wavelength-routed
    // Clos: four legs planned per cycle, each a packed-bitset probe over
    // the class replicas.
    use wdm_core::MulticastConnection;
    use wdm_multistage::AwgClosNetwork;
    let mut net = AwgClosNetwork::at_bound(2, 4, 4, MulticastModel::Msw);
    // Background load: all endpoints of module 0 but one, each multicast
    // to all four output modules, so the probe walks busy channels.
    for i in 1..8u32 {
        let (port, wl) = (i / 4, i % 4);
        let conn = MulticastConnection::new(
            wdm_core::Endpoint::new(port, wl),
            (0..4).map(|b| wdm_core::Endpoint::new(2 * b + port, wl)),
        )
        .unwrap();
        net.connect(&conn).unwrap();
    }
    let extra = MulticastConnection::new(
        wdm_core::Endpoint::new(0, 0),
        (0..4).map(|b| wdm_core::Endpoint::new(2 * b, 0)),
    )
    .unwrap();
    c.bench_function("fabric/awg_clos_connect_cycle_n2r4k4", |b| {
        b.iter(|| {
            net.connect(black_box(&extra)).unwrap();
            net.disconnect(extra.source()).unwrap();
        })
    });
}

criterion_group!(
    benches,
    bench_build,
    bench_route,
    bench_census,
    bench_batch_reroute,
    bench_awg_clos_connect_cycle
);
criterion_main!(benches);
