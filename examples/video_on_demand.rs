//! Video-on-demand on a WDM multicast crossbar — the workload the paper's
//! introduction motivates.
//!
//! A few head-end servers stream channels to a large audience. Each
//! server wavelength is one channel; the switch's light splitters
//! multicast it to every subscriber without O/E/O conversion. We build
//! the fabric, offer the VoD load under each multicast model, route it,
//! and compare delivered streams and hardware cost.
//!
//! Run with: `cargo run --example video_on_demand`

use wdm_multicast::core::{capacity, MulticastModel, NetworkConfig};
use wdm_multicast::fabric::WdmCrossbar;
use wdm_multicast::workload::app_mix::AppMix;

fn main() {
    let net = NetworkConfig::new(16, 4); // 16 ports, 4 channels per fiber
    let scenario = AppMix::VideoOnDemand { servers: 3 };
    println!("{} on {net}\n", scenario.label());

    println!(
        "{:<6} {:>9} {:>10} {:>12} {:>12} {:>11}",
        "model", "streams", "viewers", "max fanout", "crosspoints", "converters"
    );
    for model in MulticastModel::ALL {
        let offered = scenario.generate(net, model, 2024);
        let viewers: usize = offered.connections().map(|c| c.fanout()).sum();
        let max_fanout = offered.connections().map(|c| c.fanout()).max().unwrap_or(0);

        // Route the entire offered load through the crossbar at once.
        let mut xbar = WdmCrossbar::build(net, model);
        let outcome = xbar
            .route_verified(&offered)
            .expect("crossbar is nonblocking");
        assert!(outcome.delivered_exactly(&offered));

        println!(
            "{:<6} {:>9} {:>10} {:>12} {:>12} {:>11}",
            model.to_string(),
            offered.len(),
            viewers,
            max_fanout,
            capacity::crossbar_crosspoints(net, model),
            capacity::crossbar_converters(net, model),
        );
    }

    println!(
        "\nEvery offered stream was delivered optically (no O/E/O) — the MSW switch\n\
         does it with {}× fewer crosspoints and zero converters, at the price of\n\
         pinning each channel to one wavelength end to end.",
        net.wavelengths
    );
}
