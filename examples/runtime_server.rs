//! Concurrent switch-controller demo: run the sharded admission engine
//! against a three-stage network sized at the Theorem 1 bound, with a
//! periodic metrics observer emitting snapshots while traffic is live.
//!
//! This is the library-level equivalent of `wdmcast serve` — it shows
//! the full runtime lifecycle: start, feed a timed trace, watch the
//! snapshot stream, then drain and inspect the final report.
//!
//! Run with: `cargo run --example runtime_server`

use std::time::Duration;

use wdm_multicast::core::MulticastModel;
use wdm_multicast::multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_multicast::runtime::EngineBuilder;
use wdm_multicast::workload::{DynamicTraffic, TimedEvent, TraceEvent};

fn main() {
    let (n, r, k) = (4u32, 4u32, 2u32);
    let bound = bounds::theorem1_min_m(n, r);
    let params = ThreeStageParams::new(n, bound.m, r, k);
    println!(
        "serving a {}×{} three-stage network: n={n}, r={r}, k={k}, m={} (Theorem 1 bound)\n",
        n * r,
        n * r,
        bound.m
    );

    // A churn trace with every connection eventually departing, so the
    // run ends with an empty network.
    let horizon = 25.0;
    let mut events =
        DynamicTraffic::new(params.network(), MulticastModel::Msw, 5.0, 1.0, 3, 0xCAFE)
            .generate(horizon);
    let mut live = std::collections::BTreeSet::new();
    for e in &events {
        match &e.event {
            TraceEvent::Connect(c) => live.insert(c.source()),
            TraceEvent::Disconnect(s) => live.remove(s),
        };
    }
    events.extend(live.into_iter().map(|src| TimedEvent {
        time: horizon + 1.0,
        event: TraceEvent::Disconnect(src),
    }));
    println!("offered trace: {} timed events\n", events.len());

    // Four shards, each admitting on this thread, plus a 5 ms snapshot
    // observer.
    let engine = EngineBuilder::new()
        .shards(4)
        .observe_every(Duration::from_millis(5))
        .start(ThreeStageNetwork::new(
            params,
            Construction::MswDominant,
            MulticastModel::Msw,
        ));

    // Feed the trace while the engine is live; metrics are readable
    // concurrently from this thread.
    for chunk in events.chunks(64) {
        for ev in chunk {
            let _ = engine.submit(ev.clone());
        }
        let snap = engine.snapshot_now();
        println!(
            "  live: offered {:>4}  admitted {:>4}  active {:>3}  blocked {}",
            snap.offered, snap.admitted, snap.active, snap.blocked
        );
    }

    let report = engine.drain();
    let s = &report.summary;
    println!(
        "\nfinal report ({} observer snapshots collected):",
        report.snapshots.len()
    );
    println!("  offered        {}", s.offered);
    println!("  admitted       {}", s.admitted);
    println!(
        "  blocked        {}  (m is at the bound: must be 0)",
        s.blocked
    );
    println!("  retried        {}", s.retried);
    println!("  expired        {}", s.expired);
    println!("  departed       {}", s.departed);
    println!("  P(block)       {:.4}", s.blocking_probability);
    println!(
        "  admit p50/p99  {} ns / {} ns",
        s.p50_admit_ns, s.p99_admit_ns
    );
    println!("  middle loads   {:?}", s.middle_loads);

    assert!(report.is_clean(), "runtime errors: {:?}", report.errors);
    assert_eq!(
        s.blocked, 0,
        "Theorem 1 violated under concurrent admission!"
    );
    assert_eq!(s.active, 0, "trace is closed, network must drain empty");
    println!("\nclean drain: zero blocking at the Theorem 1 bound, empty network at exit.");
}
