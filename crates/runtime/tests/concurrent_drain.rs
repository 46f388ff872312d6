//! Drain and snapshot versus concurrent submission: the stop-the-world
//! epoch around the CAS admission path.
//!
//! With a [`wdm_multistage::ConcurrentThreeStage`] backend the engine's
//! shards admit under the *read* side of the backend lock, so drain and
//! metric snapshots can race in-flight CAS commits. These tests pin the
//! two promised behaviors: a drain fired mid-storm still yields exactly
//! one clean, outcome-conserving report, and a gauge snapshot taken
//! while a commit sits between its `epoch_start`/`epoch_finish` pair
//! detects the torn window via the seqlock counters and retries
//! (surfaced as `MetricsSnapshot::snapshot_retries`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_multistage::{bounds, ConcurrentThreeStage, Construction, PausePoint, ThreeStageParams};
use wdm_runtime::{EngineBuilder, RuntimeConfig};
use wdm_workload::{DynamicTraffic, TimedEvent, TraceEvent};

fn cas_backend(n: u32, r: u32, k: u32) -> ConcurrentThreeStage {
    let m = bounds::theorem1_min_m(n, r).m;
    ConcurrentThreeStage::new(
        ThreeStageParams::new(n, m, r, k),
        Construction::MswDominant,
        MulticastModel::Msw,
    )
}

/// Drain mid-CAS-storm: a feeder thread pours churn into four shards
/// submitting under the read lock while the main thread pulls the
/// drain lever partway through. The single report must be clean and
/// conserve every outcome — each offered connect resolved exactly once
/// (admitted = connects − rejects), nothing double-counted, zero hard
/// blocks on the at-bound fabric.
#[test]
fn drain_mid_storm_yields_one_clean_report() {
    let (n, r, k) = (4, 4, 2);
    let net = NetworkConfig::new(n * r, k);
    let events = DynamicTraffic::new(net, MulticastModel::Msw, 6.0, 1.0, 2, 41).generate(40.0);
    assert!(events.len() > 200, "storm needs a real trace");

    let engine = EngineBuilder::new()
        .shards(4)
        .deadline(Duration::from_millis(200))
        .start(cas_backend(n, r, k));

    std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            for ev in &events {
                // Refusals after the drain signal are expected; they
                // must not be counted as offered.
                let _ = engine.submit(ev.clone());
            }
        });
        // Let the storm develop, then drain while submits are in flight.
        while engine.metrics().admitted.load(Ordering::Relaxed) < 20 {
            std::thread::yield_now();
        }
        engine.begin_drain();
        feeder.join().unwrap();
    });
    let report = engine.drain();

    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.backend.check_consistency(), Vec::<String>::new());
    let s = &report.summary;
    assert!(s.admitted >= 20);
    assert_eq!(
        s.offered,
        s.admitted + s.blocked + s.expired + s.component_down + s.overloaded,
        "every offered connect must resolve exactly once"
    );
    assert_eq!(s.blocked, 0, "at-bound fabric may not hard-block");
    assert_eq!(
        s.active,
        s.admitted - s.departed - s.orphaned_departures,
        "live count must equal admissions minus departures"
    );
    assert_eq!(s.active, report.backend.active_connections() as u64);
}

/// A snapshot taken while a commit is parked inside its epoch window
/// must spin on the seqlock (counted in `snapshot_retries`) instead of
/// publishing torn gauges. The pause hook holds the very first commit
/// between `epoch_start` and its leg CAS; the snapshot runs against
/// that held-open window.
#[test]
fn snapshot_during_held_commit_counts_seqlock_retries() {
    let (n, r, k) = (2, 2, 2);
    let mut backend = cas_backend(n, r, k);
    let trap = Arc::new(AtomicBool::new(true));
    let parked = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    {
        let (trap, parked, resume) = (trap.clone(), parked.clone(), resume.clone());
        backend.set_pause_hook(Some(Arc::new(move |p: PausePoint| {
            // BeforeLeg fires after epoch_start: the epoch is open.
            if matches!(p, PausePoint::BeforeLeg { .. }) && trap.swap(false, Ordering::AcqRel) {
                parked.wait();
                resume.wait();
            }
        })));
    }

    let engine = EngineBuilder::from_config(RuntimeConfig::default())
        .shards(1)
        .start(backend);
    let snap = std::thread::scope(|scope| {
        // Two unicasts, admitted on the submitting thread: the first
        // one's commit parks at its leg CAS, holding the submitter (and
        // the single shard's lock) until the snapshot below is taken;
        // the second follows once it resumes.
        scope.spawn(|| {
            for (src, dst) in [(0u32, 2u32), (1, 3)] {
                let _ = engine.submit(TimedEvent {
                    time: 0.0,
                    event: TraceEvent::Connect(MulticastConnection::unicast(
                        Endpoint::new(src, 0),
                        Endpoint::new(dst, 0),
                    )),
                });
            }
        });
        parked.wait(); // the first commit now sits mid-epoch
        let snap = engine.snapshot_now();
        assert!(
            snap.snapshot_retries > 0,
            "seqlock reader must have detected the held-open commit"
        );
        resume.wait();
        snap
    });

    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(report.summary.snapshot_retries >= snap.snapshot_retries);
}
