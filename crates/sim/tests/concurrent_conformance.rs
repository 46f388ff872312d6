//! Concurrency conformance sweeps for the CAS admission path.
//!
//! The fine-grained backend (`ConcurrentThreeStage`) commits occupancy
//! through optimistic probe + CAS instead of under the exclusive
//! backend lock, so it gets its own sweep cells: every seeded
//! interleaving of the sharded engine in CAS mode must produce exactly
//! the serial first-fit oracle outcomes on a fault-free closed trace,
//! and must satisfy the outcome conservation laws when a seed-derived
//! middle-switch kill + repair races the admissions. A divergence comes
//! back as a shrunk [`wdm_sim::FailingSeed`] whose display carries a
//! `reproduce: wdmcast sim … --concurrent` line.

use wdm_sim::{BackendKind, Scenario};

/// The CAS three-stage at the Theorem 1 bound, k = 1.
fn cas_at_bound(n: u32, r: u32, steps: usize, shards: usize) -> Scenario {
    Scenario::new(BackendKind::ThreeStage)
        .geometry(n, r, 1)
        .schedule(steps, shards)
        .concurrent(true)
}

/// ISSUE acceptance: 256 seeded interleavings of a Theorem-1-bound
/// churn trace through the CAS backend, zero divergences from the
/// serial oracle, and proof the schedules explored are distinct.
#[test]
fn concurrent_at_bound_conformance_sweep() {
    let setup = cas_at_bound(2, 4, 40, 4);
    let report = setup.sweep(0..256).unwrap();
    assert_eq!(report.checked, 256);
    assert!(
        report.failures.is_empty(),
        "CAS-mode oracle divergence:\n{}",
        report.failures[0]
    );
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in 256 seeds",
        report.distinct_schedules
    );
}

/// 256 faulted seeds with a one-switch spare margin: the surviving
/// middle stage still meets the Theorem 1 bound, so every CAS-mode
/// schedule must conserve outcomes, heal every victim, and hard-block
/// nothing — the final occupancy matrix is re-derived and cross-checked
/// by `check_consistency` at drain.
#[test]
fn concurrent_faulted_sweep_conserves_outcomes() {
    let at_bound = cas_at_bound(2, 4, 40, 4);
    let setup = at_bound
        .middles(at_bound.middle_count().unwrap() + 1)
        .faulted(true);
    let report = setup.sweep(0..256).unwrap();
    assert_eq!(report.checked, 256);
    assert!(
        report.failures.is_empty(),
        "CAS-mode faulted run violated invariants:\n{}",
        report.failures[0]
    );
}

/// Shard-count independence in CAS mode: more shards widen the
/// schedule space (and the read-lock concurrency window), but the
/// serial-oracle obligation is identical.
#[test]
fn concurrent_conformance_is_shard_count_independent() {
    for shards in [1usize, 2, 8] {
        let setup = cas_at_bound(2, 4, 30, shards);
        let report = setup.sweep(0..24).unwrap();
        assert!(
            report.failures.is_empty(),
            "shards={shards}:\n{}",
            report.failures[0]
        );
    }
}

/// A starved CAS fabric MUST fail the nonblocking oracle, and the
/// failure artifact must carry a replayable `--concurrent` repro line —
/// this guards the artifact pipeline for the new mode against silently
/// passing runs.
#[test]
fn starved_concurrent_failure_is_replayable() {
    let setup = cas_at_bound(4, 4, 60, 4).middles(3); // far below the Theorem 1 bound
    let failure = (0..16u64)
        .find_map(|seed| setup.failing_seed(seed).unwrap())
        .expect("a starved middle stage must produce a failing seed");
    assert!(!failure.violations.is_empty());
    let rendered = failure.to_string();
    assert!(
        rendered.contains("reproduce: wdmcast sim"),
        "artifact lost its repro line:\n{rendered}"
    );
    assert!(
        rendered.contains("--concurrent"),
        "repro line lost the CAS-mode flag:\n{rendered}"
    );
}
