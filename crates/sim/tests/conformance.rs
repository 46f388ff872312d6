//! Serial-oracle conformance sweeps and the differential backend
//! runner — the tentpole checks of the deterministic simulation
//! harness.
//!
//! On a legal, closed churn trace against a fabric provisioned at the
//! Theorem 1 bound, *every* seeded interleaving of the sharded engine
//! must produce exactly the serial reference outcomes: cross-shard
//! reordering may surface as transient `Busy` conflicts, but the
//! park-and-retry machinery has to absorb them all. The sweeps below
//! prove the explored schedules are genuinely distinct by counting
//! decision-log fingerprints.

use wdm_multistage::Construction;
use wdm_sim::{diff_runs, simulate, BackendKind, ChoiceStream, Scenario, Scheduler, SimParams};

/// `kind` at its bound on the `n, r, k` geometry (MSW-dominant).
fn at_bound(
    kind: BackendKind,
    (n, r, k): (u32, u32, u32),
    steps: usize,
    shards: usize,
) -> Scenario {
    Scenario::new(kind)
        .geometry(n, r, k)
        .schedule(steps, shards)
}

/// ISSUE acceptance: ≥100 distinct seeded interleavings of a
/// Theorem-1-bound churn trace with zero oracle divergences.
#[test]
fn three_stage_at_bound_conformance_sweep() {
    let setup = at_bound(BackendKind::ThreeStage, (2, 4, 1), 40, 4);
    let report = setup.sweep(0..128).unwrap();
    assert_eq!(report.checked, 128);
    assert!(
        report.failures.is_empty(),
        "oracle divergence:\n{}",
        report.failures[0]
    );
    assert!(
        report.distinct_schedules >= 100,
        "only {} distinct schedules in 128 seeds",
        report.distinct_schedules
    );
}

/// The crossbar (strictly nonblocking by construction) under the same
/// sweep: different backend, same conformance obligation.
#[test]
fn crossbar_conformance_sweep() {
    let setup = at_bound(BackendKind::Crossbar, (2, 4, 1), 40, 4);
    let report = setup.sweep(0..64).unwrap();
    assert!(
        report.failures.is_empty(),
        "oracle divergence:\n{}",
        report.failures[0]
    );
    assert!(report.distinct_schedules >= 50);
}

/// More shards than ports-worth of contention: the schedule space is
/// wider but the oracle obligation is identical. The last row is the
/// MAW-dominant construction, provisioned and judged at the Theorem 2
/// bound (10 against Theorem 1's 9 on this geometry).
#[test]
fn conformance_is_shard_count_independent() {
    use Construction::{MawDominant, MswDominant};
    for (construction, geo, shards) in [
        (MswDominant, (2, 4, 1), 1usize),
        (MswDominant, (2, 4, 1), 2),
        (MswDominant, (2, 4, 1), 8),
        (MawDominant, (3, 4, 2), 4),
    ] {
        let setup = at_bound(BackendKind::ThreeStage, geo, 30, shards).construction(construction);
        if construction == MawDominant {
            let msw = setup.construction(MswDominant).bound().unwrap();
            assert_eq!(setup.bound().unwrap().1, "Theorem 2 bound");
            assert!(setup.middle_count().unwrap() > msw.0);
        }
        let report = setup.sweep(0..24).unwrap();
        assert!(
            report.failures.is_empty(),
            "{construction} shards={shards}:\n{}",
            report.failures[0]
        );
    }
}

/// Differential backend runner: an identical trace through the
/// crossbar and through a three-stage network at the Theorem 1 bound
/// must yield the same per-event verdicts — both constructions promise
/// nonblocking, so any disagreement localizes a bug to one of them.
#[test]
fn crossbar_and_three_stage_agree_at_the_bound() {
    let cb = at_bound(BackendKind::Crossbar, (2, 4, 1), 40, 4);
    let ts = at_bound(BackendKind::ThreeStage, (2, 4, 1), 40, 4);
    let params = SimParams::default();
    for seed in 0..32u64 {
        let trace = cb.trace(seed).unwrap();
        let mut cs_a = ChoiceStream::new(seed);
        let run_a = simulate(
            cb.build().unwrap(),
            &trace,
            &[],
            &params,
            Scheduler::Random(&mut cs_a),
        );
        let mut cs_b = ChoiceStream::new(seed);
        let run_b = simulate(
            ts.build().unwrap(),
            &trace,
            &[],
            &params,
            Scheduler::Random(&mut cs_b),
        );
        let diffs = diff_runs(&run_a, &run_b);
        assert!(
            diffs.is_empty(),
            "seed {seed}: backends diverged: {}",
            diffs[0]
        );
    }
}
