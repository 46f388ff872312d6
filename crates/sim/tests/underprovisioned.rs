//! Failing-seed artifacts on under-provisioned fabrics.
//!
//! Two regimes, both informative:
//!
//! * **`m = bound − 1`** — one middle switch below Theorem 1's
//!   *sufficient* condition. At these small geometries the bound has
//!   measurable slack: the adversary that drives the theorem's counting
//!   argument must consume an output endpoint in every module it
//!   conflicts with, which at small `n·k` starves the blocked request
//!   of legal destinations before all middles are covered. The sweep
//!   asserts zero hard blocks — an empirical record of that slack, and
//!   a regression guard on the routing search.
//! * **Starved (`m` far below the bound)** — hard blocks are certain,
//!   and the harness must turn the first one into a replayable,
//!   delta-debugged [`FailingSeed`] artifact of ≤ 10 events.

use wdm_sim::{BackendKind, Scenario, Violation};

/// A three-stage scenario on n = r = 4, k = 1 starved to 3 middles (the
/// bound is 13; 3 cannot absorb adversarial churn).
fn starved() -> Scenario {
    Scenario::new(BackendKind::ThreeStage)
        .geometry(4, 4, 1)
        .schedule(60, 4)
        .middles(3)
}

/// One below the sufficient bound still never blocks at this geometry:
/// Theorem 1's counting argument over-provisions when n·k is small.
#[test]
fn bound_minus_one_has_empirical_slack() {
    for (n, r) in [(2u32, 4u32), (4, 4)] {
        let at_bound = Scenario::new(BackendKind::ThreeStage)
            .geometry(n, r, 1)
            .schedule(40, 4);
        let m = at_bound.middle_count().unwrap() - 1;
        let setup = at_bound.middles(m);
        let report = setup.sweep(0..24).unwrap();
        assert!(
            report.failures.is_empty(),
            "n={n} r={r} m={m}: hard block one below the bound:\n{}",
            report.failures[0]
        );
    }
}

/// A starved middle stage must fail, and the failure must come back as
/// a shrunk, replayable artifact: ≤ 10 events plus a seed and a
/// `wdmcast sim` command line.
#[test]
fn starved_network_yields_shrunk_failing_seed() {
    let failure = starved()
        .failing_seed(0)
        .unwrap()
        .expect("a starved network must produce a failing seed");
    assert!(
        failure
            .violations
            .iter()
            .any(|v| matches!(v, Violation::HardBlock { .. })),
        "expected a hard block, got {:?}",
        failure.violations
    );
    assert!(
        failure.trace.len() <= 10,
        "shrunk trace has {} events (wanted ≤ 10):\n{failure}",
        failure.trace.len()
    );
    let repro = failure.repro();
    assert!(repro.contains("--seed 0"), "{repro}");
    assert!(repro.contains("--backend three-stage"), "{repro}");
    assert!(repro.contains("--m 3"), "{repro}");
}

/// The shrunk trace is 1-minimal *and still failing*: replaying it
/// under a fresh scheduler from the same seed reproduces the hard
/// block — the artifact is self-contained evidence, not a snapshot of
/// transient state.
#[test]
fn shrunk_trace_replays_the_failure() {
    let setup = starved();
    let failure = setup
        .failing_seed(3)
        .unwrap()
        .expect("starved network fails");
    let mut choices = wdm_sim::ChoiceStream::new(failure.seed);
    let violations = setup
        .violations_for(&failure.trace, &[], &mut choices)
        .unwrap();
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::HardBlock { .. })),
        "shrunk trace no longer blocks: {violations:?}"
    );
}

/// Failing seeds are dense in the starved regime — the sweep itself
/// collects them as artifacts.
#[test]
fn starved_sweep_collects_artifacts() {
    let report = starved().sweep(0..8).unwrap();
    assert_eq!(report.failures.len(), 8, "every starved seed must fail");
    for f in &report.failures {
        assert!(f.trace.len() <= 10, "unshrunk artifact:\n{f}");
        assert!(!f.repro().is_empty());
    }
}
