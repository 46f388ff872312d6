//! Faulted-run sweeps: conservation invariants under every schedule,
//! and the spare-margin nonblocking guarantee inside the simulator.
//!
//! Faulted runs have schedule-dependent victim sets (which connections
//! a fault evicts depends on what was admitted when it fired), so the
//! per-index serial oracle does not apply; instead every interleaving
//! must satisfy the outcome conservation laws, and — when the surviving
//! middle stage still meets the Theorem 1 bound — admit everything.

use wdm_core::Fault;
use wdm_multistage::bounds;
use wdm_sim::{simulate, BackendKind, ChoiceStream, Scenario, Scheduler, SimParams};

/// `kind` on n=2, r=4, k=1 with 40 steps over 4 shards, at its bound.
fn base(kind: BackendKind) -> Scenario {
    Scenario::new(kind).geometry(2, 4, 1).schedule(40, 4)
}

/// The three-stage base with one spare middle above the Theorem 1 bound.
fn spare_margin() -> Scenario {
    let at_bound = base(BackendKind::ThreeStage);
    at_bound.middles(at_bound.middle_count().unwrap() + 1)
}
use wdm_workload::{FaultAction, TimedFault};

/// Spare margin m = bound + 1 with one mid-trace middle-switch kill:
/// the surviving stage still meets the bound, so every schedule must
/// stay clean, conserve outcomes, and hard-block nothing.
#[test]
fn three_stage_spare_margin_survives_faulted_sweep() {
    let setup = spare_margin().faulted(true);
    let report = setup.sweep(0..48).unwrap();
    assert!(
        report.failures.is_empty(),
        "margin fabric violated invariants:\n{}",
        report.failures[0]
    );
    assert!(report.distinct_schedules >= 40);
}

/// The crossbar under seed-derived port faults: conservation laws hold
/// under every schedule (victims become orphaned departures, refused
/// connects become `ComponentDown` — nothing is lost or double
/// counted).
#[test]
fn crossbar_faulted_sweep_conserves_outcomes() {
    let setup = base(BackendKind::Crossbar).faulted(true);
    let report = setup.sweep(0..48).unwrap();
    assert!(
        report.failures.is_empty(),
        "crossbar faulted run violated invariants:\n{}",
        report.failures[0]
    );
}

/// Killing a middle at m = bound (no spare) may legitimately block, so
/// the policy drops the nonblocking expectation — but the conservation
/// laws still bind every schedule.
#[test]
fn at_bound_kill_without_margin_still_conserves() {
    let setup = base(BackendKind::ThreeStage).faulted(true);
    let report = setup.sweep(0..48).unwrap();
    assert!(
        report.failures.is_empty(),
        "conservation violated on degraded fabric:\n{}",
        report.failures[0]
    );
}

/// Spare-margin, inspected directly: with m = bound + 1 and one kill,
/// self-healing must relocate every victim (`heal_failed == 0`) and the
/// run must end with zero hard blocks — Theorem 1 applied to the
/// surviving fabric, exercised across schedules.
#[test]
fn spare_margin_heals_every_victim() {
    let setup = spare_margin();
    let m = setup.middle_count().unwrap();
    assert_eq!(m, bounds::theorem1_min_m(setup.n, setup.r).m + 1);
    for seed in 0..16u64 {
        let trace = setup.trace(seed).unwrap();
        let kill = TimedFault {
            time: trace[trace.len() / 3].time,
            action: FaultAction::Fail(Fault::MiddleSwitch((seed % m as u64) as u32)),
        };
        let mut choices = ChoiceStream::new(seed);
        let run = simulate(
            setup.build().unwrap(),
            &trace,
            &[kill],
            &SimParams::default(),
            Scheduler::Random(&mut choices),
        );
        let s = &run.report.summary;
        assert!(
            run.report.is_clean(),
            "seed {seed}: {:?}",
            run.report.errors
        );
        assert_eq!(s.blocked, 0, "seed {seed}: margin fabric hard-blocked");
        assert_eq!(s.heal_failed, 0, "seed {seed}: heal failed with margin");
        assert_eq!(s.connections_hit, s.healed, "seed {seed}");
        assert_eq!(s.active, 0, "seed {seed}");
    }
}
