//! Conformance sweeps for the AWG-based wavelength-routed Clos backend
//! — the ISSUE 6 acceptance legs.
//!
//! All three architectures promise strict nonblocking at their
//! respective bounds, so on identical legal traces they must agree on
//! every per-event verdict: the differential runner below drives the
//! same seed through `awg-clos` vs `three-stage` and `awg-clos` vs
//! `crossbar` (≥128 seeds each) and demands zero divergences. Faulted
//! runs have schedule-dependent victim sets, so — exactly as for the
//! switching backends — they are judged by the conservation-law oracle
//! across ≥128 seeds instead of per-index diffs.

use wdm_core::Fault;
use wdm_multistage::awg;
use wdm_sim::{
    diff_runs, invariant_violations, simulate, BackendKind, ChoiceStream, Scenario, Scheduler,
    SimParams,
};
use wdm_workload::{FaultAction, TimedFault};

const N: u32 = 2;
const R: u32 = 4;
const K: u32 = 4;
const STEPS: usize = 40;
const SHARDS: usize = 4;
const SEEDS: u64 = 128;

/// `kind` at its own bound on the shared geometry.
fn at_bound(kind: BackendKind) -> Scenario {
    Scenario::new(kind)
        .geometry(N, R, K)
        .schedule(STEPS, SHARDS)
}

/// The AWG-Clos at its pool bound plus `spare` gratings.
fn awg_clos(spare: u32) -> Scenario {
    let sc = at_bound(BackendKind::AwgClos);
    match spare {
        0 => sc,
        _ => sc.middles(sc.middle_count().unwrap() + spare),
    }
}

/// Serial-oracle conformance at the AWG bound: every seeded
/// interleaving matches the serial reference, with zero hard blocks.
#[test]
fn awg_clos_at_bound_conformance_sweep() {
    let setup = awg_clos(0);
    assert_eq!(
        setup.middle_count().ok(),
        awg::min_middles(N, R, K, 1),
        "provisioned exactly at the pool bound"
    );
    let report = setup.sweep(0..SEEDS).unwrap();
    assert_eq!(report.checked, SEEDS as usize);
    assert!(
        report.failures.is_empty(),
        "oracle divergence:\n{}",
        report.failures[0]
    );
    assert!(
        report.distinct_schedules >= 100,
        "only {} distinct schedules in {SEEDS} seeds",
        report.distinct_schedules
    );
}

/// Differential leg: awg-clos vs three-stage, fault-free, same trace
/// and same scheduling seed — per-event verdicts must be identical.
#[test]
fn awg_clos_and_three_stage_agree_at_the_bound() {
    let awg_setup = awg_clos(0);
    let ts = at_bound(BackendKind::ThreeStage);
    let params = SimParams::default();
    for seed in 0..SEEDS {
        let trace = awg_setup.trace(seed).unwrap();
        let mut cs_a = ChoiceStream::new(seed);
        let run_a = simulate(
            awg_setup.build().unwrap(),
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
            "seed {seed}: awg-clos vs three-stage diverged: {}",
            diffs[0]
        );
    }
}

/// Differential leg: awg-clos vs crossbar, fault-free.
#[test]
fn awg_clos_and_crossbar_agree_at_the_bound() {
    let awg_setup = awg_clos(0);
    let cb = at_bound(BackendKind::Crossbar);
    let params = SimParams::default();
    for seed in 0..SEEDS {
        let trace = awg_setup.trace(seed).unwrap();
        let mut cs_a = ChoiceStream::new(seed);
        let run_a = simulate(
            awg_setup.build().unwrap(),
            &trace,
            &[],
            &params,
            Scheduler::Random(&mut cs_a),
        );
        let mut cs_b = ChoiceStream::new(seed);
        let run_b = simulate(
            cb.build().unwrap(),
            &trace,
            &[],
            &params,
            Scheduler::Random(&mut cs_b),
        );
        let diffs = diff_runs(&run_a, &run_b);
        assert!(
            diffs.is_empty(),
            "seed {seed}: awg-clos vs crossbar diverged: {}",
            diffs[0]
        );
    }
}

/// Faulted sweep with a spare grating (m = bound + 1): the surviving
/// middle stage still meets the bound, so every schedule must stay
/// clean, conserve outcomes, and hard-block nothing — the Clos sparing
/// argument carried over to wavelength routing.
#[test]
fn awg_clos_spare_margin_survives_faulted_sweep() {
    let setup = awg_clos(1).faulted(true);
    let report = setup.sweep(0..SEEDS).unwrap();
    assert!(
        report.failures.is_empty(),
        "margin fabric violated invariants:\n{}",
        report.failures[0]
    );
    assert!(report.distinct_schedules >= 100);
}

/// Killing a grating at m = bound (no spare) may legitimately block,
/// but the conservation laws still bind every schedule.
#[test]
fn awg_clos_at_bound_kill_still_conserves() {
    let setup = awg_clos(0).faulted(true);
    let report = setup.sweep(0..SEEDS).unwrap();
    assert!(
        report.failures.is_empty(),
        "conservation violated on degraded fabric:\n{}",
        report.failures[0]
    );
}

/// The harness's repro line names the new backend and carries --m, so
/// a failing seed replays under `wdmcast sim --backend awg-clos`.
#[test]
fn awg_clos_repro_command_is_replayable() {
    let setup = awg_clos(0);
    let cmd = setup.repro_command(7).unwrap();
    assert!(cmd.contains("--backend awg-clos"), "{cmd}");
    let m = setup.middle_count().unwrap();
    assert!(cmd.contains(&format!("--m {m}")), "{cmd}");
}

/// Converter-bank faults (ingress and egress banks, alternating by
/// seed) failed mid-trace and repaired two-thirds in: victims are
/// evicted and re-admitted around the dark bank, refused connects
/// surface as `ComponentDown`, and every schedule still satisfies the
/// conservation laws.
#[test]
fn awg_clos_converter_bank_faults_conserve_outcomes() {
    let setup = awg_clos(0);
    for seed in 0..64u64 {
        let trace = setup.trace(seed).unwrap();
        let module = (seed % R as u64) as u32;
        let fault = if seed % 2 == 0 {
            Fault::InputConverters(module)
        } else {
            Fault::OutputConverters(module)
        };
        let script = [
            TimedFault {
                time: trace[trace.len() / 3].time,
                action: FaultAction::Fail(fault),
            },
            TimedFault {
                time: trace[trace.len() * 2 / 3].time,
                action: FaultAction::Repair(fault),
            },
        ];
        let mut choices = ChoiceStream::new(seed);
        let run = simulate(
            setup.build().unwrap(),
            &trace,
            &script,
            &SimParams::default(),
            Scheduler::Random(&mut choices),
        );
        let violations = invariant_violations(&run, false);
        assert!(
            violations.is_empty(),
            "seed {seed} ({fault}): {}",
            violations[0]
        );
        let s = &run.report.summary;
        assert_eq!(
            s.connections_hit,
            s.healed + s.heal_failed,
            "seed {seed}: healing must account for every victim"
        );
    }
}

/// Passive AWG gratings carry no converter banks, so a
/// `MiddleConverters` fault names hardware the architecture does not
/// have: it must evict nothing and leave every per-event outcome
/// identical to the fault-free run.
#[test]
fn awg_clos_middle_converter_fault_is_inert() {
    let setup = awg_clos(0);
    let m = setup.middle_count().unwrap();
    for seed in 0..8u64 {
        let trace = setup.trace(seed).unwrap();
        let script = [TimedFault {
            time: trace[trace.len() / 3].time,
            action: FaultAction::Fail(Fault::MiddleConverters((seed % m as u64) as u32)),
        }];
        let mut cs_a = ChoiceStream::new(seed);
        let faulted = simulate(
            setup.build().unwrap(),
            &trace,
            &script,
            &SimParams::default(),
            Scheduler::Random(&mut cs_a),
        );
        let mut cs_b = ChoiceStream::new(seed);
        let clean = simulate(
            setup.build().unwrap(),
            &trace,
            &[],
            &SimParams::default(),
            Scheduler::Random(&mut cs_b),
        );
        assert_eq!(
            faulted.report.summary.connections_hit, 0,
            "seed {seed}: a converterless stage had victims"
        );
        let diffs = diff_runs(&faulted, &clean);
        assert!(
            diffs.is_empty(),
            "seed {seed}: inert fault changed an outcome: {}",
            diffs[0]
        );
    }
}

/// Spare-margin converter leg: with a spare grating (m = bound + 1) an
/// ingress-bank kill still leaves conversion-free channels plus slack
/// capacity, and self-healing must relocate every victim it can route —
/// the sparing argument extended from dead gratings to dead converter
/// hardware.
#[test]
fn awg_clos_spare_margin_rides_out_converter_bank_kill() {
    let setup = awg_clos(1);
    let mut total_hit = 0u64;
    for seed in 0..16u64 {
        let trace = setup.trace(seed).unwrap();
        let script = [TimedFault {
            time: trace[trace.len() / 3].time,
            action: FaultAction::Fail(Fault::InputConverters((seed % R as u64) as u32)),
        }];
        let mut choices = ChoiceStream::new(seed);
        let run = simulate(
            setup.build().unwrap(),
            &trace,
            &script,
            &SimParams::default(),
            Scheduler::Random(&mut choices),
        );
        let violations = invariant_violations(&run, false);
        assert!(violations.is_empty(), "seed {seed}: {}", violations[0]);
        let s = &run.report.summary;
        assert_eq!(
            s.connections_hit,
            s.healed + s.heal_failed,
            "seed {seed}: healing must account for every victim"
        );
        total_hit += s.connections_hit;
    }
    assert!(
        total_hit > 0,
        "no seed ever routed traffic through the killed bank; the leg is vacuous"
    );
}
