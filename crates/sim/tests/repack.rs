//! Conformance sweeps for rearrangeable (repacking) operation.
//!
//! Below the nonblocking bound the engine may rearrange existing routes
//! with make-before-break moves to admit a connect FirstFit would hard
//! block. Which moves run depends on which routes exist when the block
//! happens — i.e. on the interleaving — so repack runs are judged by
//! the schedule-independent conservation laws (every offered connect
//! resolves exactly once, every admitted connect leaves exactly once,
//! the drained backend is empty and self-consistent), never by
//! per-index equality with a serial reference. The mid-move invariants
//! (consistency at every intermediate step, no session ever dark,
//! aborts restore the original route byte for byte) are proved at the
//! multistage layer; these sweeps establish that whole engine lifetimes
//! built from thousands of such moves stay conservative under
//! adversarial churn, scheduling, and faults.

use wdm_core::{MulticastModel, NetworkConfig};
use wdm_multistage::{Construction, SelectionStrategy, ThreeStageNetwork, ThreeStageParams};
use wdm_runtime::{RepackPolicy, RuntimeConfig};
use wdm_sim::{
    invariant_violations, simulate, BackendKind, Scenario, Scheduler, SimParams, Violation,
};
use wdm_workload::{close_trace, DynamicTraffic, TimedEvent};

const SEEDS: u64 = 256;

fn setup_at_bound_minus_one(faulted: bool) -> Scenario {
    let at_bound = Scenario::new(BackendKind::ThreeStage)
        .geometry(2, 4, 1)
        .schedule(40, 4);
    at_bound
        .middles(at_bound.middle_count().unwrap() - 1)
        .repack(true)
        .faulted(faulted)
}

/// Fault-free churn at `m = bound − 1` with on-block repacking: every
/// seed must satisfy the conservation laws, resolve every event, and
/// drain to an empty, consistent fabric.
#[test]
fn repack_sweep_at_bound_minus_one_fault_free() {
    let setup = setup_at_bound_minus_one(false);
    let report = setup.sweep(0..SEEDS).unwrap();
    assert_eq!(report.checked, SEEDS as usize);
    assert!(
        report.failures.is_empty(),
        "repack run violated an invariant:\n{}",
        report.failures[0]
    );
    assert!(
        report.distinct_schedules > SEEDS as usize / 2,
        "sweep explored too few schedules: {}",
        report.distinct_schedules
    );
}

/// The same sweep with a seed-derived middle-switch failure and repair
/// mid-trace: a fault racing in-flight repack moves must abort them
/// cleanly (the multistage layer proves the route survives), and the
/// run as a whole must still conserve every request.
#[test]
fn repack_sweep_at_bound_minus_one_faulted() {
    let setup = setup_at_bound_minus_one(true);
    let report = setup.sweep(0..SEEDS).unwrap();
    assert_eq!(report.checked, SEEDS as usize);
    assert!(
        report.failures.is_empty(),
        "faulted repack run violated an invariant:\n{}",
        report.failures[0]
    );
}

fn starved_net() -> ThreeStageNetwork {
    // Theorem 1 bound for (n=2, r=4) is 6; 2 middles guarantee blocks
    // under sustained load with load-spreading selection.
    let mut net = ThreeStageNetwork::new(
        ThreeStageParams::new(2, 2, 4, 2),
        Construction::MswDominant,
        wdm_core::MulticastModel::Msw,
    );
    net.set_strategy(SelectionStrategy::Spread);
    net
}

/// A closed mixed-fanout Poisson trace over the starved geometry.
///
/// Dominance needs traffic with *slack*: the adversarial churn
/// generator emits only full-fanout multicasts, whose branches carry a
/// leg to every output module — a relocation target must then have a
/// free wavelength on the input link *and* on all `r` legs at once, so
/// under saturation no make phase can ever succeed and rearrangement is
/// provably useless. Mixed unicast/small-multicast holding-time traffic
/// is where the paper's rearrangeable regime pays off.
fn mixed_trace(seed: u64) -> Vec<TimedEvent> {
    let cfg = NetworkConfig::new(8, 2);
    let mut traffic = DynamicTraffic::new(cfg, MulticastModel::Msw, 10.0, 1.0, 2, seed);
    let mut trace = traffic.generate(12.0);
    close_trace(&mut trace, 13.0);
    trace
}

fn starved_params(repack: bool) -> SimParams {
    let mut runtime = RuntimeConfig::default();
    if repack {
        runtime.repack = RepackPolicy::OnBlock {
            budget: Scenario::REPACK_BUDGET,
        };
    }
    SimParams {
        shards: 4,
        batch: 1,
        runtime,
    }
}

/// On a starved fabric (m far below the bound) repacking must strictly
/// beat FirstFit in aggregate: fewer hard blocks, more admissions, with
/// real committed moves and the conservation laws intact on both sides.
#[test]
fn repack_dominates_firstfit_on_starved_fabric() {
    let (mut blocked_off, mut blocked_on) = (0u64, 0u64);
    let (mut admitted_off, mut admitted_on) = (0u64, 0u64);
    let mut moves = 0u64;
    for seed in 0..8 {
        let trace = mixed_trace(seed);
        let off = simulate(
            starved_net(),
            &trace,
            &[],
            &starved_params(false),
            Scheduler::Serial,
        );
        let on = simulate(
            starved_net(),
            &trace,
            &[],
            &starved_params(true),
            Scheduler::Serial,
        );
        assert!(
            invariant_violations(&off, false).is_empty(),
            "seed {seed}: FirstFit run broke an invariant"
        );
        assert!(
            invariant_violations(&on, false).is_empty(),
            "seed {seed}: repack run broke an invariant"
        );
        blocked_off += off.report.summary.blocked;
        blocked_on += on.report.summary.blocked;
        admitted_off += off.report.summary.admitted;
        admitted_on += on.report.summary.admitted;
        moves += on.report.summary.repack_moves_committed;
        assert_eq!(
            on.report.summary.repack_moves_attempted,
            on.report.summary.repack_moves_committed + on.report.summary.repack_moves_aborted,
            "seed {seed}: every attempted move either commits or aborts"
        );
    }
    assert!(blocked_off > 0, "the starved fabric never blocked FirstFit");
    assert!(
        blocked_on < blocked_off,
        "repacking did not reduce hard blocks: {blocked_on} vs {blocked_off}"
    );
    assert!(
        admitted_on > admitted_off,
        "repacking did not raise admissions: {admitted_on} vs {admitted_off}"
    );
    assert!(moves > 0, "dominance without committed moves is impossible");
}

/// A starved repack run still blocks; asserting nonblocking anyway must
/// yield a delta-debugged [`FailingSeed`] whose shrunk trace replays the
/// block and whose reproduction command carries `--repack`.
#[test]
fn repack_failing_seed_shrinks_and_carries_the_flag() {
    let setup = Scenario::new(BackendKind::ThreeStage)
        .geometry(4, 4, 1)
        .schedule(60, 4)
        .middles(3)
        .repack(true);
    // Stricter than the policy, which never expects a repacking run to
    // be nonblocking: repacking reduces blocks, it cannot erase them.
    let failure = setup
        .failing_seed_expecting(0, true)
        .unwrap()
        .expect("a starved network must block even with repacking");
    assert!(
        failure
            .violations
            .iter()
            .any(|v| matches!(v, Violation::HardBlock { .. })),
        "expected a hard block, got {:?}",
        failure.violations
    );
    assert!(
        failure.trace.len() <= 12,
        "shrunk repack trace has {} events:\n{failure}",
        failure.trace.len()
    );
    let repro = failure.repro();
    assert!(repro.contains("--repack"), "{repro}");
    assert!(repro.contains("--m 3"), "{repro}");
}
