//! Batch-vs-singles conformance: the batched submission fast path must
//! be an *amortization*, not a semantic change. For every seed we run
//! the same adversarial trace (and fault script) through the
//! deterministic executor twice — once event-at-a-time, once with an
//! 8-event submission window draining whole shard queues through
//! `ShardCore::handle_batch` — and demand bit-identical per-index
//! outcomes and terminal counters. Swept across both backends and both
//! fault regimes, ≥256 seeds per combination.

use wdm_runtime::{Backend, RuntimeConfig};
use wdm_sim::executor::{simulate, Scheduler, SimParams, SimRun};
use wdm_sim::{BackendKind, Scenario};

const SEEDS: u64 = 256;
const STEPS: usize = 24;
const WINDOW: usize = 8;

fn params(batch: usize) -> SimParams {
    SimParams {
        shards: 1,
        batch,
        runtime: RuntimeConfig::default(),
    }
}

/// Compare a singles run and a batched run of the same input; panics
/// with a replayable message on the first divergence.
fn assert_conformant<B: Backend>(label: &str, seed: u64, singles: SimRun<B>, batched: SimRun<B>) {
    for (i, (s, b)) in singles.outcomes.iter().zip(&batched.outcomes).enumerate() {
        assert_eq!(
            s, b,
            "{label} seed {seed}: outcome diverged at trace index {i}"
        );
    }
    let (s, b) = (&singles.report.summary, &batched.report.summary);
    assert_eq!(s.offered, b.offered, "{label} seed {seed}: offered");
    assert_eq!(s.admitted, b.admitted, "{label} seed {seed}: admitted");
    assert_eq!(s.departed, b.departed, "{label} seed {seed}: departed");
    assert_eq!(s.blocked, b.blocked, "{label} seed {seed}: blocked");
    assert_eq!(s.expired, b.expired, "{label} seed {seed}: expired");
    assert_eq!(s.retried, b.retried, "{label} seed {seed}: retried");
    assert!(
        batched.report.is_clean(),
        "{label} seed {seed}: batched run not clean: {:?}",
        batched.report.errors
    );
}

/// `kind` at its bound, one shard (the batch window is the only
/// variable).
fn at_bound(kind: BackendKind, n: u32, r: u32, k: u32) -> Scenario {
    Scenario::new(kind).geometry(n, r, k).schedule(STEPS, 1)
}

fn sweep(setup: &Scenario, label: &str) {
    for seed in 0..SEEDS {
        let trace = setup.trace(seed).unwrap();
        let faults = setup.faults(seed, &trace).unwrap();
        let singles = simulate(
            setup.build().unwrap(),
            &trace,
            &faults,
            &params(1),
            Scheduler::Serial,
        );
        let batched = simulate(
            setup.build().unwrap(),
            &trace,
            &faults,
            &params(WINDOW),
            Scheduler::Serial,
        );
        assert_conformant(label, seed, singles, batched);
    }
}

#[test]
fn crossbar_fault_free_batches_conform() {
    let setup = at_bound(BackendKind::Crossbar, 4, 4, 2);
    sweep(&setup, "crossbar/fault-free");
}

#[test]
fn crossbar_faulted_batches_conform() {
    let setup = at_bound(BackendKind::Crossbar, 4, 4, 2).faulted(true);
    sweep(&setup, "crossbar/faulted");
}

#[test]
fn three_stage_fault_free_batches_conform() {
    let setup = at_bound(BackendKind::ThreeStage, 4, 4, 2);
    sweep(&setup, "three-stage/fault-free");
}

#[test]
fn three_stage_faulted_batches_conform() {
    // A faulted run may legitimately reject requests through the dead
    // middle switch; conformance still demands the two modes agree on
    // every index.
    let setup = at_bound(BackendKind::ThreeStage, 4, 4, 2).faulted(true);
    sweep(&setup, "three-stage/faulted");
}

#[test]
fn awg_clos_fault_free_batches_conform() {
    // k = r so every module pair is wavelength-reachable.
    let setup = at_bound(BackendKind::AwgClos, 2, 4, 4);
    sweep(&setup, "awg-clos/fault-free");
}

#[test]
fn awg_clos_faulted_batches_conform() {
    // Killing a grating at the exact bound may legitimately block.
    let setup = at_bound(BackendKind::AwgClos, 2, 4, 4).faulted(true);
    sweep(&setup, "awg-clos/faulted");
}

/// A starved geometry (m below the bound, spread selection) makes hard
/// Blocked outcomes reachable — the batch path must report the same
/// blocks at the same indices, not mask or duplicate them.
#[test]
fn underprovisioned_three_stage_batches_conform() {
    let at_bound = at_bound(BackendKind::ThreeStage, 4, 4, 2);
    let setup = at_bound.middles(at_bound.middle_count().unwrap() - 1);
    sweep(&setup, "three-stage/underprovisioned");
}

/// The graph backend through the same amortization contract, both
/// fault regimes, via the Scenario entry point.
#[test]
fn graph_batches_conform() {
    let base = at_bound(BackendKind::DEFAULT_GRAPH, 1, 8, 2);
    sweep(&base, "graph/fault-free");
    sweep(&base.faulted(true), "graph/faulted");
}
