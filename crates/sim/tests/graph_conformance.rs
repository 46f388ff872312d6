//! Graph-backend conformance sweeps — the CI gate ISSUE 10 promises:
//! 128 seeds against the serial oracle fault-free and 128 seeds against
//! the conservation laws with seed-derived node/link kills, plus a
//! sparse-splitting hotspot cell. Everything here is fully
//! deterministic (seed → trace → faults → schedule), so a cell passing
//! locally passes in CI forever.

use wdm_sim::{BackendKind, Scenario, WorkloadSpec};

const SEEDS: u64 = 128;

fn sweep(sc: Scenario, label: &str) {
    let report = sc
        .sweep(0..SEEDS)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(report.checked as u64, SEEDS, "{label}: short sweep");
    if let Some(first) = report.failures.first() {
        panic!(
            "{label}: {} of {} seeds diverged; first:\n{first}",
            report.failures.len(),
            report.checked
        );
    }
}

#[test]
fn ring_fault_free_matches_the_serial_oracle() {
    sweep(
        Scenario::new(BackendKind::DEFAULT_GRAPH).geometry(1, 8, 2),
        "graph ring(8)/fault-free",
    );
}

#[test]
fn ring_faulted_obeys_the_conservation_laws() {
    // Even seeds kill a node mid-trace, odd seeds sever a directed
    // link; both must evict cleanly and heal on repair.
    sweep(
        Scenario::new(BackendKind::DEFAULT_GRAPH)
            .geometry(1, 8, 2)
            .faulted(true),
        "graph ring(8)/faulted",
    );
}

#[test]
fn sparse_torus_hotspot_matches_the_serial_oracle() {
    // Splitters on every other node, 80% of destination draws pulled
    // onto node 4 — the regime where light-hierarchies actually matter.
    sweep(
        Scenario::new(BackendKind::Crossbar)
            .topology(wdm_graph::GraphTopology::Torus { rows: 3, cols: 3 })
            .geometry(1, 9, 2)
            .mc_every(2)
            .workload(WorkloadSpec::Hotspot {
                hot: 4,
                skew_pct: 80,
            }),
        "graph torus(3x3) mc-every=2 hotspot/fault-free",
    );
}

#[test]
fn sparse_ring_tree_only_faulted_obeys_the_conservation_laws() {
    // The weakest splitting regime under faults: no hierarchies to
    // rescue trees, so blocks are common — conservation must still hold.
    sweep(
        Scenario::new(BackendKind::DEFAULT_GRAPH)
            .geometry(2, 8, 2)
            .mc_every(2)
            .splitting(wdm_graph::Splitting::TreeOnly)
            .faulted(true),
        "graph ring(8) mc-every=2 tree/faulted",
    );
}
