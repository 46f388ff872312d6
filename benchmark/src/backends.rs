//! Building the backends, all through `wdm_sim::Scenario::build()` — the
//! repo's one validated entry point — so every workload and microbench
//! drives what `wdmcast` itself would build.

use std::sync::Arc;
use wdm_graph::{GraphTopology, Splitting};
use wdm_runtime::Backend;
use wdm_sim::harness::BackendKind;
use wdm_sim::Scenario;
use wdm_workload::adversarial::Geometry;

use crate::spec::{G1, GRAPH_GEO, GRAPH_MC_EVERY, GRAPH_NODES};
use crate::trace::{TraceSink, TracedBackend};

/// In a traced run, put the span recorder around `backend`.
fn traced(backend: Box<dyn Backend>, sink: Option<&Arc<TraceSink>>) -> Box<dyn Backend> {
    match sink {
        Some(sink) => Box::new(TracedBackend::new(backend, Arc::clone(sink))),
        None => backend,
    }
}

fn scenario(kind: BackendKind, geo: Geometry) -> Scenario {
    Scenario::new(kind).geometry(geo.n, geo.r, geo.k)
}

/// Three-stage network (locked, MSW-dominant, MSW) with `m` left to the
/// scenario, which provisions exactly the Theorem-1 bound; `m` is the
/// value the benchmark records for this geometry.
pub fn three_stage(geo: Geometry, m: u32, sink: Option<&Arc<TraceSink>>) -> Box<dyn Backend> {
    let s = scenario(BackendKind::ThreeStage, geo);
    assert_eq!(
        s.bound().map(|(bound, _)| bound),
        Ok(m),
        "recorded m is the bound"
    );
    traced(s.build().expect("valid scenario"), sink)
}

fn graph_scenario() -> Scenario {
    Scenario::new(BackendKind::ThreeStage)
        .topology(GraphTopology::Ring { nodes: GRAPH_NODES })
        .geometry(GRAPH_GEO.n, GRAPH_GEO.r, GRAPH_GEO.k)
        .mc_every(GRAPH_MC_EVERY)
        .splitting(Splitting::Hierarchy)
}

/// The graph workload's network: ring(16), splitters every 2nd node,
/// hierarchy splitting, 4 ports per node, k = 4.
pub fn graph(sink: Option<&Arc<TraceSink>>) -> Box<dyn Backend> {
    traced(graph_scenario().build().expect("valid scenario"), sink)
}

/// The five backends of the `backend.<b>.*` microbenches, each at the
/// G1-equivalent geometry its architecture allows: the switch fabrics
/// at G1 itself; the AWG Clos needs `k ≥ r`, so it keeps N = 128 and
/// k = 4 as `n=32 r=4`; the graph at the graph workload's own shape.
pub fn micro_set() -> Vec<(&'static str, Geometry, Scenario)> {
    let awg_geo = Geometry { n: 32, r: 4, k: 4 };
    vec![
        ("crossbar", G1, scenario(BackendKind::Crossbar, G1)),
        ("three_stage", G1, scenario(BackendKind::ThreeStage, G1)),
        (
            "three_stage_cas",
            G1,
            scenario(BackendKind::ThreeStage, G1).concurrent(true),
        ),
        ("awg_clos", awg_geo, scenario(BackendKind::AwgClos, awg_geo)),
        ("graph", GRAPH_GEO, graph_scenario()),
    ]
}
