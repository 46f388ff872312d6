//! What the benchmark is: geometries, fanout mixes, the four workloads,
//! and the metric registry read from `BENCHMARK.json` (embedded at build
//! time, so the names, units, directions and bounds live in one place).

use serde::Deserialize;
use wdm_workload::adversarial::Geometry;

use crate::slots::FanoutMix;

/// G1: three-stage `n=8 r=16 k=4` (N=128), `m=39` = Theorem-1 bound —
/// the repo's canonical largest leg, MSW-dominant construction, MSW.
pub const G1: Geometry = Geometry { n: 8, r: 16, k: 4 };
/// G2: `n=16 r=32 k=8` (N=512), `m=93` = Theorem-1 bound; middle masks
/// span two words and fanout reaches `r`.
pub const G2: Geometry = Geometry { n: 16, r: 32, k: 8 };
/// Middle switches at the Theorem-1 bound, asserted against
/// `bounds::theorem1_min_m` when the backend is built.
pub const G1_M: u32 = 39;
pub const G2_M: u32 = 93;

/// Reactor shards = engine shards = 2: fixed, not derived from the host.
pub const SHARDS: usize = 2;
/// TCP connections the single generator thread drives (≤ nproc).
pub const CONNECTIONS: usize = 2;

pub const MIX_UNICAST: FanoutMix = &[(1, 100)];
pub const MIX_G1_MULTICAST: FanoutMix = &[(1, 50), (2, 25), (8, 15), (16, 10)];
pub const MIX_G2_MULTICAST: FanoutMix = &[(1, 40), (2, 25), (8, 20), (32, 15)];

/// Open-loop offered rate, requests per second (≈ 37 % of what the G1
/// multicast mix sustains closed-loop on the 2-core sizing host).
pub const OPEN_LOOP_RATE: f64 = 100_000.0;
/// Requests in the warm-up that ends set-up (the graph workload warms
/// up with one full pass instead).
pub const WARMUP_REQUESTS: u64 = 200_000;
/// Engine workload: requests per `submit_batch_tracked` window, and
/// windows in flight.
pub const ENGINE_WINDOW: usize = 128;
pub const ENGINE_WINDOWS_IN_FLIGHT: usize = 4;

/// Graph workload: ring(16), splitters at every 2nd node, hierarchy
/// splitting, 4 ports per node, k=4; hotspot skew 60 % onto node 0,
/// fixed fanout 3.
pub const GRAPH_NODES: u32 = 16;
pub const GRAPH_GEO: Geometry = Geometry {
    n: 4,
    r: GRAPH_NODES,
    k: 4,
};
pub const GRAPH_MC_EVERY: u32 = 2;
pub const GRAPH_SKEW_PCT: u32 = 60;
pub const GRAPH_FANOUT: u32 = 3;
/// Live sessions the closed loop holds. Tuned once so the blocking
/// probability lands inside [`GRAPH_BLOCKING_BAND`] (≈ 0.042 at every
/// seed tried; holding 8 is already past the cliff at ≈ 0.24), then
/// frozen.
pub const GRAPH_TARGET_LIVE: usize = 7;
/// Connect attempts in the dry-run sequence one pass replays.
pub const GRAPH_SEQUENCE_CONNECTS: usize = 20_000;
pub const GRAPH_BLOCKING_BAND: (f64, f64) = (0.03, 0.15);

/// The four workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireUnicastClosed,
    WireMulticastOpen,
    EngineMulticastBatch,
    GraphHotspotSerial,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireUnicastClosed,
        Workload::WireMulticastOpen,
        Workload::EngineMulticastBatch,
        Workload::GraphHotspotSerial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireUnicastClosed => "wire_unicast_closed",
            Workload::WireMulticastOpen => "wire_multicast_open",
            Workload::EngineMulticastBatch => "engine_multicast_batch",
            Workload::GraphHotspotSerial => "graph_hotspot_serial",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_wire(self) -> bool {
        matches!(
            self,
            Workload::WireUnicastClosed | Workload::WireMulticastOpen
        )
    }

    /// Whether a per-layer metric exists on this workload. A layer the
    /// workload does not run has no number — it is *absent* from the
    /// report, not zero (the contract's last-line JSON, which must name
    /// every per-layer metric, zero-fills them; see `report`).
    pub fn measures(self, metric: &str) -> bool {
        let graph = self == Workload::GraphHotspotSerial;
        if metric.starts_with("net.") {
            self.is_wire()
        } else if metric.starts_with("runtime.engine.") || metric.starts_with("loadgen.") {
            !graph
        } else if metric.starts_with("graph.network.") || metric == "setup.tracegen_s" {
            graph
        } else if metric == "workload.slotgen_us" {
            !graph
        } else if metric == "setup.server_start_s" || metric == "setup.connect_s" {
            self.is_wire()
        } else {
            true
        }
    }
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

/// One `per_layer` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayerSpec {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
}

/// The keys of `BENCHMARK.json` this program reads (`command` and
/// `paths` are the driver's).
#[derive(Debug, Clone, Deserialize)]
pub struct BenchmarkSpec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<PerLayerSpec>,
}

impl BenchmarkSpec {
    /// The registry this binary was built against.
    pub fn embedded() -> BenchmarkSpec {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses as the contract's schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wdm_multistage::bounds;

    #[test]
    fn geometries_sit_exactly_at_the_theorem_1_bound() {
        assert_eq!(bounds::theorem1_min_m(G1.n, G1.r).m, G1_M);
        assert_eq!(bounds::theorem1_min_m(G2.n, G2.r).m, G2_M);
        assert_eq!((G1.ports(), G2.ports()), (128, 512));
    }

    #[test]
    fn benchmark_json_names_the_four_workloads_and_unique_metrics() {
        let spec = BenchmarkSpec::embedded();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let mut seen = HashSet::new();
        for n in spec
            .end_to_end
            .iter()
            .map(|m| &m.name)
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(seen.insert(n.clone()), "metric {n} named twice");
        }
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for mix in [MIX_UNICAST, MIX_G1_MULTICAST, MIX_G2_MULTICAST] {
            assert_eq!(mix.iter().map(|&(_, pct)| pct).sum::<u32>(), 100);
        }
    }
}
