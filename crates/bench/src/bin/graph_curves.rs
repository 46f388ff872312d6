//! Graph-topology blocking curves — hotspot skew × splitter density.
//!
//! The switch-box backends come with nonblocking theorems; arbitrary
//! topologies do not, so their story is an empirical blocking surface.
//! This experiment drives a seeded closed-loop hotspot workload
//! serially against [`GraphNetwork`]s across topology (ring, torus),
//! splitter placement (every node MC vs every other node), splitting
//! discipline, and hotspot skew, then writes the surface to
//! `experiments/graph_blocking.csv`.
//!
//! "Fixed load" is engineered, not assumed: every request fans out to
//! exactly [`FANOUT`] distinct nodes, and the loop holds the number of
//! live sessions at [`TARGET_LIVE`] (admit one, retire one), so the
//! only thing the skew axis changes is *where* destinations land. The
//! legality mirror tracks the graph's actually-admitted state, so a
//! blocked request leaves no phantom occupancy behind.
//!
//! The claim: on the sparse-splitter ring, hotspot skew **strictly**
//! raises blocking at fixed load — concentration starves the two
//! fibers converging on the hot node long before the rest of the ring
//! fills — while the torus absorbs it. Serial replay of seeded draws
//! makes the counts exactly reproducible, so the tests below pin them
//! with `==`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_analysis::{parallel_map, Report, TextTable};
use wdm_bench::experiments_dir;
use wdm_core::{Endpoint, MulticastAssignment, MulticastModel, NetworkConfig};
use wdm_graph::{GraphNetwork, GraphTopology, Splitting};
use wdm_workload::adversarial::Geometry;
use wdm_workload::HotspotGen;

/// More endpoint slots per node than incoming fiber λ-slots (a ring
/// node has 2 incoming fibers, so 2 slots per λ). The workload's
/// legality mirror gates on *endpoint* occupancy; with headroom there,
/// it keeps offering the hot node while its fibers are the thing that
/// blocks — otherwise the mirror politely routes around contention and
/// hides it.
const PORTS_PER_NODE: u32 = 4;
const WAVELENGTHS: u32 = 2;
/// Every request fans out to exactly this many distinct modules, so
/// offered load is identical across the skew axis (the gate's "fixed
/// load").
const FANOUT: u32 = 2;
/// Live sessions held by the closed loop — ~40% of the ring's link-λ
/// capacity, so uniform traffic mostly routes and blocking isolates
/// the hot node's fibers instead of global congestion.
const TARGET_LIVE: usize = 4;
const STEPS: usize = 600;
const SEEDS: u64 = 6;
const HOT_NODE: u32 = 0;
const SKEWS: [u32; 3] = [0, 60, 90];
const RING: GraphTopology = GraphTopology::Ring { nodes: 8 };
const TORUS: GraphTopology = GraphTopology::Torus { rows: 3, cols: 3 };

#[derive(Clone)]
struct Cell {
    topology: GraphTopology,
    mc_every: u32,
    splitting: Splitting,
    skew_pct: u32,
    attempts: u64,
    admitted: u64,
    blocked: u64,
    total_hops: u64,
}

impl Cell {
    fn p_block(&self) -> f64 {
        self.blocked as f64 / self.attempts.max(1) as f64
    }

    fn mean_hops(&self) -> f64 {
        self.total_hops as f64 / self.admitted.max(1) as f64
    }
}

/// Drive `SEEDS` closed-loop sessions on a fresh network per seed and
/// accumulate the outcome. Each step retires one uniform live session
/// once [`TARGET_LIVE`] is reached, then offers one skewed request; the
/// legality mirror only records what the graph actually admitted.
fn run_cell(topology: GraphTopology, mc_every: u32, splitting: Splitting, skew_pct: u32) -> Cell {
    let geo = Geometry {
        n: PORTS_PER_NODE,
        r: topology.nodes(),
        k: WAVELENGTHS,
    };
    let mut cell = Cell {
        topology,
        mc_every,
        splitting,
        skew_pct,
        attempts: 0,
        admitted: 0,
        blocked: 0,
        total_hops: 0,
    };
    for seed in 0..SEEDS {
        let mut gen =
            HotspotGen::new(geo, MulticastModel::Msw, HOT_NODE, skew_pct, seed).with_fanout(FANOUT);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a4b_5eed);
        let mut asg =
            MulticastAssignment::new(NetworkConfig::new(geo.ports(), geo.k), MulticastModel::Msw);
        let mut net = GraphNetwork::new(
            topology.build().with_mc_every(mc_every),
            PORTS_PER_NODE,
            WAVELENGTHS,
            splitting,
            MulticastModel::Msw,
        );
        let mut live: Vec<Endpoint> = Vec::new();
        for _ in 0..STEPS {
            if live.len() >= TARGET_LIVE {
                let src = live.swap_remove(rng.gen_range(0..live.len()));
                asg.remove(src).expect("mirror tracked this source");
                net.disconnect(src).expect("admitted source departs");
            }
            let Some(req) = gen.next_request(&asg) else {
                continue;
            };
            cell.attempts += 1;
            match net.connect(&req) {
                Ok(route) => {
                    cell.admitted += 1;
                    cell.total_hops += route.hops() as u64;
                    live.push(req.source());
                    asg.add(req).expect("mirror admits what the graph admitted");
                }
                Err(_) => cell.blocked += 1,
            }
        }
        let problems = net.check_consistency();
        assert!(
            problems.is_empty(),
            "consistency after replay: {problems:?}"
        );
    }
    cell
}

fn main() {
    let mut grid: Vec<(GraphTopology, u32, Splitting, u32)> = Vec::new();
    for &topology in &[RING, TORUS] {
        for &mc_every in &[1u32, 2] {
            for &skew in &SKEWS {
                grid.push((topology, mc_every, Splitting::Hierarchy, skew));
            }
        }
    }
    // The tree-only column on the sparse ring shows what hierarchies
    // buy back under the same skew.
    for &skew in &SKEWS {
        grid.push((RING, 2, Splitting::TreeOnly, skew));
    }

    let cells = parallel_map(grid, |(topology, mc_every, splitting, skew)| {
        run_cell(topology, mc_every, splitting, skew)
    });

    let mut t = TextTable::new([
        "topology",
        "mc-every",
        "splitting",
        "skew %",
        "attempts",
        "admitted",
        "blocked",
        "P(block)",
        "mean hops",
    ]);
    for c in &cells {
        t.row([
            c.topology.to_string(),
            c.mc_every.to_string(),
            c.splitting.label().to_string(),
            c.skew_pct.to_string(),
            c.attempts.to_string(),
            c.admitted.to_string(),
            c.blocked.to_string(),
            format!("{:.4}", c.p_block()),
            format!("{:.2}", c.mean_hops()),
        ]);
    }
    let mut report = Report::new();
    report.add(
        "graph_blocking",
        format!(
            "Blocking on graph topologies vs hotspot skew (n={PORTS_PER_NODE} ports/node, \
             k={WAVELENGTHS}, fanout {FANOUT}, {SEEDS}×{STEPS}-step hotspot churn onto \
             node {HOT_NODE})"
        ),
        t,
    );
    report.print();

    let paths = report.write_csv_dir(experiments_dir()).expect("write CSVs");
    eprintln!(
        "wrote {} CSV files to {}",
        paths.len(),
        experiments_dir().display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked_by_skew(topology: GraphTopology, mc_every: u32, splitting: Splitting) -> [u64; 3] {
        SKEWS.map(|skew| {
            let cell = run_cell(topology, mc_every, splitting, skew);
            assert_eq!(cell.attempts, SEEDS * STEPS as u64);
            assert_eq!(cell.admitted + cell.blocked, cell.attempts);
            cell.blocked
        })
    }

    #[test]
    fn sparse_ring_blocking_rises_strictly_with_skew() {
        let blocked = blocked_by_skew(RING, 2, Splitting::Hierarchy);
        assert_eq!(blocked, [237, 264, 341]);
        assert!(blocked[0] < blocked[1] && blocked[1] < blocked[2]);
    }

    #[test]
    fn torus_absorbs_the_hotspot() {
        for mc_every in [1, 2] {
            assert_eq!(
                blocked_by_skew(TORUS, mc_every, Splitting::Hierarchy),
                [0, 0, 0],
                "mc_every {mc_every}"
            );
        }
    }

    /// Unexplained (ROADMAP, graph item): tree-only routing blocks
    /// *less* than its hierarchy superset at 90 % skew (266 vs 341) and
    /// ties it at 60 %. Pinned so whoever explains it has a fixed target.
    #[test]
    fn sparse_ring_tree_only_row_is_pinned() {
        assert_eq!(
            blocked_by_skew(RING, 2, Splitting::TreeOnly),
            [282, 264, 266]
        );
    }
}
