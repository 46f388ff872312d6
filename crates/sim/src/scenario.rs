//! The [`Scenario`] builder: the one description of an experiment —
//! geometry, backend kind, construction, provisioning, fault plan,
//! workload, repack/concurrency — and the one place it is validated,
//! judged against a bound and turned into a live backend.
//!
//! The CLI (`sim`, `serve`, `serve --listen`), the benchmark, the
//! benches and the conformance tests all construct a [`Scenario`] with
//! [`Scenario::new`] and the builder setters, then call
//! [`Scenario::bound`], [`Scenario::build`] or the seed-sweep methods in
//! [`crate::harness`]. Which bound applies, when selection spreads, when
//! the nonblocking oracle must drop and which flag combinations are
//! contradictory is decided in the private resolver below and nowhere
//! else.

use crate::harness::{BackendKind, GraphSpec, WorkloadSpec};
use wdm_core::{MulticastModel, NetworkConfig};
use wdm_fabric::CrossbarSession;
use wdm_graph::{GraphNetwork, GraphTopology, Splitting};
use wdm_multistage::{
    awg, bounds, AwgClosNetwork, ConcurrentThreeStage, Construction, ConverterPlacement,
    SelectionStrategy, ThreeStageNetwork, ThreeStageParams,
};
use wdm_runtime::Backend;

/// Parse a `--backend` argument into a kind plus the implied concurrent
/// flag (the `three-stage-cas` / `cas` spellings are the CAS backend's
/// own label); unknown names list every valid choice.
pub fn parse_backend_arg(s: &str) -> Result<(BackendKind, bool), String> {
    Ok(match s {
        "crossbar" => (BackendKind::Crossbar, false),
        "three-stage" | "threestage" | "3stage" => (BackendKind::ThreeStage, false),
        "three-stage-cas" | "threestage-cas" | "cas" => (BackendKind::ThreeStage, true),
        "awg-clos" | "awgclos" | "awg" => (BackendKind::AwgClos, false),
        "graph" | "mesh" | "ring" => (BackendKind::DEFAULT_GRAPH, false),
        _ => {
            let menu: Vec<&str> = BackendKind::ALL.iter().map(|b| b.label()).collect();
            return Err(format!(
                "unknown backend {s:?}; valid backends: {}, three-stage-cas",
                menu.join(", ")
            ));
        }
    })
}

/// A declarative experiment description: geometry, backend kind, fault
/// plan, workload, repack/concurrency — everything the CLI, the sim
/// harness, the benches, and the tests need to agree on, validated
/// once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Which backend family (and, for graphs, which topology).
    pub backend: BackendKind,
    /// External ports per module / per graph node.
    pub n: u32,
    /// Modules per side. For [`BackendKind::Graph`] this is derived
    /// from the topology and any explicit value must match.
    pub r: u32,
    /// Wavelengths per fiber.
    pub k: u32,
    /// Middle-stage provisioning override; `None` means "exactly at the
    /// backend's nonblocking bound".
    pub m: Option<u32>,
    /// Multicast model requests are legal under.
    pub model: MulticastModel,
    /// MSW- or MAW-dominant first two stages (three-stage only): picks
    /// Theorem 1 or Theorem 2 as the bound.
    pub construction: Construction,
    /// Churn-trace length.
    pub steps: usize,
    /// Cooperatively scheduled shards.
    pub shards: usize,
    /// Inject a seed-derived fail/repair pair mid-trace.
    pub faulted: bool,
    /// Rearrange on hard block (three-stage only).
    pub repack: bool,
    /// Drive the CAS admission path (three-stage only).
    pub concurrent: bool,
    /// Which traffic generator produces the churn trace.
    pub workload: WorkloadSpec,
    /// Graph-backend knobs (ignored by switch-box backends).
    pub graph: GraphSpec,
}

/// A valid [`Scenario`] with what the policy derives from it: the
/// middle-stage size actually built, the middle-selection order, and
/// whether the oracle may demand zero hard blocks. Everything that runs
/// or builds goes through this one private type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved {
    pub(crate) sc: Scenario,
    pub(crate) m: u32,
    pub(crate) strategy: SelectionStrategy,
    pub(crate) expect_nonblocking: bool,
}

impl Scenario {
    /// A scenario with the repo-wide defaults: `n=2, r=4, k=2`,
    /// MSW-dominant, 40 steps, 4 shards, adversarial workload,
    /// fault-free, serial.
    pub fn new(backend: BackendKind) -> Scenario {
        let r = match backend {
            BackendKind::Graph { topology } => topology.nodes(),
            _ => 4,
        };
        Scenario {
            backend,
            n: 2,
            r,
            k: 2,
            m: None,
            model: MulticastModel::Msw,
            construction: Construction::MswDominant,
            steps: 40,
            shards: 4,
            faulted: false,
            repack: false,
            concurrent: false,
            workload: WorkloadSpec::Adversarial,
            graph: GraphSpec {
                mc_every: 1,
                splitting: Splitting::Hierarchy,
            },
        }
    }

    /// Set the geometry (`n` ports per module, `r` modules, `k`
    /// wavelengths). For graph backends `r` is checked against the
    /// topology when the scenario is resolved.
    pub fn geometry(mut self, n: u32, r: u32, k: u32) -> Scenario {
        self.n = n;
        self.r = r;
        self.k = k;
        self
    }

    /// Override the middle-stage provisioning.
    pub fn middles(mut self, m: u32) -> Scenario {
        self.m = Some(m);
        self
    }

    /// Set the multicast model.
    pub fn model(mut self, model: MulticastModel) -> Scenario {
        self.model = model;
        self
    }

    /// Set the three-stage construction (and with it the theorem the
    /// scenario is judged by).
    pub fn construction(mut self, construction: Construction) -> Scenario {
        self.construction = construction;
        self
    }

    /// Set trace length and shard count.
    pub fn schedule(mut self, steps: usize, shards: usize) -> Scenario {
        self.steps = steps;
        self.shards = shards.max(1);
        self
    }

    /// Enable the seed-derived fault script.
    pub fn faulted(mut self, yes: bool) -> Scenario {
        self.faulted = yes;
        self
    }

    /// Enable on-block repacking.
    pub fn repack(mut self, yes: bool) -> Scenario {
        self.repack = yes;
        self
    }

    /// Enable the CAS admission path.
    pub fn concurrent(mut self, yes: bool) -> Scenario {
        self.concurrent = yes;
        self
    }

    /// Select the traffic generator.
    pub fn workload(mut self, workload: WorkloadSpec) -> Scenario {
        self.workload = workload;
        self
    }

    /// Swap the graph topology (forces the backend to
    /// [`BackendKind::Graph`] and re-derives `r`).
    pub fn topology(mut self, topology: GraphTopology) -> Scenario {
        self.backend = BackendKind::Graph { topology };
        self.r = topology.nodes();
        self
    }

    /// Set the sparse splitter placement (graph backends).
    pub fn mc_every(mut self, every: u32) -> Scenario {
        self.graph.mc_every = every;
        self
    }

    /// Set the splitting discipline (graph backends).
    pub fn splitting(mut self, splitting: Splitting) -> Scenario {
        self.graph.splitting = splitting;
        self
    }

    pub(crate) fn has_middle_stage(&self) -> bool {
        matches!(self.backend, BackendKind::ThreeStage | BackendKind::AwgClos)
    }

    /// The geometry every constructor would otherwise panic on: zero
    /// sizes, an `n·r` port count past `u32`, and more than 64
    /// wavelengths on the fabrics whose wavelength masks are one `u64`.
    fn check_geometry(&self) -> Result<(), String> {
        let Scenario { n, r, k, .. } = *self;
        if n == 0 || r == 0 || k == 0 {
            return Err("--n, --r and -k must all be at least 1".into());
        }
        if n.checked_mul(r).is_none() {
            return Err(format!("n·r overflows: n={n}, r={r}"));
        }
        if self.has_middle_stage() && k > 64 {
            return Err(format!("-k is limited to 64 wavelengths (got {k})"));
        }
        Ok(())
    }

    /// The provisioning bound this scenario is judged against, with its
    /// name for reports: Theorem 1 for the MSW-dominant switch fabrics,
    /// Theorem 2 for the MAW-dominant ones, the AWG pool bound for the
    /// wavelength-routed Clos (an error when `k < r`), and none for
    /// graphs — arbitrary topologies have no nonblocking theorem.
    pub fn bound(&self) -> Result<(u32, &'static str), String> {
        self.check_geometry()?;
        let Scenario { n, r, k, .. } = *self;
        match (self.backend, self.construction) {
            (BackendKind::AwgClos, _) => awg::min_middles(n, r, k, self.fsr_orders())
                .map(|m| (m, "AWG pool bound"))
                .ok_or_else(|| {
                    format!(
                        "awg-clos needs k ≥ r (got k={k}, r={r}): with fewer usable channels \
                         than AWG ports some module pairs have no channel class at all"
                    )
                }),
            (BackendKind::Graph { .. }, _) => Ok((0, "no nonblocking bound")),
            (_, Construction::MswDominant) => {
                Ok((bounds::theorem1_min_m(n, r).m, "Theorem 1 bound"))
            }
            (_, Construction::MawDominant) => {
                Ok((bounds::theorem2_min_m(n, r, k).m, "Theorem 2 bound"))
            }
        }
    }

    /// The middle-stage size this scenario builds: the
    /// [`Scenario::middles`] override, else exactly the bound.
    pub fn middle_count(&self) -> Result<u32, String> {
        Ok(self.resolve()?.m)
    }

    /// Free spectral ranges an AWG grating must span so `k` channels
    /// reach all `r` of its ports.
    fn fsr_orders(&self) -> u32 {
        self.k.div_ceil(self.r).max(1)
    }

    /// Validate every knob combination and derive what the policy
    /// fixes. This is the one place the cross-cutting rules live:
    ///
    /// * `repack` and `concurrent` are three-stage capabilities and are
    ///   mutually exclusive;
    /// * an under-provisioned three-stage spreads its selection so
    ///   reachable hard blocks actually surface (unless concurrent mode
    ///   pins first-fit);
    /// * `expect_nonblocking` holds at/above the bound, needs a spare
    ///   margin (`m > bound`) under faults, and never applies to
    ///   graphs or repacking runs;
    /// * hotspot workloads must name a module that exists;
    /// * a graph scenario's `r` must agree with its topology, and it
    ///   has no middle stage to provision.
    pub(crate) fn resolve(&self) -> Result<Resolved, String> {
        let (bound, _) = self.bound()?;
        if self.repack && self.backend != BackendKind::ThreeStage {
            return Err(
                "--repack needs rearrangeable routes; only the three-stage backend moves branches"
                    .into(),
            );
        }
        if self.concurrent && self.backend != BackendKind::ThreeStage {
            return Err(
                "--concurrent drives the CAS admission path; only the three-stage backend has one"
                    .into(),
            );
        }
        if self.concurrent && self.repack {
            return Err(
                "--concurrent requires RepackPolicy::Off; repack moves keep the coarse striped path"
                    .into(),
            );
        }
        if let BackendKind::Graph { topology } = self.backend {
            if self.r != topology.nodes() {
                return Err(format!(
                    "graph geometry mismatch: --r {} but {} has {} nodes (omit --r or make them agree)",
                    self.r,
                    topology,
                    topology.nodes()
                ));
            }
            if self.m.is_some() {
                return Err("--m has no meaning for the graph backend (no middle stage)".into());
            }
        }
        if let WorkloadSpec::Hotspot { hot, skew_pct } = self.workload {
            if hot >= self.r {
                return Err(format!(
                    "--hot {hot} names a module outside 0..{} (r modules / graph nodes)",
                    self.r
                ));
            }
            if skew_pct > 100 {
                return Err(format!("--hotspot {skew_pct} is a percentage (0–100)"));
            }
        }
        if self.m == Some(0) {
            return Err("--m must be a positive integer".into());
        }
        let m = self.m.unwrap_or(bound);
        let strategy = if self.backend == BackendKind::ThreeStage && m < bound && !self.concurrent {
            // Under-provisioned: spread load across middles so reachable
            // hard blocks actually surface (and become artifacts).
            SelectionStrategy::Spread
        } else {
            SelectionStrategy::FirstFit
        };
        let expect_nonblocking = match self.backend {
            _ if self.repack => false,
            BackendKind::Crossbar => true,
            BackendKind::Graph { .. } => false,
            // A mid-trace kill shrinks the live middle stage by one
            // until its repair; only a spare margin keeps the guarantee.
            BackendKind::ThreeStage | BackendKind::AwgClos => !self.faulted || m > bound,
        };
        Ok(Resolved {
            sc: *self,
            m,
            strategy,
            expect_nonblocking,
        })
    }

    /// Validate and construct the live backend this scenario drives.
    pub fn build(&self) -> Result<Box<dyn Backend>, String> {
        Ok(self.resolve()?.backend(self.concurrent))
    }
}

impl Resolved {
    /// The single spot that maps a [`BackendKind`] (plus the concurrent
    /// flag and graph knobs) to a live implementation. `concurrent =
    /// false` on a concurrent scenario yields its serial-oracle twin:
    /// the locked first-fit network, the order the CAS probe commits in.
    pub(crate) fn backend(&self, concurrent: bool) -> Box<dyn Backend> {
        let sc = &self.sc;
        // Only the arms with a middle stage have an `m ≥ 1` to build from.
        let params = || ThreeStageParams::new(sc.n, self.m, sc.r, sc.k);
        match sc.backend {
            BackendKind::Crossbar => Box::new(CrossbarSession::new(
                NetworkConfig::new(sc.n * sc.r, sc.k),
                sc.model,
            )),
            BackendKind::ThreeStage if concurrent => Box::new(ConcurrentThreeStage::new(
                params(),
                sc.construction,
                sc.model,
            )),
            BackendKind::ThreeStage => {
                let mut net = ThreeStageNetwork::new(params(), sc.construction, sc.model);
                net.set_strategy(self.strategy);
                Box::new(net)
            }
            BackendKind::AwgClos => Box::new(AwgClosNetwork::new(
                params(),
                sc.fsr_orders(),
                ConverterPlacement::IngressEgress,
                sc.model,
            )),
            BackendKind::Graph { topology } => Box::new(GraphNetwork::new(
                topology.build().with_mc_every(sc.graph.mc_every),
                sc.n,
                sc.k,
                sc.graph.splitting,
                sc.model,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_arg_parsing_covers_the_registry() {
        for kind in BackendKind::ALL {
            let (parsed, concurrent) = parse_backend_arg(kind.label()).unwrap();
            assert_eq!(parsed.label(), kind.label());
            assert!(!concurrent);
        }
        let (kind, concurrent) = parse_backend_arg("three-stage-cas").unwrap();
        assert_eq!(kind, BackendKind::ThreeStage);
        assert!(concurrent);
        let err = parse_backend_arg("warp-drive").unwrap_err();
        for label in [
            "crossbar",
            "three-stage",
            "awg-clos",
            "graph",
            "three-stage-cas",
        ] {
            assert!(err.contains(label), "menu missing {label}: {err}");
        }
    }

    #[test]
    fn three_stage_policy_matches_the_old_cli_rules() {
        let at_bound = Scenario::new(BackendKind::ThreeStage).resolve().unwrap();
        assert!(at_bound.expect_nonblocking);
        assert_eq!(at_bound.strategy, SelectionStrategy::FirstFit);

        let starved = Scenario::new(BackendKind::ThreeStage)
            .middles(1)
            .resolve()
            .unwrap();
        assert_eq!(starved.strategy, SelectionStrategy::Spread);
        assert!(
            starved.expect_nonblocking,
            "below the bound the oracle still demands zero blocks — reachable blocks become artifacts"
        );

        let faulted = Scenario::new(BackendKind::ThreeStage)
            .faulted(true)
            .resolve()
            .unwrap();
        assert!(
            !faulted.expect_nonblocking,
            "at the exact bound a mid-trace kill may legitimately block"
        );
        let spare = Scenario::new(BackendKind::ThreeStage)
            .faulted(true)
            .middles(faulted.m + 1)
            .resolve()
            .unwrap();
        assert!(spare.expect_nonblocking);
    }

    #[test]
    fn maw_dominant_is_judged_at_the_theorem_2_bound() {
        let maw = Scenario::new(BackendKind::ThreeStage)
            .geometry(3, 4, 2)
            .construction(Construction::MawDominant);
        let t2 = bounds::theorem2_min_m(3, 4, 2).m;
        let t1 = bounds::theorem1_min_m(3, 4).m;
        assert!(t2 > t1, "the geometry separates the theorems");
        assert_eq!(maw.bound(), Ok((t2, "Theorem 2 bound")));
        assert_eq!(maw.middle_count(), Ok(t2));
        let below = maw.middles(t1).resolve().unwrap();
        assert_eq!(below.strategy, SelectionStrategy::Spread);
    }

    #[test]
    fn contradictory_knobs_and_illegal_geometry_are_rejected() {
        use BackendKind::{AwgClos, Crossbar, ThreeStage};
        const DEFAULT_GRAPH: BackendKind = BackendKind::DEFAULT_GRAPH;
        let hot = WorkloadSpec::Hotspot {
            hot: 99,
            skew_pct: 50,
        };
        for (bad, needle) in [
            (Scenario::new(Crossbar).repack(true), "--repack"),
            (
                Scenario::new(AwgClos).geometry(2, 4, 4).concurrent(true),
                "--concurrent",
            ),
            (
                Scenario::new(ThreeStage).repack(true).concurrent(true),
                "--concurrent",
            ),
            (Scenario::new(AwgClos).geometry(2, 4, 2), "k ≥ r"),
            (Scenario::new(DEFAULT_GRAPH).workload(hot), "--hot 99"),
            // What the constructors would panic on.
            (
                Scenario::new(ThreeStage).geometry(2, 4, 65),
                "64 wavelengths",
            ),
            (Scenario::new(AwgClos).geometry(2, 4, 65), "64 wavelengths"),
            (
                Scenario::new(ThreeStage).geometry(70_000, 70_000, 1),
                "overflows",
            ),
            (Scenario::new(ThreeStage).geometry(0, 4, 1), "at least 1"),
            (Scenario::new(ThreeStage).middles(0), "--m"),
        ] {
            let err = bad.build().err().unwrap_or_else(|| panic!("{bad:?} built"));
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
        // Only the u64-masked fabrics cap k at 64.
        assert!(Scenario::new(Crossbar).geometry(1, 4, 65).build().is_ok());
        assert!(Scenario::new(DEFAULT_GRAPH)
            .geometry(1, 8, 65)
            .build()
            .is_ok());
    }

    #[test]
    fn graph_scenarios_derive_geometry_from_the_topology() {
        let s = Scenario::new(BackendKind::Crossbar)
            .topology(GraphTopology::Torus { rows: 3, cols: 3 })
            .geometry(1, 9, 4)
            .mc_every(3)
            .splitting(Splitting::TreeOnly);
        assert_eq!(s.r, 9);
        assert!(
            !s.resolve().unwrap().expect_nonblocking,
            "graphs have no theorem"
        );
        let backend = s.build().unwrap();
        assert_eq!(backend.label(), "graph");
        assert_eq!(backend.ports_per_module(), 1);

        let mismatch = Scenario::new(BackendKind::DEFAULT_GRAPH).geometry(1, 5, 2);
        assert!(mismatch.resolve().is_err());
        let provisioned = Scenario::new(BackendKind::DEFAULT_GRAPH).middles(3);
        assert!(
            provisioned.resolve().is_err(),
            "a graph has no middle stage"
        );
    }

    #[test]
    fn build_constructs_every_backend_kind() {
        for kind in BackendKind::ALL {
            let s = match kind {
                BackendKind::AwgClos => Scenario::new(kind).geometry(2, 4, 4),
                _ => Scenario::new(kind),
            };
            assert_eq!(s.build().unwrap().label(), kind.label());
        }
        let cas = Scenario::new(BackendKind::ThreeStage).concurrent(true);
        assert_eq!(cas.build().unwrap().label(), "three-stage-cas");
    }
}
