//! Seed sweeps and failing-seed artifacts.
//!
//! A [`Scenario`] fixes everything about a simulated experiment except
//! the seed: geometry, backend, trace length, shard count, fault plan.
//! One seed then determines the whole run — the adversarial churn trace,
//! the fault script, and every scheduling decision — so
//! [`Scenario::check_seed`] is a pure function from `u64` to verdict.
//! When a seed fails, [`Scenario::failing_seed`] shrinks its trace with
//! delta debugging and packages seed + minimal trace + reproduction
//! command line into a [`FailingSeed`] artifact a human (or CI) can
//! replay with `wdmcast sim --seed N`. Every method here validates the
//! scenario first and returns its one-line error instead of running.

use crate::executor::{simulate, Scheduler, SimParams, SimRun};
use crate::oracle::{conformance_violations, invariant_violations, Violation};
use crate::scenario::{Resolved, Scenario};
use crate::schedule::ChoiceStream;
use crate::shrink::shrink_trace;
use std::fmt;
use wdm_core::Fault;
use wdm_graph::{GraphTopology, Splitting};
use wdm_multistage::Construction;
use wdm_runtime::{Backend, RepackPolicy, RuntimeConfig};
use wdm_workload::adversarial::{AdversarialGen, Geometry};
use wdm_workload::hotspot::HotspotGen;
use wdm_workload::{close_trace, FaultAction, TimedEvent, TimedFault};

/// Which construction the simulated engine drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The photonic crossbar session (strictly nonblocking by
    /// construction).
    Crossbar,
    /// A three-stage network with `m` middle switches.
    ThreeStage,
    /// An AWG-based wavelength-routed Clos with `m` passive gratings.
    AwgClos,
    /// A graph-topology network of switching nodes joined by WDM fibers.
    Graph {
        /// The node/link shape (`--topology` plus its dimension flags).
        topology: GraphTopology,
    },
}

impl BackendKind {
    /// The default graph shape `--backend graph` selects before any
    /// `--topology`/dimension flags refine it.
    pub const DEFAULT_GRAPH: BackendKind = BackendKind::Graph {
        topology: GraphTopology::Ring { nodes: 8 },
    };

    /// CLI-facing label (`--backend` value).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Crossbar => "crossbar",
            BackendKind::ThreeStage => "three-stage",
            BackendKind::AwgClos => "awg-clos",
            BackendKind::Graph { .. } => "graph",
        }
    }

    /// Every selectable backend, in CLI-help order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Crossbar,
        BackendKind::ThreeStage,
        BackendKind::AwgClos,
        BackendKind::DEFAULT_GRAPH,
    ];
}

/// Graph-backend knobs beyond the topology shape: splitter placement and
/// the splitting discipline. Ignored by the switch-box backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSpec {
    /// Sparse splitter placement: node `v` is multicast-capable iff
    /// `mc_every > 0` and `v % mc_every == 0` (1 = every node, 0 = none).
    pub mc_every: u32,
    /// Light-tree vs light-hierarchy admission.
    pub splitting: Splitting,
}

/// Which traffic generator drives the churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Middle-stage-hostile churn
    /// ([`wdm_workload::adversarial::AdversarialGen`]): busiest-module
    /// sources, maximum module spread.
    Adversarial,
    /// Hotspot churn ([`HotspotGen`]): uniform sources, destination
    /// picks skewed toward one module.
    Hotspot {
        /// The module (graph node) drawing the skewed destination mass.
        hot: u32,
        /// Percent of destination picks aimed at `hot` (0–100).
        skew_pct: u32,
    },
}

impl Scenario {
    /// Physical moves an on-block repack may spend per blocked connect
    /// when [`Scenario::repack`] is on (mirrored by the CLI's `--repack`
    /// flag). Repack outcomes depend on which routes exist when the
    /// block happens — i.e. on the interleaving — so repack runs are
    /// judged by the conservation-law oracle, never by per-index
    /// equality with a serial reference.
    pub const REPACK_BUDGET: u32 = 4;

    /// The seed's closed churn trace, from the generator
    /// [`Scenario::workload`] names.
    pub fn trace(&self, seed: u64) -> Result<Vec<TimedEvent>, String> {
        Ok(self.resolve()?.trace(seed))
    }

    /// The seed's fault script: one mid-trace component failure and its
    /// repair two-thirds in. Empty when the scenario is fault-free.
    pub fn faults(&self, seed: u64, trace: &[TimedEvent]) -> Result<Vec<TimedFault>, String> {
        Ok(self.resolve()?.faults(seed, trace))
    }

    /// Run one (trace, faults) input under the scheduler and return the
    /// violations the oracle finds. Fault-free non-repack runs are
    /// checked for full serial conformance (a concurrent three-stage
    /// against the locked first-fit network, the order the CAS probe
    /// commits in); faulted or repacking runs (whose victim sets /
    /// rearrangements are schedule-dependent) against the conservation
    /// invariants.
    pub fn violations_for(
        &self,
        trace: &[TimedEvent],
        faults: &[TimedFault],
        choices: &mut ChoiceStream,
    ) -> Result<Vec<Violation>, String> {
        Ok(self.resolve()?.violations_for(trace, faults, choices))
    }

    /// Check one seed end to end: derive trace + faults, run under the
    /// seeded scheduler, judge against the oracle.
    pub fn check_seed(&self, seed: u64) -> Result<SeedVerdict, String> {
        Ok(self.resolve()?.check_seed(seed))
    }

    /// Check a seed and, on failure, shrink its trace to a minimal
    /// reproducer (same violation class, fresh scheduler from the same
    /// seed on every candidate, fault script carried over unchanged).
    pub fn failing_seed(&self, seed: u64) -> Result<Option<FailingSeed>, String> {
        Ok(self.resolve()?.failing_seed(seed))
    }

    /// [`Scenario::failing_seed`] judged by the caller's
    /// `expect_nonblocking` instead of the policy's — for asserting
    /// more than the policy promises (a repacking run that must still
    /// never hard-block) and getting the counterexample shrunk.
    pub fn failing_seed_expecting(
        &self,
        seed: u64,
        expect_nonblocking: bool,
    ) -> Result<Option<FailingSeed>, String> {
        let mut resolved = self.resolve()?;
        resolved.expect_nonblocking = expect_nonblocking;
        Ok(resolved.failing_seed(seed))
    }

    /// Sweep a seed range, collecting distinct schedule fingerprints and
    /// every failure (shrunk).
    pub fn sweep(&self, seeds: std::ops::Range<u64>) -> Result<SweepReport, String> {
        let resolved = self.resolve()?;
        let mut fingerprints = std::collections::HashSet::new();
        let mut failures = Vec::new();
        let mut checked = 0usize;
        for seed in seeds {
            let verdict = resolved.check_seed(seed);
            checked += 1;
            fingerprints.insert(verdict.fingerprint);
            if !verdict.violations.is_empty() {
                failures.extend(resolved.failing_seed(seed));
            }
        }
        Ok(SweepReport {
            checked,
            distinct_schedules: fingerprints.len(),
            failures,
        })
    }

    /// The `wdmcast sim` invocation that replays `seed` under this
    /// scenario.
    pub fn repro_command(&self, seed: u64) -> Result<String, String> {
        let m = self.middle_count()?;
        let mut cmd = format!(
            "wdmcast sim --backend {} --n {} --r {} --k {} --steps {} --shards {} --seed {seed}",
            self.backend.label(),
            self.n,
            self.r,
            self.k,
            self.steps,
            self.shards,
        );
        if self.has_middle_stage() {
            cmd.push_str(&format!(" --m {m}"));
        }
        if self.construction == Construction::MawDominant {
            cmd.push_str(" --construction maw");
        }
        if let BackendKind::Graph { topology } = self.backend {
            let shape = match topology {
                GraphTopology::Ring { nodes } => format!("ring --nodes {nodes}"),
                GraphTopology::Grid { rows, cols } => format!("grid --rows {rows} --cols {cols}"),
                GraphTopology::Torus { rows, cols } => {
                    format!("torus --rows {rows} --cols {cols}")
                }
            };
            cmd.push_str(&format!(
                " --topology {shape} --mc-every {} --splitting {}",
                self.graph.mc_every,
                self.graph.splitting.label()
            ));
        }
        if let WorkloadSpec::Hotspot { hot, skew_pct } = self.workload {
            cmd.push_str(&format!(" --hotspot {skew_pct} --hot {hot}"));
        }
        if self.faulted {
            cmd.push_str(" --faulted");
        }
        if self.repack {
            cmd.push_str(" --repack");
        }
        if self.concurrent {
            cmd.push_str(" --concurrent");
        }
        Ok(cmd)
    }
}

impl Resolved {
    fn trace(&self, seed: u64) -> Vec<TimedEvent> {
        let Scenario { n, r, k, model, .. } = self.sc;
        let geo = Geometry { n, r, k };
        let mut trace = match self.sc.workload {
            WorkloadSpec::Adversarial => {
                AdversarialGen::new(geo, model, seed).churn_trace(self.sc.steps)
            }
            WorkloadSpec::Hotspot { hot, skew_pct } => {
                HotspotGen::new(geo, model, hot, skew_pct, seed).churn_trace(self.sc.steps)
            }
        };
        let horizon = trace.last().map_or(0.0, |e| e.time) + 1.0;
        close_trace(&mut trace, horizon);
        trace
    }

    fn faults(&self, seed: u64, trace: &[TimedEvent]) -> Vec<TimedFault> {
        if !self.sc.faulted || trace.is_empty() {
            return Vec::new();
        }
        let fault = match self.sc.backend {
            BackendKind::ThreeStage | BackendKind::AwgClos => {
                Fault::MiddleSwitch((seed % u64::from(self.m)) as u32)
            }
            BackendKind::Crossbar => Fault::Port((seed % u64::from(self.sc.n * self.sc.r)) as u32),
            BackendKind::Graph { topology } => {
                // Alternate between node kills and single-fiber cuts so
                // both eviction paths stay under sweep pressure.
                if seed.is_multiple_of(2) {
                    Fault::MiddleSwitch(((seed / 2) % u64::from(topology.nodes())) as u32)
                } else {
                    let links = topology.build();
                    let (u, v) = links.link(((seed / 2) % u64::from(links.num_links())) as u32);
                    Fault::MiddleLink {
                        middle: u,
                        module: v,
                    }
                }
            }
        };
        vec![
            TimedFault {
                time: trace[trace.len() / 3].time,
                action: FaultAction::Fail(fault),
            },
            TimedFault {
                time: trace[trace.len() * 2 / 3].time,
                action: FaultAction::Repair(fault),
            },
        ]
    }

    fn params(&self) -> SimParams {
        let mut runtime = RuntimeConfig::default();
        if self.sc.repack {
            runtime.repack = RepackPolicy::OnBlock {
                budget: Scenario::REPACK_BUDGET,
            };
        }
        SimParams {
            shards: self.sc.shards.max(1),
            batch: 1,
            runtime,
        }
    }

    fn violations_for(
        &self,
        trace: &[TimedEvent],
        faults: &[TimedFault],
        choices: &mut ChoiceStream,
    ) -> Vec<Violation> {
        let run = simulate(
            self.backend(self.sc.concurrent),
            trace,
            faults,
            &self.params(),
            Scheduler::Random(choices),
        );
        self.judge(trace, run)
    }

    fn judge(&self, trace: &[TimedEvent], run: SimRun<Box<dyn Backend>>) -> Vec<Violation> {
        if self.sc.faulted || self.sc.repack {
            return invariant_violations(&run, self.expect_nonblocking);
        }
        let serial_params = SimParams {
            shards: 1,
            ..SimParams::default()
        };
        let serial = simulate(
            self.backend(false),
            trace,
            &[],
            &serial_params,
            Scheduler::Serial,
        );
        conformance_violations(&run, &serial, self.expect_nonblocking)
    }

    fn check_seed(&self, seed: u64) -> SeedVerdict {
        let trace = self.trace(seed);
        let faults = self.faults(seed, &trace);
        let mut choices = ChoiceStream::new(seed);
        let violations = self.violations_for(&trace, &faults, &mut choices);
        SeedVerdict {
            seed,
            fingerprint: choices.fingerprint(),
            events: trace.len(),
            violations,
        }
    }

    fn failing_seed(&self, seed: u64) -> Option<FailingSeed> {
        let verdict = self.check_seed(seed);
        if verdict.violations.is_empty() {
            return None;
        }
        let classes: Vec<&'static str> = verdict.violations.iter().map(|v| v.class()).collect();
        let trace = self.trace(seed);
        let faults = self.faults(seed, &trace);
        let shrunk = shrink_trace(&trace, |candidate| {
            let mut choices = ChoiceStream::new(seed);
            self.violations_for(candidate, &faults, &mut choices)
                .iter()
                .any(|v| classes.contains(&v.class()))
        });
        let mut choices = ChoiceStream::new(seed);
        let violations = self.violations_for(&shrunk, &faults, &mut choices);
        Some(FailingSeed {
            seed,
            scenario: self.sc,
            violations,
            trace: shrunk,
        })
    }
}

/// Outcome of checking one seed.
#[derive(Debug)]
pub struct SeedVerdict {
    /// The seed checked.
    pub seed: u64,
    /// Fingerprint of the schedule the seed induced.
    pub fingerprint: u64,
    /// Closed-trace length the seed generated.
    pub events: usize,
    /// Violations found (empty = the seed passed).
    pub violations: Vec<Violation>,
}

/// A reproducible failure artifact: seed, minimized trace, and the
/// command line that replays it.
#[derive(Debug)]
pub struct FailingSeed {
    /// The offending seed.
    pub seed: u64,
    /// Scenario the failure occurred under.
    pub scenario: Scenario,
    /// Violations on the *shrunk* trace.
    pub violations: Vec<Violation>,
    /// Delta-debugged minimal trace still exhibiting the failure.
    pub trace: Vec<TimedEvent>,
}

impl FailingSeed {
    /// The `wdmcast sim` invocation that replays this failure.
    pub fn repro(&self) -> String {
        self.scenario
            .repro_command(self.seed)
            .expect("a scenario that ran to a failure is valid")
    }
}

impl fmt::Display for FailingSeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {} failed on {} ({} violation(s), trace shrunk to {} event(s))",
            self.seed,
            self.scenario.backend.label(),
            self.violations.len(),
            self.trace.len(),
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        writeln!(f, "  minimal trace:")?;
        for ev in &self.trace {
            writeln!(f, "    t={:.2} {:?}", ev.time, ev.event)?;
        }
        write!(f, "  reproduce: {}", self.repro())
    }
}

/// Aggregate of a seed sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Seeds checked.
    pub checked: usize,
    /// Distinct schedule fingerprints observed (proof the sweep explored
    /// genuinely different interleavings).
    pub distinct_schedules: usize,
    /// Every failing seed, shrunk.
    pub failures: Vec<FailingSeed>,
}
