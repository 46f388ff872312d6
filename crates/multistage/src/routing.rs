//! Routing decisions shared by the serial and concurrent three-stage
//! backends.
//!
//! [`ThreeStageNetwork`](crate::ThreeStageNetwork) and
//! [`ConcurrentThreeStage`](crate::ConcurrentThreeStage) must make
//! *identical* wavelength and availability decisions — the concurrent
//! conformance sweep asserts per-index equality of their outcomes under
//! a serial schedule — so the decision logic lives here once, as pure
//! functions of a [`RoutingCtx`] (geometry, construction, models,
//! converter reach, fault set) plus the busy masks the caller reads
//! from its own occupancy representation.

use crate::{Construction, ThreeStageParams};
use wdm_core::{Endpoint, Fault, FaultSet, MulticastConnection, MulticastModel};

/// The immutable routing context: everything a wavelength decision
/// depends on apart from the link occupancy words themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutingCtx<'a> {
    pub params: ThreeStageParams,
    pub construction: Construction,
    pub output_model: MulticastModel,
    pub conversion_range: Option<u32>,
    pub faults: &'a FaultSet,
}

impl RoutingCtx<'_> {
    /// `true` iff a converter may move wavelength `a` to wavelength `b`.
    pub(crate) fn convertible(&self, a: u32, b: u32) -> bool {
        self.conversion_range.is_none_or(|d| a.abs_diff(b) <= d)
    }

    /// The wavelength a branch from input module `module` to a middle
    /// switch would occupy against the busy mask `mask`, or `None` if no
    /// free wavelength is reachable from the source wavelength.
    pub(crate) fn branch_wavelength_masked(
        &self,
        module: u32,
        mask: u64,
        src_wl: u32,
    ) -> Option<u32> {
        match self.construction {
            Construction::MswDominant => (mask & (1 << src_wl) == 0).then_some(src_wl),
            // The stage-1 MAW module converts src_wl → wi within reach —
            // unless its converter bank is dark, in which case the signal
            // passes through on its own wavelength only.
            Construction::MawDominant if self.faults.input_converters_down(module) => {
                (mask & (1 << src_wl) == 0).then_some(src_wl)
            }
            Construction::MawDominant => {
                (0..self.params.k).find(|&w| mask & (1 << w) == 0 && self.convertible(src_wl, w))
            }
        }
    }

    /// The wavelength a leg from middle `j` to output module `om` would
    /// occupy for a branch arriving at `j` on `wi` against the busy mask
    /// `mask`, or `None` if the link cannot carry it — considering the
    /// middle converter's reach (`wi → wl`) and the output module's
    /// converters (`wl → dest λ`).
    pub(crate) fn leg_wavelength_masked(
        &self,
        j: u32,
        om: u32,
        mask: u64,
        wi: u32,
        dests: &[Endpoint],
    ) -> Option<u32> {
        // Each fault lookup is a tree search; a healthy fabric skips all.
        let faulty = !self.faults.is_empty();
        if faulty && self.faults.middle_link_down(j, om) {
            return None;
        }
        let out_conv_down = faulty && self.faults.output_converters_down(om);
        let reaches_dests = |wl: u32| match self.output_model {
            // An MSW output module cannot convert — but then the dests
            // equal wl by construction of `candidates` below.
            MulticastModel::Msw => true,
            // One conversion to the (uniform) destination wavelength —
            // identity only if the output converter bank is dark.
            MulticastModel::Msdw if out_conv_down => wl == dests[0].wavelength.0,
            MulticastModel::Msdw => self.convertible(wl, dests[0].wavelength.0),
            // One conversion per destination endpoint.
            MulticastModel::Maw if out_conv_down => dests.iter().all(|d| d.wavelength.0 == wl),
            MulticastModel::Maw => dests.iter().all(|d| self.convertible(wl, d.wavelength.0)),
        };
        // A dark middle converter bank pins the leg to the arrival λ.
        let mid_conv_ok = |wl: u32| {
            if faulty && self.faults.middle_converters_down(j) {
                wl == wi
            } else {
                self.convertible(wi, wl)
            }
        };
        let mut candidates = match (self.construction, self.output_model) {
            // MSW middles emit the arriving wavelength only.
            (Construction::MswDominant, _) => wi..wi + 1,
            // MAW middles convert, but an MSW output module pins the
            // arrival to the destination wavelength.
            (Construction::MawDominant, MulticastModel::Msw) => {
                let d = dests[0].wavelength.0;
                d..d + 1
            }
            (Construction::MawDominant, _) => 0..self.params.k,
        };
        candidates.find(|&wl| mask & (1 << wl) == 0 && mid_conv_ok(wl) && reaches_dests(wl))
    }

    /// `true` iff the realized route `rc` (sourced at `src`) traverses
    /// the faulted component — the traffic a runtime must heal when the
    /// component dies.
    pub(crate) fn route_uses(
        &self,
        src: &Endpoint,
        rc: &crate::RoutedConnection,
        fault: &Fault,
    ) -> bool {
        let (in_module, _) = self.params.input_module_of(src.port.0);
        match *fault {
            Fault::MiddleSwitch(j) => rc.branches.iter().any(|b| b.middle == j),
            Fault::InputLink { module, middle } => {
                in_module == module && rc.branches.iter().any(|b| b.middle == middle)
            }
            Fault::MiddleLink { middle, module } => rc
                .branches
                .iter()
                .any(|b| b.middle == middle && b.legs.iter().any(|l| l.out_module == module)),
            // Stage-1 converters matter only in the MAW-dominant
            // construction, and only for branches that actually shifted
            // the source wavelength.
            Fault::InputConverters(a) => {
                self.construction == Construction::MawDominant
                    && in_module == a
                    && rc
                        .branches
                        .iter()
                        .any(|b| b.input_wavelength != src.wavelength.0)
            }
            Fault::MiddleConverters(j) => rc.branches.iter().any(|b| {
                b.middle == j && b.legs.iter().any(|l| l.wavelength != b.input_wavelength)
            }),
            Fault::OutputConverters(om) => rc.branches.iter().any(|b| {
                b.legs.iter().any(|l| {
                    l.out_module == om && l.dests.iter().any(|d| d.wavelength.0 != l.wavelength)
                })
            }),
            Fault::Port(p) => {
                src.port.0 == p
                    || rc
                        .branches
                        .iter()
                        .any(|b| b.legs.iter().any(|l| l.dests.iter().any(|d| d.port.0 == p)))
            }
        }
    }

    /// A fault that makes `conn` categorically unroutable (as opposed to
    /// merely blocked): a dead endpoint port, or a module structurally
    /// cut off from the middle stage.
    pub(crate) fn component_down(&self, conn: &MulticastConnection) -> Option<Fault> {
        if self.faults.is_empty() {
            return None;
        }
        let src = conn.source();
        if self.faults.port_down(src.port.0) {
            return Some(Fault::Port(src.port.0));
        }
        for d in conn.destinations() {
            if self.faults.port_down(d.port.0) {
                return Some(Fault::Port(d.port.0));
            }
        }
        // Source module cut off: every middle is dead or unreachable.
        let (in_module, _) = self.params.input_module_of(src.port.0);
        let cut = |j: u32| self.faults.middle_down(j) || self.faults.input_link_down(in_module, j);
        if (0..self.params.m).all(cut) {
            let j = (0..self.params.m)
                .find(|&j| self.faults.middle_down(j))
                .unwrap_or(0);
            return Some(if self.faults.middle_down(j) {
                Fault::MiddleSwitch(j)
            } else {
                Fault::InputLink {
                    module: in_module,
                    middle: j,
                }
            });
        }
        // A requested output module cut off from every middle.
        for d in conn.destinations() {
            let (om, _) = self.params.output_module_of(d.port.0);
            let cut = |j: u32| self.faults.middle_down(j) || self.faults.middle_link_down(j, om);
            if (0..self.params.m).all(cut) {
                let j = (0..self.params.m)
                    .find(|&j| self.faults.middle_down(j))
                    .unwrap_or(0);
                return Some(if self.faults.middle_down(j) {
                    Fault::MiddleSwitch(j)
                } else {
                    Fault::MiddleLink {
                        middle: j,
                        module: om,
                    }
                });
            }
        }
        None
    }
}

/// Find at most `x` switches from `available` whose service sets jointly
/// cover `modules`, and assign each module to one chosen switch.
///
/// Greedy max-coverage first; on failure an exact depth-first search
/// (with a simple remaining-coverage prune) — greedy set cover can miss
/// feasible covers, and the nonblocking theorems promise existence, not
/// greedy-findability.
pub(crate) fn find_cover(
    modules: &[u32],
    available: &[u32],
    serv: &[Vec<u32>],
    x: usize,
) -> Option<Vec<(u32, Vec<u32>)>> {
    if modules.is_empty() {
        return Some(Vec::new());
    }
    // Greedy pass.
    let mut uncovered: std::collections::BTreeSet<u32> = modules.iter().copied().collect();
    let mut picks: Vec<usize> = Vec::new();
    while !uncovered.is_empty() && picks.len() < x {
        // First maximal gain wins, so the caller's ordering of
        // `available` (the selection strategy) breaks ties.
        let mut best: Option<(usize, usize)> = None;
        for (i, served) in serv.iter().enumerate().take(available.len()) {
            if picks.contains(&i) {
                continue;
            }
            let gain = served.iter().filter(|m| uncovered.contains(m)).count();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let best = best?.0;
        let gain: Vec<u32> = serv[best]
            .iter()
            .copied()
            .filter(|m| uncovered.contains(m))
            .collect();
        if gain.is_empty() {
            break;
        }
        for m in &gain {
            uncovered.remove(m);
        }
        picks.push(best);
    }
    if uncovered.is_empty() {
        return Some(assign(modules, available, serv, &picks));
    }

    // Exact DFS.
    let mut order: Vec<usize> = (0..available.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(serv[i].len()));
    let all: std::collections::BTreeSet<u32> = modules.iter().copied().collect();
    let mut chosen: Vec<usize> = Vec::new();
    fn dfs(
        order: &[usize],
        serv: &[Vec<u32>],
        uncovered: &std::collections::BTreeSet<u32>,
        start: usize,
        x: usize,
        chosen: &mut Vec<usize>,
    ) -> bool {
        if uncovered.is_empty() {
            return true;
        }
        if chosen.len() == x || start == order.len() {
            return false;
        }
        // Prune: even taking the largest remaining service sets cannot
        // finish in the budget.
        let budget = x - chosen.len();
        let optimistic: usize = order[start..]
            .iter()
            .take(budget)
            .map(|&i| serv[i].len())
            .sum();
        if optimistic < uncovered.len() {
            return false;
        }
        for idx in start..order.len() {
            let i = order[idx];
            let gain: Vec<u32> = serv[i]
                .iter()
                .copied()
                .filter(|m| uncovered.contains(m))
                .collect();
            if gain.is_empty() {
                continue;
            }
            let mut next = uncovered.clone();
            for m in &gain {
                next.remove(m);
            }
            chosen.push(i);
            if dfs(order, serv, &next, idx + 1, x, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
    if dfs(&order, serv, &all, 0, x, &mut chosen) {
        Some(assign(modules, available, serv, &chosen))
    } else {
        None
    }
}

/// Distribute each module to the first chosen switch that can serve it.
fn assign(
    modules: &[u32],
    available: &[u32],
    serv: &[Vec<u32>],
    picks: &[usize],
) -> Vec<(u32, Vec<u32>)> {
    let mut out: Vec<(u32, Vec<u32>)> = picks.iter().map(|&i| (available[i], Vec::new())).collect();
    for &m in modules {
        let slot = picks
            .iter()
            .position(|&i| serv[i].contains(&m))
            .expect("cover serves every module");
        out[slot].1.push(m);
    }
    out.retain(|(_, legs)| !legs.is_empty());
    out
}
