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

use crate::{Construction, Leg, ThreeStageParams};
use wdm_core::bitset::{self, BitRows};
use wdm_core::{Endpoint, Fault, FaultSet, MulticastConnection, MulticastModel};

/// One requested output module: its run `first..end` of the destination
/// list, and the wavelengths a leg into it may arrive on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    pub module: u32,
    pub first: u32,
    pub end: u32,
    pub targets: u64,
}

impl Run {
    /// The leg serving this run on `wavelength`.
    pub(crate) fn leg(&self, wavelength: u32) -> Leg {
        Leg {
            out_module: self.module,
            wavelength,
            first: self.first,
            end: self.end,
        }
    }
}

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
    /// Every wavelength of a link, as a mask.
    pub(crate) fn all_wavelengths(&self) -> u64 {
        u64::MAX >> (64 - self.params.k)
    }

    /// The wavelengths a converter can move wavelength `w` to: all of
    /// them at full range, the window `w ± d` at reach `d`.
    fn reach(&self, w: u32) -> u64 {
        match self.conversion_range {
            None => self.all_wavelengths(),
            Some(d) => {
                let hi = w.saturating_add(d).min(self.params.k - 1);
                (u64::MAX >> (63 - hi)) & (u64::MAX << w.saturating_sub(d))
            }
        }
    }

    /// The wavelengths a branch from `module` may occupy for a source on
    /// `src_wl` (the lowest free one is taken): the source's own through
    /// an MSW module or a dark bank, else those within reach.
    pub(crate) fn branch_targets(&self, module: u32, src_wl: u32) -> u64 {
        match self.construction {
            Construction::MawDominant
                if self.faults.is_empty() || !self.faults.input_converters_down(module) =>
            {
                self.reach(src_wl)
            }
            _ => 1 << src_wl,
        }
    }

    /// The wavelength a branch would occupy against the busy mask `mask`
    /// of its input link, or `None` if no target wavelength is free.
    pub(crate) fn branch_wavelength(&self, module: u32, mask: u64, src_wl: u32) -> Option<u32> {
        lowest(self.branch_targets(module, src_wl) & !mask)
    }

    /// The wavelengths middle `j` can emit a leg on for a branch arriving
    /// on `wi`: `wi` itself through an MSW middle or a dark bank, else
    /// those within reach.
    pub(crate) fn middle_reach(&self, j: u32, wi: u32) -> u64 {
        match self.construction {
            Construction::MawDominant
                if self.faults.is_empty() || !self.faults.middle_converters_down(j) =>
            {
                self.reach(wi)
            }
            _ => 1 << wi,
        }
    }

    /// The wavelengths a leg into output module `om` may arrive on so it
    /// can deliver `dests`, whatever the middle: a leg takes the lowest
    /// free one of `leg_targets ∩ middle_reach`.
    pub(crate) fn leg_targets(&self, om: u32, dests: &[Endpoint]) -> u64 {
        let all = self.all_wavelengths();
        let d0 = dests[0].wavelength.0;
        let out_conv_down = !self.faults.is_empty() && self.faults.output_converters_down(om);
        // MAW middles convert, but an MSW output module pins the arrival
        // to the destination wavelength.
        let arrivals = match (self.construction, self.output_model) {
            (Construction::MawDominant, MulticastModel::Msw) => 1 << d0,
            _ => all,
        };
        arrivals
            & match self.output_model {
                MulticastModel::Msw => all,
                // One conversion to the (uniform) destination wavelength —
                // identity only if the output converter bank is dark.
                MulticastModel::Msdw if out_conv_down => 1 << d0,
                MulticastModel::Msdw => self.reach(d0),
                // One conversion per destination endpoint.
                MulticastModel::Maw if out_conv_down => {
                    u64::from(dests.iter().all(|d| d.wavelength.0 == d0)) << d0
                }
                MulticastModel::Maw => dests
                    .iter()
                    .fold(all, |acc, d| acc & self.reach(d.wavelength.0)),
            }
    }

    /// Refill `runs` with the runs of the port-sorted `dests`, one per
    /// output module, ascending. Branch-free: each destination rewrites
    /// its module's run end, and a module change opens the next run.
    pub(crate) fn runs_into(&self, dests: &[Endpoint], runs: &mut Vec<Run>) {
        runs.clear();
        runs.resize(dests.len(), Run::default());
        let (mut count, mut prev) = (0, u32::MAX);
        for (i, d) in (0u32..).zip(dests) {
            let (om, _) = self.params.output_module_of(d.port.0);
            count += usize::from(om != prev);
            prev = om;
            let run = &mut runs[count - 1];
            (run.module, run.end) = (om, i + 1);
        }
        runs.truncate(count);
        let mut first = 0;
        for run in runs.iter_mut() {
            run.first = std::mem::replace(&mut first, run.end);
            run.targets =
                self.leg_targets(run.module, &dests[run.first as usize..run.end as usize]);
        }
    }

    /// The wavelength a leg `j→om` would occupy against the link's busy
    /// `mask`, for a branch arriving on `wi` and leg targets `targets`;
    /// `None` if the link is severed or none is free.
    pub(crate) fn leg_wavelength(
        &self,
        j: u32,
        om: u32,
        mask: u64,
        wi: u32,
        targets: u64,
    ) -> Option<u32> {
        if !self.faults.is_empty() && self.faults.middle_link_down(j, om) {
            return None;
        }
        lowest(targets & self.middle_reach(j, wi) & !mask)
    }

    /// `true` iff the realized route `rc` (sourced at `src`, delivering
    /// the destination list `dests`) traverses the faulted component —
    /// the traffic a runtime must heal when the component dies.
    pub(crate) fn route_uses(
        &self,
        src: &Endpoint,
        rc: &crate::RoutedConnection,
        dests: &[Endpoint],
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
                    l.out_module == om
                        && l.dests(dests)
                            .iter()
                            .any(|d| d.wavelength.0 != l.wavelength)
                })
            }),
            Fault::Port(p) => src.port.0 == p || dests.iter().any(|d| d.port.0 == p),
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
        let mut ports = std::iter::once(src).chain(conn.destinations().iter().copied());
        if let Some(ep) = ports.find(|ep| self.faults.port_down(ep.port.0)) {
            return Some(Fault::Port(ep.port.0));
        }
        // A module cut off from every middle: blame the first dead middle,
        // else its link to middle 0.
        let m = self.params.m;
        let dead = (0..m).find(|&j| self.faults.middle_down(j));
        let cut_off = |link: &dyn Fn(u32) -> Fault| {
            let cut = |j: u32| self.faults.middle_down(j) || self.faults.contains(&link(j));
            (0..m)
                .all(cut)
                .then(|| dead.map_or(link(0), Fault::MiddleSwitch))
        };
        let (in_module, _) = self.params.input_module_of(src.port.0);
        let input = |middle| Fault::InputLink {
            module: in_module,
            middle,
        };
        cut_off(&input).or_else(|| {
            conn.destinations().iter().find_map(|d| {
                let (module, _) = self.params.output_module_of(d.port.0);
                cut_off(&|middle| Fault::MiddleLink { middle, module })
            })
        })
    }
}

/// Book every wavelength of `rc` (sourced in input module `a`) into link
/// words laid out as both backends keep them — `[a·m + j]` input,
/// `[j·r + p]` middle — reporting any wavelength booked twice.
pub(crate) fn book_route(
    params: ThreeStageParams,
    a: u32,
    rc: &crate::RoutedConnection,
    (input, middle): (&mut [u64], &mut [u64]),
    problems: &mut Vec<String>,
) {
    let mut book = |words: &mut [u64], at: u32, wl: u32, link: String| {
        if words[at as usize] & (1 << wl) != 0 {
            problems.push(format!("double-booked {link} λ{}", wl + 1));
        }
        words[at as usize] |= 1 << wl;
    };
    for b in &rc.branches {
        let j = b.middle;
        book(
            input,
            a * params.m + j,
            b.input_wavelength,
            format!("input link {a}→{j}"),
        );
        for leg in &b.legs {
            let p = leg.out_module;
            book(
                middle,
                j * params.r + p,
                leg.wavelength,
                format!("middle link {j}→{p}"),
            );
        }
    }
}

/// The lowest set bit of `mask`.
pub(crate) fn lowest(mask: u64) -> Option<u32> {
    (mask != 0).then(|| mask.trailing_zeros())
}

/// Find at most `x` of the `candidates` whose service rows jointly cover
/// every requested module, and assign each module to one chosen
/// candidate. Row `i` of `serv` is candidate `i`'s service set over the
/// module indices `0..modules`; the caller orders candidates by its
/// selection strategy. Returns `(candidate, modules it serves)` in pick
/// order.
///
/// Greedy max-coverage first; on failure an exact depth-first search
/// (with a simple remaining-coverage prune) — greedy set cover can miss
/// feasible covers, and the nonblocking theorems promise existence, not
/// greedy-findability.
pub(crate) fn find_cover(
    serv: &BitRows,
    candidates: usize,
    modules: u32,
    x: usize,
) -> Option<Vec<(usize, Vec<u32>)>> {
    if modules == 0 {
        return Some(Vec::new());
    }
    let gain = |i: usize, uncovered: &[u64]| -> u32 {
        let row = serv.row(i as u32);
        row.iter()
            .zip(uncovered)
            .map(|(s, u)| (s & u).count_ones())
            .sum()
    };
    // Greedy pass.
    let mut uncovered = bitset::filled_words(modules);
    let mut picks: Vec<usize> = Vec::new();
    while bitset::count_ones(&uncovered) > 0 && picks.len() < x {
        // First maximal gain wins, so the caller's ordering of the
        // candidates (the selection strategy) breaks ties.
        let mut best: Option<(usize, u32)> = None;
        for i in (0..candidates).filter(|i| !picks.contains(i)) {
            let g = gain(i, &uncovered);
            if best.is_none_or(|(_, b)| g > b) {
                best = Some((i, g));
            }
        }
        let (best, g) = best?;
        if g == 0 {
            break;
        }
        remove(&mut uncovered, serv.row(best as u32));
        picks.push(best);
    }
    if bitset::count_ones(&uncovered) == 0 {
        return Some(assign(serv, modules, &picks));
    }

    // Exact DFS.
    let mut order: Vec<usize> = (0..candidates).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(serv.count_row(i as u32)));
    fn dfs(
        order: &[usize],
        serv: &BitRows,
        uncovered: &[u64],
        start: usize,
        x: usize,
        chosen: &mut Vec<usize>,
    ) -> bool {
        let left = bitset::count_ones(uncovered);
        if left == 0 {
            return true;
        }
        if chosen.len() == x || start == order.len() {
            return false;
        }
        // Prune: even taking the largest remaining service sets cannot
        // finish in the budget.
        let budget = x - chosen.len();
        let optimistic: u32 = order[start..]
            .iter()
            .take(budget)
            .map(|&i| serv.count_row(i as u32))
            .sum();
        if optimistic < left {
            return false;
        }
        for idx in start..order.len() {
            let i = order[idx];
            let mut next = uncovered.to_vec();
            remove(&mut next, serv.row(i as u32));
            if next == uncovered {
                continue;
            }
            chosen.push(i);
            if dfs(order, serv, &next, idx + 1, x, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
    let mut chosen: Vec<usize> = Vec::new();
    let all = bitset::filled_words(modules);
    dfs(&order, serv, &all, 0, x, &mut chosen).then(|| assign(serv, modules, &chosen))
}

/// Clear from `words` every bit of `row`.
fn remove(words: &mut [u64], row: &[u64]) {
    for (w, r) in words.iter_mut().zip(row) {
        *w &= !r;
    }
}

/// Distribute each module to the first chosen candidate that serves it.
fn assign(serv: &BitRows, modules: u32, picks: &[usize]) -> Vec<(usize, Vec<u32>)> {
    let mut out: Vec<(usize, Vec<u32>)> = picks.iter().map(|&i| (i, Vec::new())).collect();
    for g in 0..modules {
        let slot = picks
            .iter()
            .position(|&i| serv.get(i as u32, g))
            .expect("cover serves every module");
        out[slot].1.push(g);
    }
    out.retain(|(_, legs)| !legs.is_empty());
    out
}

/// The per-candidate wavelength checks and the set-based cover search
/// the row kernel replaced, kept verbatim as the differential sweeps'
/// reference.
#[cfg(test)]
pub(crate) mod reference {
    use super::RoutingCtx;
    use crate::Construction;
    use wdm_core::{Endpoint, MulticastModel};

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
                Construction::MawDominant => (0..self.params.k)
                    .find(|&w| mask & (1 << w) == 0 && self.convertible(src_wl, w)),
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
        let mut out: Vec<(u32, Vec<u32>)> =
            picks.iter().map(|&i| (available[i], Vec::new())).collect();
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
}
