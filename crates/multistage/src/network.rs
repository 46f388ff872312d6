//! The three-stage routing simulator.
//!
//! Routes multicast connections through the Fig. 8 network under the
//! paper's strategy: each connection fans out over **at most `x` middle
//! switches** (the `x` that optimizes the construction's nonblocking
//! bound, unless overridden). Requests either route — occupying one
//! wavelength on each traversed inter-stage link — or report
//! [`RouteError::Blocked`], which is exactly the event Theorems 1–2 say
//! cannot happen when `m` meets their bound.
//!
//! Wavelength discipline per construction:
//!
//! * **MSW-dominant** — input and middle modules cannot convert, so a
//!   connection occupies its *source* wavelength on every first- and
//!   second-stage link it uses; the output module converts (or not)
//!   according to the output-stage model.
//! * **MAW-dominant** — input and middle modules convert freely, so any
//!   free wavelength on a link will do; only an MSW *output* module pins
//!   the middle→output wavelength (it must arrive on the destination
//!   wavelength).

use crate::routing::{book_route, find_cover, lowest, RoutingCtx, Run};
use crate::{bounds, Construction, DestinationMultiset, ThreeStageParams};
use serde::{Deserialize, Serialize};
use wdm_core::bitset::{self, BitRows, EndpointMap};
use wdm_core::{
    AssignmentError, Endpoint, Fault, FaultSet, MulticastAssignment, MulticastConnection,
    MulticastModel, NetworkConfig, Reject,
};

/// Why a connection request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The request conflicts with the current assignment (busy endpoints,
    /// model violation, out-of-range).
    Assignment(AssignmentError),
    /// No set of at most `x` available middle switches covers the
    /// request's destination modules — the network is *blocked*.
    Blocked {
        /// Middle switches that were available to the source.
        available_middles: usize,
        /// The fan-out limit in force.
        x_limit: u32,
    },
    /// The request touches a failed component (dead port, or a module
    /// structurally cut off from the middle stage). Unlike
    /// [`RouteError::Blocked`] no amount of spare capacity helps; only a
    /// repair of the named component does.
    ComponentDown(Fault),
    /// Internal bookkeeping failed while undoing a partially committed
    /// route; the network may be left inconsistent. This is a defensive
    /// error for a condition that indicates a bug, surfaced instead of
    /// panicking so a long-running controller can report and recover.
    Inconsistent {
        /// What went wrong during the rollback.
        detail: String,
    },
}

impl core::fmt::Display for RouteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RouteError::Assignment(e) => write!(f, "assignment conflict: {e}"),
            RouteError::Blocked {
                available_middles,
                x_limit,
            } => write!(
                f,
                "blocked: no ≤{x_limit}-middle cover among {available_middles} available switches"
            ),
            RouteError::ComponentDown(fault) => write!(f, "component down: {fault}"),
            RouteError::Inconsistent { detail } => {
                write!(f, "rollback failed, state may be inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

impl From<AssignmentError> for RouteError {
    fn from(e: AssignmentError) -> Self {
        RouteError::Assignment(e)
    }
}

/// Canonical classification of a routing failure: assignment conflicts
/// classify as the assignment error would, capacity exhaustion is
/// `Blocked`, dead components are `ComponentDown`, and a failed rollback
/// is structural (`Fatal`).
impl From<RouteError> for Reject {
    fn from(e: RouteError) -> Self {
        match e {
            RouteError::Assignment(a) => Reject::from(a),
            RouteError::Blocked {
                available_middles,
                x_limit,
            } => Reject::Blocked {
                available_middles,
                x_limit,
            },
            RouteError::ComponentDown(fault) => Reject::ComponentDown(fault),
            RouteError::Inconsistent { detail } => Reject::Fatal(format!(
                "rollback failed, state may be inconsistent: {detail}"
            )),
        }
    }
}

/// One middle→output-module hop of a routed connection. It names the
/// destinations it delivers by position: the run `first..end` of the
/// connection's port-sorted destination list ([`Leg::dests`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Leg {
    /// Output module served through this leg.
    pub out_module: u32,
    /// Wavelength occupied on the middle→output link.
    pub wavelength: u32,
    /// Index of the leg's first destination in the destination list.
    pub first: u32,
    /// One past the index of the leg's last destination.
    pub end: u32,
}

impl Leg {
    /// This leg's destinations, out of the connection's destination
    /// list `dests` ([`MulticastConnection::destinations`]).
    pub fn dests<'a>(&self, dests: &'a [Endpoint]) -> &'a [Endpoint] {
        &dests[self.first as usize..self.end as usize]
    }
}

/// One input→middle branch of a routed connection, with its legs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Branch {
    /// Middle switch index.
    pub middle: u32,
    /// Wavelength occupied on the input→middle link.
    pub input_wavelength: u32,
    /// Output-module hops of this branch.
    pub legs: Vec<Leg>,
}

/// How the router orders candidate middle switches (the paper fixes the
/// *number* of middle switches per connection — at most `x` — but not
/// *which* ones; this is the free design choice the ablation bench
/// explores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Lowest index first — deterministic first-fit.
    FirstFit,
    /// Most-loaded candidates first — packs connections onto few middle
    /// switches, preserving empty ones for wide multicasts.
    Pack,
    /// Least-loaded candidates first — spreads load evenly.
    Spread,
}

/// The realized route of one multicast connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedConnection {
    /// Source input endpoint.
    pub source: Endpoint,
    /// Branches, one per middle switch used (≤ the fan-out limit).
    pub branches: Vec<Branch>,
}

impl RoutedConnection {
    /// Number of middle switches this connection uses.
    pub fn middle_count(&self) -> usize {
        self.branches.len()
    }
}

/// A three-stage WDM multicast network with live routing state.
#[derive(Debug, Clone)]
pub struct ThreeStageNetwork {
    params: ThreeStageParams,
    construction: Construction,
    output_model: MulticastModel,
    x_limit: u32,
    strategy: SelectionStrategy,
    /// Wavelength-conversion reach of every converter in the network:
    /// `None` = full-range (the paper's assumption), `Some(d)` = a
    /// converter can move a signal at most `d` wavelength slots — the
    /// *limited-range conversion* extension studied by later literature.
    conversion_range: Option<u32>,
    /// Busy-wavelength bitmask per input-module→middle link, row-major
    /// `[module·m + j]`.
    input_links: Vec<u64>,
    /// Busy-wavelength bitmask per middle→output-module link, row-major
    /// `[j·r + module]`. Its popcounts are the paper's `M_j`.
    middle_links: Vec<u64>,
    /// Kept in step with the link words and the fault set.
    avail: Availability,
    /// Endpoint-level bookkeeping and model enforcement.
    assignment: MulticastAssignment,
    pub(crate) routed: EndpointMap<RoutedConnection>,
    /// Failed components the router must skip.
    pub(crate) faults: FaultSet,
    /// `connect`'s reused scratch (see `fill_rows`).
    runs: Vec<Run>,
    probe: Vec<u64>,
    /// Storage of torn-down routes handed back through
    /// [`Self::recycle`], reused by later commits.
    spare_branches: Spares<Branch>,
    spare_legs: Spares<Leg>,
}

/// The packed availability rows of the middle stage: bit `j` of every
/// row stands for middle switch `j` (see DESIGN.md, *Availability rows*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Availability {
    /// Row `module·k + λ`: λ is free on the input link `module→j`.
    pub free_in: BitRows,
    /// Row `module`: the input link `module→j` has a free wavelength.
    pub not_full: BitRows,
    /// Row `module·k + λ`: λ is free on the up link `j→module` of a live `j`.
    free_out: BitRows,
    /// Middle `j` has not failed.
    pub live_middles: Vec<u64>,
    /// Row `module`: the input link `module→j` is not severed.
    pub links_up: BitRows,
    /// Row `module`: the middle link `j→module` is not severed.
    out_links_up: BitRows,
}

impl Availability {
    /// The rows as the link words (row-major, see `ThreeStageNetwork`)
    /// and the fault set define them.
    pub(crate) fn derive(
        p: ThreeStageParams,
        input: &[u64],
        middle: &[u64],
        faults: &FaultSet,
    ) -> Self {
        let (r, m, k) = (p.r, p.m, p.k);
        let mut live_middles = bitset::filled_words(m);
        let [mut links_up, mut out_links_up] = [(); 2].map(|_| BitRows::filled(r, m));
        for fault in faults.iter() {
            match *fault {
                Fault::MiddleSwitch(j) if j < m => bitset::clear_bit(&mut live_middles, j),
                Fault::InputLink { module, middle } if module < r && middle < m => {
                    links_up.clear(module, middle)
                }
                Fault::MiddleLink { middle, module } if module < r && middle < m => {
                    out_links_up.clear(module, middle)
                }
                _ => {}
            }
        }
        // Start all free and clear what is busy or down: cheap when idle.
        let [mut free_in, mut free_out] = [(); 2].map(|_| BitRows::filled(r * k, m));
        let mut not_full = BitRows::filled(r, m);
        let all = u64::MAX >> (64 - k);
        for a in 0..r {
            for j in 0..m {
                let out_up = bitset::test_bit(&live_middles, j) && out_links_up.get(a, j);
                let busy_in = input[(a * m + j) as usize];
                let busy_out = if out_up {
                    middle[(j * r + a) as usize]
                } else {
                    all
                };
                bitset::ones(&[busy_in]).for_each(|w| free_in.clear(a * k + w, j));
                bitset::ones(&[busy_out]).for_each(|w| free_out.clear(a * k + w, j));
                if busy_in == all {
                    not_full.clear(a, j);
                }
            }
        }
        Availability {
            free_in,
            not_full,
            free_out,
            live_middles,
            links_up,
            out_links_up,
        }
    }
}

/// Emptied vectors bucketed by capacity class: bucket `c` holds vectors
/// with room for at least `2^c` items, and a request for `len` items is
/// served from `len`'s class only, so a reused vector never grows. A
/// vector enters a bucket only by being handed back, so per class the
/// pooled plus live vectors never outnumber the peak live ones — and a
/// churn that stays under an earlier peak allocates nothing.
#[derive(Debug, Clone)]
struct Spares<T>(Vec<Vec<Vec<T>>>);

impl<T> Spares<T> {
    /// An empty vector with room for `len` items: a spare of `len`'s
    /// class, or a fresh one sized to the class.
    fn take(&mut self, len: usize) -> Vec<T> {
        let class = len.max(1).next_power_of_two().trailing_zeros() as usize;
        let spare = self.0.get_mut(class).and_then(Vec::pop);
        spare.unwrap_or_else(|| Vec::with_capacity(1 << class))
    }

    /// Empty `v` into the bucket of the largest class it can serve.
    fn give(&mut self, mut v: Vec<T>) {
        let Some(class) = v.capacity().checked_ilog2().map(|c| c as usize) else {
            return;
        };
        v.clear();
        if self.0.len() <= class {
            self.0.resize_with(class + 1, Vec::new);
        }
        self.0[class].push(v);
    }
}

/// Append to `out` the union of the rows `module·k + w` of `free` over
/// the wavelengths `w` in `wavelengths`.
fn union_rows(out: &mut Vec<u64>, free: &BitRows, module: u32, k: u32, wavelengths: u64) {
    if wavelengths.is_power_of_two() {
        return out.extend_from_slice(free.row(module * k + wavelengths.trailing_zeros()));
    }
    let start = out.len();
    out.resize(start + free.words_per_row(), 0);
    for w in bitset::ones(&[wavelengths]) {
        for (o, f) in out[start..].iter_mut().zip(free.row(module * k + w)) {
            *o |= f;
        }
    }
}

impl ThreeStageNetwork {
    /// Create an idle network. The fan-out limit `x` defaults to the
    /// optimizer of the construction's own nonblocking bound.
    pub fn new(
        params: ThreeStageParams,
        construction: Construction,
        output_model: MulticastModel,
    ) -> Self {
        assert!(params.k <= 64, "wavelength masks are u64-backed (k ≤ 64)");
        let x = match construction {
            Construction::MswDominant => bounds::theorem1_min_m(params.n, params.r).x,
            Construction::MawDominant => bounds::theorem2_min_m(params.n, params.r, params.k).x,
        };
        let input_links = vec![0; params.r as usize * params.m as usize];
        let middle_links = vec![0; params.m as usize * params.r as usize];
        let faults = FaultSet::new();
        ThreeStageNetwork {
            avail: Availability::derive(params, &input_links, &middle_links, &faults),
            params,
            construction,
            output_model,
            x_limit: x,
            strategy: SelectionStrategy::FirstFit,
            conversion_range: None,
            input_links,
            middle_links,
            assignment: MulticastAssignment::new(params.network(), output_model),
            routed: EndpointMap::new(params.network()),
            faults,
            runs: Vec::new(),
            probe: Vec::new(),
            spare_branches: Spares(Vec::new()),
            spare_legs: Spares(Vec::new()),
        }
    }

    /// The geometry.
    pub fn params(&self) -> ThreeStageParams {
        self.params
    }

    /// The construction method of the first two stages.
    pub fn construction(&self) -> Construction {
        self.construction
    }

    /// The output-stage model — the network's model as a whole.
    pub fn output_model(&self) -> MulticastModel {
        self.output_model
    }

    /// The equivalent flat `N×N` frame.
    pub fn network(&self) -> NetworkConfig {
        self.params.network()
    }

    /// The fan-out limit `x` in force.
    pub fn fanout_limit(&self) -> u32 {
        self.x_limit
    }

    /// Override the fan-out limit (for bound-exploration experiments).
    pub fn set_fanout_limit(&mut self, x: u32) {
        assert!(x >= 1, "fan-out limit must be at least 1");
        self.x_limit = x;
    }

    /// The middle-switch ordering strategy in force.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Change the middle-switch ordering strategy (see
    /// [`SelectionStrategy`]).
    pub fn set_strategy(&mut self, strategy: SelectionStrategy) {
        self.strategy = strategy;
    }

    /// Restrict every wavelength converter to a reach of `d` slots
    /// (`None` restores the paper's full-range assumption). Shrinking the
    /// reach re-introduces blocking in constructions that rely on
    /// conversion — see the `conversion_range` experiment.
    pub fn set_conversion_range(&mut self, d: Option<u32>) {
        self.conversion_range = d;
    }

    /// The converter reach in force.
    pub fn conversion_range(&self) -> Option<u32> {
        self.conversion_range
    }

    /// The routing-decision context shared with the concurrent backend
    /// (see [`crate::routing`]).
    pub(crate) fn ctx(&self) -> RoutingCtx<'_> {
        RoutingCtx {
            params: self.params,
            construction: self.construction,
            output_model: self.output_model,
            conversion_range: self.conversion_range,
            faults: &self.faults,
        }
    }

    /// Number of active connections.
    pub fn active_connections(&self) -> usize {
        self.routed.len()
    }

    /// The destination multiset `M_j` of middle switch `j`, read off its
    /// link words.
    pub fn multiset(&self, j: u32) -> DestinationMultiset {
        let counts = (0..self.params.r).map(|p| self.middle_word(j, p).count_ones());
        DestinationMultiset::from_counts(self.params.k, counts.collect())
    }

    /// The routed form of the connection sourced at `src`, if any.
    pub fn route_of(&self, src: Endpoint) -> Option<&RoutedConnection> {
        self.routed.get(&src)
    }

    /// The current endpoint-level assignment.
    pub fn assignment(&self) -> &MulticastAssignment {
        &self.assignment
    }

    /// The failed components currently on record.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Mark `fault` failed. Returns `true` if it was healthy before.
    ///
    /// This only updates the routing tables' view of the world: future
    /// routes avoid the component, but connections already traversing it
    /// are *not* torn down here — a runtime that owns the traffic decides
    /// what to heal (see [`Self::connections_through`]).
    pub fn inject_fault(&mut self, fault: Fault) -> bool {
        let fresh = self.faults.fail(fault);
        if fresh {
            self.rederive_availability();
        }
        fresh
    }

    /// Mark `fault` repaired. Returns `true` if it was failed before.
    pub fn repair_fault(&mut self, fault: Fault) -> bool {
        let was_failed = self.faults.repair(fault);
        if was_failed {
            self.rederive_availability();
        }
        was_failed
    }

    /// Recompute the availability rows after a fault change (rare, so a
    /// from-scratch pass beats per-kind bookkeeping).
    fn rederive_availability(&mut self) {
        let (input, middle) = (&self.input_links, &self.middle_links);
        self.avail = Availability::derive(self.params, input, middle, &self.faults);
    }

    /// Live connections whose realized route traverses `fault` — the
    /// traffic a runtime must heal when the component dies.
    pub fn connections_through(&self, fault: &Fault) -> Vec<Endpoint> {
        self.routed
            .iter()
            .filter(|(&src, rc)| {
                self.ctx()
                    .route_uses(&src, rc, self.destinations_of(src), fault)
            })
            .map(|(&src, _)| src)
            .collect()
    }

    /// The destination list the legs of `src`'s route index into.
    pub(crate) fn destinations_of(&self, src: Endpoint) -> &[Endpoint] {
        self.assignment
            .connection_at(src)
            .map_or(&[], MulticastConnection::destinations)
    }

    /// Packed mask of the middle switches reachable by a new connection
    /// from input module `module` on source wavelength `src_wl` (the
    /// paper's *available middle switches*, bit `j` per middle `j`).
    ///
    /// This is the routing probe's fast path: one AND across the
    /// incrementally maintained free-wavelength (or not-full), live-middle
    /// and live-link words — no per-middle scan.
    pub fn available_middles_mask(&self, module: u32, src_wl: u32) -> Vec<u64> {
        let base = match self.construction {
            Construction::MswDominant => self.avail.free_in.row(module * self.params.k + src_wl),
            Construction::MawDominant => self.avail.not_full.row(module),
        };
        let live = base.iter().zip(&self.avail.live_middles);
        let up = live.zip(self.avail.links_up.row(module));
        up.map(|((&free, &live), &link)| free & live & link)
            .collect()
    }

    /// Middle switches reachable by a new connection from input module
    /// `module` on source wavelength `src_wl`, as an ascending index
    /// list. Derived from [`Self::available_middles_mask`].
    pub fn available_middles(&self, module: u32, src_wl: u32) -> Vec<u32> {
        bitset::ones(&self.available_middles_mask(module, src_wl)).collect()
    }

    /// Try to route `conn`. On success the connection is committed and its
    /// realized route returned.
    ///
    /// The probe reads Theorem 1's two availability sets off packed rows
    /// (`fill_rows`); only when no single middle serves does the
    /// `x`-middle cover search run. Borrows the request: a rejected probe
    /// (the hot path under contention) copies nothing; the single clone
    /// happens at the commit point.
    pub fn connect(&mut self, conn: &MulticastConnection) -> Result<&RoutedConnection, RouteError> {
        self.assignment.check(conn)?;
        if let Some(fault) = self.ctx().component_down(conn) {
            return Err(RouteError::ComponentDown(fault));
        }
        let src = conn.source();
        let (in_module, _) = self.params.input_module_of(src.port.0);
        self.fill_rows(in_module, src.wavelength.0, conn.destinations());

        // `find_cover`'s greedy pass commits the first candidate of
        // maximal gain, and no gain exceeds the number of requested
        // modules: the first middle set in every row is FirstFit's pick.
        let first_fit = self.strategy == SelectionStrategy::FirstFit;
        let single = first_fit.then(|| self.first_fit()).flatten();
        let mut branches;
        if let Some(j) = single {
            let wi = self.branch_wavelength(in_module, j, src.wavelength.0);
            branches = self.spare_branches.take(1);
            let runs = 0..self.runs.len() as u32;
            branches.push(self.commit_branch(in_module, j, wi.expect("in the input row"), runs));
        } else {
            let (available, serv) = self.candidates(in_module, src.wavelength.0);
            let (runs, x) = (self.runs.len() as u32, self.x_limit as usize);
            let blocked = RouteError::Blocked {
                available_middles: available.len(),
                x_limit: self.x_limit,
            };
            let cover = find_cover(&serv, available.len(), runs, x).ok_or(blocked)?;
            branches = self.spare_branches.take(cover.len());
            for (i, runs) in cover {
                let (j, wi) = available[i];
                branches.push(self.commit_branch(in_module, j, wi, runs.into_iter()));
            }
        }
        self.assignment.add_checked(conn.clone());
        self.routed.insert(
            src,
            RoutedConnection {
                source: src,
                branches,
            },
        );
        Ok(&self.routed[&src])
    }

    /// Group `dests` into runs and fill the request's rows: first the
    /// middles a branch from `module` reaches (an up link, a wavelength
    /// it may occupy), then per run the middles that can carry its leg.
    fn fill_rows(&mut self, module: u32, src_wl: u32, dests: &[Endpoint]) {
        let mut runs = std::mem::take(&mut self.runs);
        let mut rows = std::mem::take(&mut self.probe);
        let (ctx, k) = (self.ctx(), self.params.k);
        ctx.runs_into(dests, &mut runs);
        rows.clear();
        let branch = ctx.branch_targets(module, src_wl);
        let avail = &self.avail;
        if branch == ctx.all_wavelengths() {
            rows.extend_from_slice(avail.not_full.row(module));
        } else {
            union_rows(&mut rows, &avail.free_in, module, k, branch);
        }
        for (word, up) in rows.iter_mut().zip(avail.links_up.row(module)) {
            *word &= up;
        }
        // MSW middles keep the source wavelength; MAW middles reach any,
        // but with limited reach or a dark bank are checked one by one.
        let reach = match self.construction {
            Construction::MswDominant => 1 << src_wl,
            Construction::MawDominant => ctx.all_wavelengths(),
        };
        for run in &runs {
            let targets = run.targets & reach;
            union_rows(&mut rows, &avail.free_out, run.module, k, targets);
        }
        if self.construction == Construction::MawDominant {
            let (base, legs) = rows.split_at_mut(avail.free_in.words_per_row());
            let per_middle = |j: u32| {
                self.conversion_range.is_some()
                    || (!self.faults.is_empty() && self.faults.middle_converters_down(j))
            };
            for j in bitset::ones(base).filter(|&j| per_middle(j)) {
                let wi = self
                    .branch_wavelength(module, j, src_wl)
                    .expect("in the input row");
                for (run, row) in runs.iter().zip(legs.chunks_mut(base.len())) {
                    if self
                        .leg_wavelength(j, run.module, wi, run.targets)
                        .is_none()
                    {
                        bitset::clear_bit(row, j);
                    }
                }
            }
        }
        self.runs = runs;
        self.probe = rows;
    }

    /// The FirstFit single-middle pick: the lowest middle set in the
    /// input row and in every leg row.
    fn first_fit(&self) -> Option<u32> {
        let w = self.avail.free_in.words_per_row();
        let (base, legs) = self.probe.split_at(w);
        if legs.is_empty() {
            return None;
        }
        (0..w).find_map(|i| {
            let word = legs.chunks(w).fold(base[i], |acc, row| acc & row[i]);
            (word != 0).then(|| i as u32 * 64 + word.trailing_zeros())
        })
    }

    /// The cover search's candidates — the live middles of the input row
    /// with their input wavelengths, in strategy order — and their
    /// service rows over the runs.
    fn candidates(&self, module: u32, src_wl: u32) -> (Vec<(u32, u32)>, BitRows) {
        let w = self.avail.free_in.words_per_row();
        let (base, legs) = self.probe.split_at(w);
        let live: Vec<u64> = base
            .iter()
            .zip(&self.avail.live_middles)
            .map(|(b, l)| b & l)
            .collect();
        let mut available: Vec<(u32, u32)> = bitset::ones(&live)
            .map(|j| {
                (
                    j,
                    self.branch_wavelength(module, j, src_wl)
                        .expect("in the input row"),
                )
            })
            .collect();
        let load = |&(j, _): &(u32, u32)| self.load(j);
        match self.strategy {
            SelectionStrategy::FirstFit => {}
            SelectionStrategy::Pack => available.sort_by_key(|c| std::cmp::Reverse(load(c))),
            SelectionStrategy::Spread => available.sort_by_key(load),
        }
        let mut serv = BitRows::new(available.len() as u32, self.runs.len() as u32);
        for (i, &(j, _)) in (0u32..).zip(&available) {
            for (g, row) in (0u32..).zip(legs.chunks(w)) {
                if bitset::test_bit(row, j) {
                    serv.set(i, g);
                }
            }
        }
        (available, serv)
    }

    /// Occupy `module→j` on `in_wl` and one leg per run of `runs`
    /// (indices into `self.runs`).
    fn commit_branch(
        &mut self,
        module: u32,
        j: u32,
        in_wl: u32,
        runs: impl ExactSizeIterator<Item = u32>,
    ) -> Branch {
        self.occupy_input_link(module, j, in_wl);
        // Every run's row holds `j`: each leg has an up link and a target.
        let reach = self.ctx().middle_reach(j, in_wl);
        let mut legs = self.spare_legs.take(runs.len());
        for g in runs {
            let run = self.runs[g as usize];
            let free = run.targets & reach & !self.middle_word(j, run.module);
            let wl = lowest(free).expect("cover legs are serviceable");
            self.occupy_middle_link(j, run.module, wl);
            legs.push(run.leg(wl));
        }
        Branch {
            middle: j,
            input_wavelength: in_wl,
            legs,
        }
    }

    /// Mark wavelength `wl` busy on the input link `module→j`, keeping
    /// the packed availability masks in sync.
    pub(crate) fn occupy_input_link(&mut self, module: u32, j: u32, wl: u32) {
        let busy = &mut self.input_links[(module * self.params.m + j) as usize];
        *busy |= 1 << wl;
        self.avail.free_in.clear(module * self.params.k + wl, j);
        if busy.count_ones() >= self.params.k {
            self.avail.not_full.clear(module, j);
        }
    }

    /// Free wavelength `wl` on the input link `module→j`, keeping the
    /// packed availability masks in sync.
    pub(crate) fn release_input_link(&mut self, module: u32, j: u32, wl: u32) {
        self.input_links[(module * self.params.m + j) as usize] &= !(1 << wl);
        self.avail.free_in.set(module * self.params.k + wl, j);
        self.avail.not_full.set(module, j);
    }

    /// Mark wavelength `wl` busy on the middle link `j→p`, keeping the
    /// output rows in sync.
    pub(crate) fn occupy_middle_link(&mut self, j: u32, p: u32, wl: u32) {
        let busy = &mut self.middle_links[(j * self.params.r + p) as usize];
        *busy |= 1 << wl;
        self.avail.free_out.clear(p * self.params.k + wl, j);
    }

    /// Free wavelength `wl` on the middle link `j→p`, keeping the output
    /// rows in sync (a faulted link or middle stays clear).
    pub(crate) fn release_middle_link(&mut self, j: u32, p: u32, wl: u32) {
        self.middle_links[(j * self.params.r + p) as usize] &= !(1 << wl);
        let avail = &mut self.avail;
        if bitset::test_bit(&avail.live_middles, j) && avail.out_links_up.get(p, j) {
            avail.free_out.set(p * self.params.k + wl, j);
        }
    }

    /// The busy mask of the input link `module→j`.
    pub(crate) fn input_word(&self, module: u32, j: u32) -> u64 {
        self.input_links[(module * self.params.m + j) as usize]
    }

    /// The busy mask of the middle link `j→p`.
    pub(crate) fn middle_word(&self, j: u32, p: u32) -> u64 {
        self.middle_links[(j * self.params.r + p) as usize]
    }

    /// The connections through middle `j` (`Σ_p` of `M_j`).
    pub(crate) fn load(&self, j: u32) -> u64 {
        let r = self.params.r as usize;
        let words = &self.middle_links[j as usize * r..(j as usize + 1) * r];
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Tear down the connection sourced at `src`, freeing every wavelength
    /// it occupied.
    pub fn disconnect(&mut self, src: Endpoint) -> Result<RoutedConnection, RouteError> {
        let routed = self.routed.remove(&src).ok_or(RouteError::Assignment(
            AssignmentError::NoSuchConnection(src),
        ))?;
        let (in_module, _) = self.params.input_module_of(src.port.0);
        for b in &routed.branches {
            self.release_input_link(in_module, b.middle, b.input_wavelength);
            for leg in &b.legs {
                self.release_middle_link(b.middle, leg.out_module, leg.wavelength);
            }
        }
        self.assignment
            .remove(src)
            .expect("routed connection is in the assignment");
        Ok(routed)
    }

    /// Hand back a route [`Self::disconnect`] returned, so later commits
    /// reuse its `Branch` and `Leg` storage instead of allocating. A
    /// caller that drops every torn-down route here keeps a steady churn
    /// free of route allocations.
    pub fn recycle(&mut self, route: RoutedConnection) {
        let mut branches = route.branches;
        for b in branches.drain(..) {
            self.spare_legs.give(b.legs);
        }
        self.spare_branches.give(branches);
    }

    /// The wavelength a branch from input module `module` to middle `j`
    /// would occupy, or `None` if no free wavelength is reachable from
    /// the source wavelength.
    pub(crate) fn branch_wavelength(&self, module: u32, j: u32, src_wl: u32) -> Option<u32> {
        self.ctx()
            .branch_wavelength(module, self.input_word(module, j), src_wl)
    }

    /// The wavelength a leg from middle `j` to output module `om` would
    /// occupy for a branch arriving at `j` on `wi` and a run with leg
    /// targets `targets`, or `None` if the link cannot carry it.
    pub(crate) fn leg_wavelength(&self, j: u32, om: u32, wi: u32, targets: u64) -> Option<u32> {
        self.ctx()
            .leg_wavelength(j, om, self.middle_word(j, om), wi, targets)
    }

    /// Per-middle-switch connection totals (for load-balance analysis of
    /// the selection strategies): `loads[j] = Σ_p multiplicity(p in M_j)`.
    pub fn middle_loads(&self) -> Vec<u64> {
        (0..self.params.m).map(|j| self.load(j)).collect()
    }

    /// Load-imbalance measure across the middle stage: `max − min` of
    /// [`middle_loads`](Self::middle_loads) (0 = perfectly even).
    pub fn middle_imbalance(&self) -> u64 {
        let loads = self.middle_loads();
        match (loads.iter().max(), loads.iter().min()) {
            (Some(&max), Some(&min)) => max - min,
            _ => 0,
        }
    }

    /// Recompute every link mask from the routed connections and compare
    /// with the live state. Returns violations (empty =
    /// consistent). Used by tests and debug assertions.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut in_links = vec![0u64; self.input_links.len()];
        let mut mid_links = vec![0u64; self.middle_links.len()];
        for (src, rc) in &self.routed {
            let (a, _) = self.params.input_module_of(src.port.0);
            let words = (&mut in_links[..], &mut mid_links[..]);
            book_route(self.params, a, rc, words, &mut problems);
        }
        if in_links != self.input_links {
            problems.push("input link masks out of sync".into());
        }
        if mid_links != self.middle_links {
            problems.push("middle link masks out of sync".into());
        }
        // The availability rows must agree with a from-scratch derivation
        // off the link words and the fault set.
        let fresh = Availability::derive(self.params, &in_links, &mid_links, &self.faults);
        if fresh != self.avail {
            problems.push("availability rows out of sync with the links and faults".into());
        }
        // The assignment's owner table must agree with its busy bits, and
        // with the routes on how many connections are live.
        let asg = &self.assignment;
        let disagree = |ep: &Endpoint| asg.output_busy(*ep) != asg.output_user(*ep).is_some();
        if let Some(ep) = self.network().endpoints().find(disagree) {
            problems.push(format!("output {ep}: busy bit and owner table disagree"));
        }
        if asg.len() != self.routed.len() {
            problems.push("assignment and routes disagree on the connection count".into());
        }
        problems
    }
}

#[cfg(test)]
#[path = "probe_sweep.rs"]
mod probe_sweep;

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(src: (u32, u32), dests: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dests.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    fn msw_net() -> ThreeStageNetwork {
        // n=2, r=2, k=2, N=4; Theorem 1 minimum m=4.
        let p = ThreeStageParams::new(2, 4, 2, 2);
        ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw)
    }

    #[test]
    fn routes_simple_multicast() {
        let mut net = msw_net();
        let rc = net
            .connect(&conn((0, 0), &[(1, 0), (2, 0), (3, 0)]))
            .unwrap()
            .clone();
        assert!(rc.middle_count() <= net.fanout_limit() as usize);
        let legs: usize = rc.branches.iter().map(|b| b.legs.len()).sum();
        assert_eq!(legs, 2); // output modules {0,1} → 2 legs... port1→module0, ports2,3→module1
        assert!(net.check_consistency().is_empty());
        assert_eq!(net.active_connections(), 1);
    }

    #[test]
    fn msw_dominant_keeps_source_wavelength() {
        let mut net = msw_net();
        let rc = net.connect(&conn((0, 1), &[(2, 1)])).unwrap().clone();
        for b in &rc.branches {
            assert_eq!(b.input_wavelength, 1);
            for leg in &b.legs {
                assert_eq!(leg.wavelength, 1);
            }
        }
    }

    #[test]
    fn disconnect_frees_everything() {
        let mut net = msw_net();
        net.connect(&conn((0, 0), &[(0, 0), (1, 0), (2, 0), (3, 0)]))
            .unwrap();
        net.disconnect(Endpoint::new(0, 0)).unwrap();
        assert_eq!(net.active_connections(), 0);
        assert!(net.check_consistency().is_empty());
        for j in 0..4 {
            assert_eq!(net.multiset(j).total_connections(), 0);
        }
        // The exact same connection routes again.
        assert!(net
            .connect(&conn((0, 0), &[(0, 0), (1, 0), (2, 0), (3, 0)]))
            .is_ok());
    }

    #[test]
    fn endpoint_conflicts_rejected_before_routing() {
        let mut net = msw_net();
        net.connect(&conn((0, 0), &[(1, 0)])).unwrap();
        let err = net.connect(&conn((1, 0), &[(1, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::DestinationBusy(_))
        ));
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::SourceBusy(_))
        ));
    }

    #[test]
    fn model_enforced_by_output_stage() {
        let mut net = msw_net(); // network model = MSW
        let err = net.connect(&conn((0, 0), &[(1, 1)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::ModelViolation(MulticastModel::Msw))
        ));
    }

    #[test]
    fn starved_middle_stage_blocks() {
        // m=1, k=1: a single middle switch; two same-wavelength
        // connections from the same input module exhaust the single link.
        let p = ThreeStageParams::new(2, 1, 2, 1);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        net.set_fanout_limit(1);
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        let err = net.connect(&conn((1, 0), &[(3, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Blocked {
                available_middles: 0,
                ..
            }
        ));
    }

    #[test]
    fn maw_dominant_converts_around_wavelength_clash() {
        // Same starved geometry but k=2 and MAW-dominant with MAW output:
        // the second connection converts to the free wavelength.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        let rc = net.connect(&conn((1, 0), &[(3, 0)])).unwrap().clone();
        // Forced onto the other wavelength of the shared links.
        assert_eq!(rc.branches[0].input_wavelength, 1);
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn msw_dominant_blocks_where_maw_dominant_survives() {
        // The Fig. 10 contrast in miniature (same requests, same
        // geometry): MSW-dominant cannot shift wavelengths and blocks.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut msw = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        msw.set_fanout_limit(1);
        msw.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        assert!(matches!(
            msw.connect(&conn((1, 0), &[(3, 0)])),
            Err(RouteError::Blocked { .. })
        ));
    }

    #[test]
    fn multiset_tracks_middle_load() {
        let mut net = msw_net();
        net.connect(&conn((0, 0), &[(0, 0), (2, 0)])).unwrap();
        let total: u64 = (0..4).map(|j| net.multiset(j).total_connections()).sum();
        assert_eq!(total, 2); // two legs across all middles
    }

    #[test]
    fn fanout_limit_respected() {
        let p = ThreeStageParams::new(4, 16, 4, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        net.set_fanout_limit(2);
        let rc = net
            .connect(&conn((0, 0), &[(0, 0), (4, 0), (8, 0), (12, 0)]))
            .unwrap()
            .clone();
        assert!(rc.middle_count() <= 2);
    }

    #[test]
    fn spread_balances_better_than_pack_on_unicasts() {
        // Many same-wavelength unicasts from different modules: Spread
        // should distribute them; Pack should pile them up.
        let p = ThreeStageParams::new(4, 10, 4, 1);
        let imbalance = |strategy| {
            let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
            net.set_strategy(strategy);
            for i in 0..8u32 {
                net.connect(&conn((i % 16, 0), &[((i + 3) % 16, 0)]))
                    .unwrap();
            }
            net.middle_imbalance()
        };
        let spread = imbalance(SelectionStrategy::Spread);
        let pack = imbalance(SelectionStrategy::Pack);
        assert!(spread <= pack, "spread {spread} > pack {pack}");
        assert!(spread <= 1, "spread should be near-even, got {spread}");
    }

    #[test]
    fn middle_loads_sum_to_total_legs() {
        let p = ThreeStageParams::new(2, 4, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        net.connect(&conn((0, 0), &[(0, 0), (2, 0)])).unwrap();
        net.connect(&conn((1, 1), &[(3, 1)])).unwrap();
        let total: u64 = net.middle_loads().iter().sum();
        assert_eq!(total, 3); // 2 legs + 1 leg
    }

    #[test]
    fn limited_range_conversion_blocks_maw_dominant() {
        // The Fig. 10 rescue needs a λ1→λ2 hop at the input module and a
        // λ2→λ1 hop at the middle. With 3 wavelengths and the clash on
        // λ1/λ2... use a reach of 0 (converters present but frozen):
        // MAW-dominant degenerates to MSW-dominant behavior and blocks.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.set_conversion_range(Some(0));
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        assert!(matches!(
            net.connect(&conn((1, 0), &[(3, 0)])),
            Err(RouteError::Blocked { .. })
        ));
        // Full range (the paper's model) rescues the same request.
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        assert!(net.connect(&conn((1, 0), &[(3, 0)])).is_ok());
    }

    #[test]
    fn range_one_reaches_adjacent_wavelengths_only() {
        // k=4, reach 1: a λ1 source can occupy λ2 on the first hop but
        // never λ4.
        let p = ThreeStageParams::new(2, 1, 2, 4);
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.set_conversion_range(Some(1));
        // Fill λ1..λ3 on the input link with adjacent-hop connections.
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap(); // λ1 source → λ1
        let rc = net.connect(&conn((1, 0), &[(3, 0)])).unwrap().clone();
        assert_eq!(rc.branches[0].input_wavelength, 1); // λ1 source → λ2
        let rc = net.connect(&conn((0, 1), &[(2, 1)])).unwrap().clone();
        assert_eq!(rc.branches[0].input_wavelength, 2); // λ2 source → λ3
                                                        // A fourth, λ2 source: only λ4 is free, two hops away — blocked.
        assert!(matches!(
            net.connect(&conn((1, 1), &[(3, 1)])),
            Err(RouteError::Blocked { .. })
        ));
    }

    #[test]
    fn msw_dominant_untouched_by_range() {
        // MSW-dominant with an MSW output stage uses no converters, so a
        // reach of 0 changes nothing.
        let p = ThreeStageParams::new(2, 4, 2, 2);
        for range in [None, Some(0)] {
            let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
            net.set_conversion_range(range);
            net.connect(&conn((0, 0), &[(0, 0), (1, 0), (2, 0), (3, 0)]))
                .unwrap();
            net.connect(&conn((0, 1), &[(2, 1), (3, 1)])).unwrap();
            assert_eq!(net.active_connections(), 2);
        }
    }

    #[test]
    fn output_stage_conversion_range_enforced() {
        // MSW-dominant + MSDW output: the output module converts src λ to
        // the destination wavelength; reach 0 freezes that too.
        let p = ThreeStageParams::new(2, 4, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msdw);
        net.set_conversion_range(Some(0));
        // λ1 → λ2 destinations now unreachable.
        assert!(matches!(
            net.connect(&conn((0, 0), &[(2, 1), (3, 1)])),
            Err(RouteError::Blocked { .. })
        ));
        // Same-wavelength destinations still route.
        assert!(net.connect(&conn((0, 0), &[(2, 0), (3, 0)])).is_ok());
    }

    #[test]
    fn dead_middle_skipped_by_routing() {
        let mut net = msw_net(); // m = 4
        for j in 0..3 {
            assert!(net.inject_fault(Fault::MiddleSwitch(j)));
        }
        assert_eq!(net.available_middles(0, 0), vec![3]);
        let rc = net.connect(&conn((0, 0), &[(2, 0)])).unwrap().clone();
        assert_eq!(rc.branches.len(), 1);
        assert_eq!(rc.branches[0].middle, 3, "only live middle");
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn severed_input_link_skipped() {
        let mut net = msw_net();
        net.inject_fault(Fault::InputLink {
            module: 0,
            middle: 0,
        });
        // Module 0 loses middle 0; module 1 keeps all four.
        assert_eq!(net.available_middles(0, 0), vec![1, 2, 3]);
        assert_eq!(net.available_middles(1, 0), vec![0, 1, 2, 3]);
        let rc = net.connect(&conn((0, 0), &[(2, 0)])).unwrap().clone();
        assert_ne!(rc.branches[0].middle, 0);
    }

    #[test]
    fn severed_middle_link_skipped() {
        let mut net = msw_net();
        // FirstFit would route 0→module1 via middle 0; severing 0→1
        // forces the leg onto another middle.
        net.inject_fault(Fault::MiddleLink {
            middle: 0,
            module: 1,
        });
        let rc = net.connect(&conn((0, 0), &[(2, 0)])).unwrap().clone();
        assert_ne!(rc.branches[0].middle, 0);
        // Output module 0 is still reachable through middle 0.
        let rc = net.connect(&conn((1, 0), &[(0, 0)])).unwrap().clone();
        assert_eq!(rc.branches[0].middle, 0);
    }

    #[test]
    fn dark_input_converters_pin_wavelength() {
        // MAW-dominant normally converts around a wavelength clash
        // (see maw_dominant_converts_around_wavelength_clash); with the
        // module's converter bank dark it degenerates to MSW and blocks.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.inject_fault(Fault::InputConverters(0));
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        assert!(matches!(
            net.connect(&conn((1, 0), &[(3, 0)])),
            Err(RouteError::Blocked { .. })
        ));
    }

    #[test]
    fn dark_middle_converters_pin_leg_wavelength() {
        // MAW-dominant, λ0 busy on the 0→module1 middle link: normally the
        // middle converts the leg to λ1; with its bank dark the leg must
        // stay on the arrival wavelength.
        let p = ThreeStageParams::new(2, 1, 2, 2);
        let mut net = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        net.set_fanout_limit(1);
        net.inject_fault(Fault::MiddleConverters(0));
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        // Second λ0 source: input converter shifts it to λ1; the middle
        // cannot shift it back to reach a λ1 destination — that's fine
        // (λ1 output free) — but a λ0 destination needs the dark bank.
        let rc = net.connect(&conn((1, 0), &[(3, 1)])).unwrap().clone();
        assert_eq!(rc.branches[0].input_wavelength, 1);
        assert_eq!(rc.branches[0].legs[0].wavelength, 1, "no conversion");
    }

    #[test]
    fn dead_port_is_component_down() {
        let mut net = msw_net();
        net.inject_fault(Fault::Port(2));
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(matches!(err, RouteError::ComponentDown(Fault::Port(2))));
        let err = net.connect(&conn((2, 0), &[(0, 0)])).unwrap_err();
        assert!(matches!(err, RouteError::ComponentDown(Fault::Port(2))));
        // Other traffic unaffected.
        assert!(net.connect(&conn((0, 0), &[(3, 0)])).is_ok());
    }

    #[test]
    fn cut_off_module_is_component_down_not_blocked() {
        let mut net = msw_net();
        // Sever every link from input module 0 to the middle stage.
        for j in 0..4 {
            net.inject_fault(Fault::InputLink {
                module: 0,
                middle: j,
            });
        }
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(
            matches!(err, RouteError::ComponentDown(Fault::InputLink { .. })),
            "cut-off module must not read as capacity blocking: {err}"
        );
        // Module 1 still routes.
        assert!(net.connect(&conn((2, 0), &[(0, 0)])).is_ok());
    }

    #[test]
    fn connections_through_finds_traversing_traffic() {
        let mut net = msw_net();
        let rc = net
            .connect(&conn((0, 0), &[(1, 0), (2, 0)]))
            .unwrap()
            .clone();
        net.connect(&conn((2, 1), &[(3, 1)])).unwrap();
        let j = rc.branches[0].middle;
        let hit = net.connections_through(&Fault::MiddleSwitch(j));
        assert!(hit.contains(&Endpoint::new(0, 0)));
        let hit = net.connections_through(&Fault::Port(1));
        assert_eq!(hit, vec![Endpoint::new(0, 0)]);
        let hit = net.connections_through(&Fault::Port(3));
        assert_eq!(hit, vec![Endpoint::new(2, 1)]);
        // A middle no route uses carries nothing.
        let unused: Vec<u32> = (0..4)
            .filter(|&j| {
                net.route_of(Endpoint::new(0, 0))
                    .unwrap()
                    .branches
                    .iter()
                    .chain(net.route_of(Endpoint::new(2, 1)).unwrap().branches.iter())
                    .all(|b| b.middle != j)
            })
            .collect();
        for j in unused {
            assert!(net.connections_through(&Fault::MiddleSwitch(j)).is_empty());
        }
    }

    #[test]
    fn repair_restores_routing() {
        let mut net = msw_net();
        for j in 0..4 {
            net.inject_fault(Fault::MiddleSwitch(j));
        }
        assert!(matches!(
            net.connect(&conn((0, 0), &[(2, 0)])),
            Err(RouteError::ComponentDown(_))
        ));
        assert!(net.repair_fault(Fault::MiddleSwitch(2)));
        assert!(!net.repair_fault(Fault::MiddleSwitch(2)), "double repair");
        let rc = net.connect(&conn((0, 0), &[(2, 0)])).unwrap().clone();
        assert_eq!(rc.branches[0].middle, 2);
        assert_eq!(net.faults().failed_middles(), 3);
    }

    #[test]
    fn cover_search_exact_fallback() {
        // Greedy picks the big set {0,1} first, but the only 2-cover of
        // {0,1,2,3} is {0,1}∪... make greedy fail: sets {0,1,2}, {0,1,3}
        // greedy takes {0,1,2} then needs {3}: {0,1,3} covers it — fine.
        // Construct a real trap: {0,1}, {2,3}, {0,2}, {1,3} with x=2 and
        // greedy tie-breaking on the first max; any pair from
        // {{0,1},{2,3}} or {{0,2},{1,3}} works, so cover must be found.
        let mut serv = BitRows::new(4, 4);
        for (i, served) in [[0, 1], [2, 3], [0, 2], [1, 3]].iter().enumerate() {
            for &g in served {
                serv.set(i as u32, g);
            }
        }
        let cover = find_cover(&serv, 4, 4, 2).unwrap();
        let covered: std::collections::BTreeSet<u32> = cover
            .iter()
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect();
        assert_eq!(covered.len(), 4);
        // x=1 is impossible.
        assert!(find_cover(&serv, 4, 4, 1).is_none());
    }
}
