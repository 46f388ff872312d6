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

use crate::routing::{find_cover, RoutingCtx};
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

/// One middle→output-module hop of a routed connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Leg {
    /// Output module served through this leg.
    pub out_module: u32,
    /// Wavelength occupied on the middle→output link.
    pub wavelength: u32,
    /// Destination endpoints delivered inside that output module.
    pub dests: Vec<Endpoint>,
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
    /// Busy-wavelength bitmask per input-module→middle link: `[r][m]`.
    pub(crate) input_links: Vec<Vec<u64>>,
    /// Busy-wavelength bitmask per middle→output-module link: `[m][r]`.
    pub(crate) middle_links: Vec<Vec<u64>>,
    /// Free-middle mask per `(input module, wavelength)` — row
    /// `module·k + w`, bit `j` set iff wavelength `w` is free on the
    /// link `module→j`. The MSW-dominant availability probe.
    free_in: BitRows,
    /// Not-full mask per input module — bit `j` set iff the link
    /// `module→j` still has a free wavelength. The MAW-dominant probe.
    not_full: BitRows,
    /// Bit `j` set iff middle switch `j` is not failed.
    live_middles: Vec<u64>,
    /// Bit `j` of row `module` set iff the input link `module→j` is not
    /// severed.
    links_up: BitRows,
    /// The paper's `M_j` per middle switch (kept in sync with
    /// `middle_links`).
    pub(crate) multisets: Vec<DestinationMultiset>,
    /// Endpoint-level bookkeeping and model enforcement.
    assignment: MulticastAssignment,
    pub(crate) routed: EndpointMap<RoutedConnection>,
    /// Failed components the router must skip.
    pub(crate) faults: FaultSet,
    /// `connect`'s reused scratch: `(output module, start, end)` runs of
    /// the destination list, and the availability mask.
    groups: Vec<(u32, usize, usize)>,
    mask: Vec<u64>,
    /// Storage of torn-down routes handed back through
    /// [`Self::recycle`], reused by later commits.
    spare_branches: Spares<Branch>,
    spare_legs: Spares<Leg>,
    spare_dests: Spares<Endpoint>,
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
        ThreeStageNetwork {
            params,
            construction,
            output_model,
            x_limit: x,
            strategy: SelectionStrategy::FirstFit,
            conversion_range: None,
            input_links: vec![vec![0; params.m as usize]; params.r as usize],
            middle_links: vec![vec![0; params.r as usize]; params.m as usize],
            free_in: BitRows::filled(params.r * params.k, params.m),
            not_full: BitRows::filled(params.r, params.m),
            live_middles: bitset::filled_words(params.m),
            links_up: BitRows::filled(params.r, params.m),
            multisets: vec![DestinationMultiset::new(params.r, params.k); params.m as usize],
            assignment: MulticastAssignment::new(params.network(), output_model),
            routed: EndpointMap::new(params.network()),
            faults: FaultSet::new(),
            groups: Vec::new(),
            mask: Vec::new(),
            spare_branches: Spares(Vec::new()),
            spare_legs: Spares(Vec::new()),
            spare_dests: Spares(Vec::new()),
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

    /// The destination multiset `M_j` of middle switch `j`.
    pub fn multiset(&self, j: u32) -> &DestinationMultiset {
        &self.multisets[j as usize]
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
            self.apply_fault_to_masks(fault, false);
        }
        fresh
    }

    /// Mark `fault` repaired. Returns `true` if it was failed before.
    pub fn repair_fault(&mut self, fault: Fault) -> bool {
        let was_failed = self.faults.repair(fault);
        if was_failed {
            self.apply_fault_to_masks(fault, true);
        }
        was_failed
    }

    /// Keep the packed availability masks in sync with the fault set.
    /// Only middle-switch and input-link faults affect the *availability*
    /// of a middle; out-of-range indices touch nothing (the fault set
    /// accepts foreign vocabulary).
    fn apply_fault_to_masks(&mut self, fault: Fault, up: bool) {
        match fault {
            Fault::MiddleSwitch(j) if j < self.params.m => {
                if up {
                    bitset::set_bit(&mut self.live_middles, j);
                } else {
                    bitset::clear_bit(&mut self.live_middles, j);
                }
            }
            Fault::InputLink { module, middle }
                if module < self.params.r && middle < self.params.m =>
            {
                if up {
                    self.links_up.set(module, middle);
                } else {
                    self.links_up.clear(module, middle);
                }
            }
            _ => {}
        }
    }

    /// Live connections whose realized route traverses `fault` — the
    /// traffic a runtime must heal when the component dies.
    pub fn connections_through(&self, fault: &Fault) -> Vec<Endpoint> {
        self.routed
            .iter()
            .filter(|(src, rc)| self.ctx().route_uses(src, rc, fault))
            .map(|(&src, _)| src)
            .collect()
    }

    /// Packed mask of the middle switches reachable by a new connection
    /// from input module `module` on source wavelength `src_wl` (the
    /// paper's *available middle switches*, bit `j` per middle `j`).
    ///
    /// This is the routing probe's fast path: one AND across the
    /// incrementally maintained free-wavelength (or not-full), live-middle
    /// and live-link words — no per-middle scan.
    pub fn available_middles_mask(&self, module: u32, src_wl: u32) -> Vec<u64> {
        self.available_words(module, src_wl).collect()
    }

    /// The words of [`Self::available_middles_mask`], unmaterialized.
    fn available_words(&self, module: u32, src_wl: u32) -> impl Iterator<Item = u64> + '_ {
        let base = match self.construction {
            Construction::MswDominant => self.free_in.row(module * self.params.k + src_wl),
            Construction::MawDominant => self.not_full.row(module),
        };
        base.iter()
            .zip(&self.live_middles)
            .zip(self.links_up.row(module))
            .map(|((&free, &live), &link)| free & live & link)
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
    /// Borrows the request: a rejected probe (the hot path under
    /// contention) copies nothing; the single clone happens at the
    /// commit point.
    pub fn connect(&mut self, conn: &MulticastConnection) -> Result<&RoutedConnection, RouteError> {
        self.assignment.check(conn)?;
        if let Some(fault) = self.ctx().component_down(conn) {
            return Err(RouteError::ComponentDown(fault));
        }
        let src = conn.source();
        let (in_module, _) = self.params.input_module_of(src.port.0);
        let dests = conn.destinations();

        // Group destinations by output module. They are sorted by port,
        // so each module's destinations are one contiguous ascending run
        // and the runs come in ascending module order.
        self.groups.clear();
        for (i, d) in dests.iter().enumerate() {
            let (om, _) = self.params.output_module_of(d.port.0);
            match self.groups.last_mut() {
                Some((last, _, end)) if *last == om => *end = i + 1,
                _ => self.groups.push((om, i, i + 1)),
            }
        }

        // Fast path (FirstFit): `find_cover`'s greedy pass commits the
        // *first* switch attaining maximal gain, and no gain can exceed
        // the number of requested output modules — so the first available
        // middle that services every module is exactly the switch
        // FirstFit would pick. Probe the packed mask lazily (a handful of
        // AND/popcount words plus per-candidate wavelength checks) instead
        // of materializing the full service matrix. Falls through to the
        // general cover search only when no single middle covers the
        // request.
        let mut fast_hit = None;
        if matches!(self.strategy, SelectionStrategy::FirstFit) {
            let mut mask = std::mem::take(&mut self.mask);
            mask.clear();
            mask.extend(self.available_words(in_module, src.wavelength.0));
            fast_hit = bitset::ones(&mask).find_map(|j| {
                let wi = self.branch_wavelength(in_module, j, src.wavelength.0)?;
                let serves = |&(om, s, e): &(u32, usize, usize)| {
                    self.leg_wavelength(j, om, wi, &dests[s..e]).is_some()
                };
                self.groups.iter().all(serves).then_some((j, wi))
            });
            self.mask = mask;
        }
        let mut branches;
        if let Some((j, wi)) = fast_hit {
            branches = self.spare_branches.take(1);
            branches.push(self.commit_branch(in_module, j, wi, dests, 0..self.groups.len()));
        } else {
            // Availability (with the input-link wavelength each middle
            // would use), ordered by the selection strategy (ties in the
            // cover search resolve to earlier entries).
            let mut available_wi: Vec<(u32, u32)> = self
                .available_middles(in_module, src.wavelength.0)
                .into_iter()
                .filter_map(|j| {
                    self.branch_wavelength(in_module, j, src.wavelength.0)
                        .map(|wi| (j, wi))
                })
                .collect();
            match self.strategy {
                SelectionStrategy::FirstFit => {}
                SelectionStrategy::Pack => available_wi.sort_by_key(|&(j, _)| {
                    std::cmp::Reverse(self.multisets[j as usize].total_connections())
                }),
                SelectionStrategy::Spread => available_wi
                    .sort_by_key(|&(j, _)| self.multisets[j as usize].total_connections()),
            }
            // The cover search names each requested module by the index of
            // its run in `self.groups` — an order-preserving relabelling, so
            // it picks exactly what it would pick on the module numbers.
            let runs: Vec<u32> = (0..self.groups.len() as u32).collect();
            let available: Vec<u32> = available_wi.iter().map(|&(j, _)| j).collect();
            let serv: Vec<Vec<u32>> = available_wi
                .iter()
                .map(|&(j, wi)| {
                    let serves = |&(om, s, e): &(u32, usize, usize)| {
                        self.leg_wavelength(j, om, wi, &dests[s..e]).is_some()
                    };
                    runs.iter()
                        .copied()
                        .filter(|&g| serves(&self.groups[g as usize]))
                        .collect()
                })
                .collect();
            let cover = find_cover(&runs, &available, &serv, self.x_limit as usize).ok_or(
                RouteError::Blocked {
                    available_middles: available.len(),
                    x_limit: self.x_limit,
                },
            )?;
            branches = self.spare_branches.take(cover.len());
            for (j, legs) in cover {
                let in_wl = available_wi
                    .iter()
                    .find(|&&(jj, _)| jj == j)
                    .expect("cover switches come from the available list")
                    .1;
                let legs = legs.into_iter().map(|g| g as usize);
                branches.push(self.commit_branch(in_module, j, in_wl, dests, legs));
            }
        }

        self.assignment
            .add(conn.clone())
            .expect("checked before routing");
        self.routed.insert(
            src,
            RoutedConnection {
                source: src,
                branches,
            },
        );
        Ok(&self.routed[&src])
    }

    /// Occupy `module→j` on `in_wl` and one leg per run `self.groups[g]`.
    fn commit_branch(
        &mut self,
        module: u32,
        j: u32,
        in_wl: u32,
        dests: &[Endpoint],
        runs: impl ExactSizeIterator<Item = usize>,
    ) -> Branch {
        self.occupy_input_link(module, j, in_wl);
        let mut legs = self.spare_legs.take(runs.len());
        for g in runs {
            let (om, s, e) = self.groups[g];
            let wl = self
                .leg_wavelength(j, om, in_wl, &dests[s..e])
                .expect("cover legs are serviceable");
            self.middle_links[j as usize][om as usize] |= 1 << wl;
            self.multisets[j as usize].add(om);
            let mut leg_dests = self.spare_dests.take(e - s);
            leg_dests.extend_from_slice(&dests[s..e]);
            legs.push(Leg {
                out_module: om,
                wavelength: wl,
                dests: leg_dests,
            });
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
        self.input_links[module as usize][j as usize] |= 1 << wl;
        self.free_in.clear(module * self.params.k + wl, j);
        if self.input_links[module as usize][j as usize].count_ones() >= self.params.k {
            self.not_full.clear(module, j);
        }
    }

    /// Free wavelength `wl` on the input link `module→j`, keeping the
    /// packed availability masks in sync.
    pub(crate) fn release_input_link(&mut self, module: u32, j: u32, wl: u32) {
        self.input_links[module as usize][j as usize] &= !(1 << wl);
        self.free_in.set(module * self.params.k + wl, j);
        self.not_full.set(module, j);
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
                self.middle_links[b.middle as usize][leg.out_module as usize] &=
                    !(1 << leg.wavelength);
                self.multisets[b.middle as usize].remove(leg.out_module);
            }
        }
        self.assignment
            .remove(src)
            .expect("routed connection is in the assignment");
        Ok(routed)
    }

    /// Hand back a route [`Self::disconnect`] returned, so later commits
    /// reuse its `Branch`, `Leg` and destination storage instead of
    /// allocating. A caller that drops every torn-down route here keeps
    /// a steady churn free of route allocations.
    pub fn recycle(&mut self, route: RoutedConnection) {
        let mut branches = route.branches;
        for mut b in branches.drain(..) {
            for leg in b.legs.drain(..) {
                self.spare_dests.give(leg.dests);
            }
            self.spare_legs.give(b.legs);
        }
        self.spare_branches.give(branches);
    }

    /// The wavelength a branch from input module `module` to middle `j`
    /// would occupy, or `None` if no free wavelength is reachable from
    /// the source wavelength.
    pub(crate) fn branch_wavelength(&self, module: u32, j: u32, src_wl: u32) -> Option<u32> {
        let mask = self.input_links[module as usize][j as usize];
        self.ctx().branch_wavelength_masked(module, mask, src_wl)
    }

    /// The wavelength a leg from middle `j` to output module `om` would
    /// occupy for a branch arriving at `j` on `wi`, or `None` if the link
    /// cannot carry it — considering the middle converter's reach
    /// (`wi → wl`) and the output module's converters (`wl → dest λ`).
    pub(crate) fn leg_wavelength(
        &self,
        j: u32,
        om: u32,
        wi: u32,
        dests: &[Endpoint],
    ) -> Option<u32> {
        let mask = self.middle_links[j as usize][om as usize];
        self.ctx().leg_wavelength_masked(j, om, mask, wi, dests)
    }

    /// Per-middle-switch connection totals (for load-balance analysis of
    /// the selection strategies): `loads[j] = Σ_p multiplicity(p in M_j)`.
    pub fn middle_loads(&self) -> Vec<u64> {
        self.multisets
            .iter()
            .map(|m| m.total_connections())
            .collect()
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

    /// Recompute every link mask and multiset from the routed connections
    /// and compare with the live state. Returns violations (empty =
    /// consistent). Used by tests and debug assertions.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut in_links = vec![vec![0u64; self.params.m as usize]; self.params.r as usize];
        let mut mid_links = vec![vec![0u64; self.params.r as usize]; self.params.m as usize];
        for (src, rc) in &self.routed {
            let (a, _) = self.params.input_module_of(src.port.0);
            for b in &rc.branches {
                let bit = 1u64 << b.input_wavelength;
                if in_links[a as usize][b.middle as usize] & bit != 0 {
                    problems.push(format!(
                        "double-booked input link {a}→{} λ{}",
                        b.middle,
                        b.input_wavelength + 1
                    ));
                }
                in_links[a as usize][b.middle as usize] |= bit;
                for leg in &b.legs {
                    let bit = 1u64 << leg.wavelength;
                    if mid_links[b.middle as usize][leg.out_module as usize] & bit != 0 {
                        problems.push(format!(
                            "double-booked middle link {}→{} λ{}",
                            b.middle,
                            leg.out_module,
                            leg.wavelength + 1
                        ));
                    }
                    mid_links[b.middle as usize][leg.out_module as usize] |= bit;
                }
            }
        }
        if in_links != self.input_links {
            problems.push("input link masks out of sync".into());
        }
        if mid_links != self.middle_links {
            problems.push("middle link masks out of sync".into());
        }
        // The packed availability masks must agree with a from-scratch
        // recomputation off the link masks and the fault set.
        let mut free_in = BitRows::new(self.params.r * self.params.k, self.params.m);
        let mut not_full = BitRows::new(self.params.r, self.params.m);
        for a in 0..self.params.r {
            for j in 0..self.params.m {
                let mask = in_links[a as usize][j as usize];
                for w in 0..self.params.k {
                    if mask & (1 << w) == 0 {
                        free_in.set(a * self.params.k + w, j);
                    }
                }
                if mask.count_ones() < self.params.k {
                    not_full.set(a, j);
                }
            }
        }
        if free_in != self.free_in {
            problems.push("free-wavelength middle masks out of sync".into());
        }
        if not_full != self.not_full {
            problems.push("not-full middle masks out of sync".into());
        }
        let mut live_middles = bitset::filled_words(self.params.m);
        for j in 0..self.params.m {
            if self.faults.middle_down(j) {
                bitset::clear_bit(&mut live_middles, j);
            }
        }
        if live_middles != self.live_middles {
            problems.push("live-middle mask out of sync with fault set".into());
        }
        let mut links_up = BitRows::filled(self.params.r, self.params.m);
        for a in 0..self.params.r {
            for j in 0..self.params.m {
                if self.faults.input_link_down(a, j) {
                    links_up.clear(a, j);
                }
            }
        }
        if links_up != self.links_up {
            problems.push("input-link-up mask out of sync with fault set".into());
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
        for (j, ms) in self.multisets.iter().enumerate() {
            for p in 0..self.params.r {
                let live = self.middle_links[j][p as usize].count_ones();
                if ms.multiplicity(p) != live {
                    problems.push(format!(
                        "multiset M_{j}[{p}] = {} ≠ {live}",
                        ms.multiplicity(p)
                    ));
                }
            }
        }
        problems
    }
}

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
        let modules = [0, 1, 2, 3];
        let available = [10, 11, 12, 13];
        let serv = vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![1, 3]];
        let cover = find_cover(&modules, &available, &serv, 2).unwrap();
        let covered: std::collections::BTreeSet<u32> = cover
            .iter()
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect();
        assert_eq!(covered.len(), 4);
        // x=1 is impossible.
        assert!(find_cover(&modules, &available, &serv, 1).is_none());
    }
}
