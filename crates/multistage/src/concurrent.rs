//! Lock-striped, CAS-committed three-stage backend.
//!
//! [`ConcurrentThreeStage`] is the fine-grained-concurrency counterpart
//! of [`ThreeStageNetwork`](crate::ThreeStageNetwork): the same Fig. 8
//! geometry, the same FirstFit routing decisions (shared verbatim via
//! [`crate::routing`]), but admissible from many threads at once through
//! `&self`. The occupancy words live in [`AtomicU64`]s, admission takes
//! only the *source input module's* stripe lock, and the middle→output
//! leg words — the only state two input modules can race on — commit by
//! compare-and-swap with newest-first rollback when a racing commit
//! invalidates the probed wavelength.
//!
//! Concurrency architecture (see DESIGN.md "Fine-grained admission"):
//!
//! * **Endpoint claims** (`src_busy` / `dst_busy`) — one atomic
//!   `fetch_or` claims an endpoint bit; exactly one racing claimant
//!   wins. Claim order replicates `MulticastAssignment::check`, so under
//!   a serial schedule the error taxonomy is bit-for-bit the serial one.
//! * **Stripe per input module** — `input_links` rows, `free_in` /
//!   `not_full` rows and the per-module `routed` map are only touched
//!   while that module's stripe is held, so first-stage bookkeeping
//!   needs no CAS at all.
//! * **Optimistic leg commit** — middle→output words are probed with
//!   plain loads and committed with a CAS loop that revalidates the
//!   wavelength against the fresh word on every failure; if the leg
//!   became unserviceable, every younger leg (and the input word) rolls
//!   back newest-first and the whole probe retries.
//! * **Coarse fallback** — when bounded optimistic retries exhaust, or
//!   no single middle covers the fan-out, the connect releases its
//!   stripe and takes *all* stripes in ascending order (a stop-the-world
//!   epoch, since every mutator holds at least one stripe) and runs the
//!   exact serial cover search. [`RouteError::Blocked`] is reported only
//!   from this path, so CAS livelock can never masquerade as a
//!   capacity block.
//! * **Seqlock epoch** — `commits_started` / `commits_finished` bracket
//!   every mutation; lock-free readers (engine snapshots) retry while
//!   the counters disagree.

use crate::routing::{find_cover, RoutingCtx};
use crate::{bounds, Construction, ThreeStageParams};
use crate::{Branch, Leg, RouteError, RoutedConnection};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use wdm_core::bitset::{self, AtomicBitRows, BitRows};
use wdm_core::{
    AssignmentError, Endpoint, Fault, FaultSet, MulticastConnection, MulticastModel, NetworkConfig,
};

/// Whole-probe optimistic attempts before the connect escalates to the
/// coarse all-stripes path.
const MAX_PROBE_ATTEMPTS: u32 = 16;

/// Yield points the deterministic interleaving tests hook into (via
/// [`ConcurrentThreeStage::set_pause_hook`]) to force two threads into a
/// precise probe/commit overlap. Production code never installs a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PausePoint {
    /// Probe validated a single-middle route; the input word is about to
    /// be committed (outside the seqlock epoch).
    PreCommit {
        /// Middle switch the probe chose.
        middle: u32,
    },
    /// Inside the commit epoch, immediately before one leg's CAS loop.
    BeforeLeg {
        /// Middle switch being committed.
        middle: u32,
        /// Output module of the pending leg.
        out_module: u32,
        /// Legs already committed for this branch.
        legs_committed: u32,
    },
}

/// One reading of the commit-epoch seqlock counters.
///
/// A reader's view of `active` / `middle_loads` is stable iff the
/// `finished` count it read *before* the data equals the `started`
/// count it read *after* — no commit began mid-read and every commit
/// that had begun was already finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEpoch {
    /// Mutations that have entered their commit section.
    pub started: u64,
    /// Mutations that have left their commit section.
    pub finished: u64,
}

/// Per-input-module striped state: everything only that module's
/// admissions touch.
#[derive(Debug, Default)]
struct ModuleState {
    /// Live connections sourced in this module, with their realized
    /// routes.
    routed: BTreeMap<Endpoint, (MulticastConnection, RoutedConnection)>,
}

/// A three-stage WDM multicast network admitting connections from many
/// threads concurrently (FirstFit selection only).
///
/// Under a serial schedule every outcome — admissions, wavelengths,
/// error taxonomy, `Blocked` counts — is identical to
/// [`ThreeStageNetwork`](crate::ThreeStageNetwork) with
/// [`SelectionStrategy::FirstFit`](crate::SelectionStrategy::FirstFit);
/// the concurrent conformance sweep in `wdm-sim` holds it to that.
pub struct ConcurrentThreeStage {
    params: ThreeStageParams,
    construction: Construction,
    output_model: MulticastModel,
    x_limit: u32,
    conversion_range: Option<u32>,
    /// Busy-wavelength word per input-module→middle link, row-major
    /// `[module·m + j]`. Written only under stripe `module`.
    input_links: Vec<AtomicU64>,
    /// Busy-wavelength word per middle→output-module link, row-major
    /// `[j·r + om]`. The only cross-stripe contended words: committed by
    /// CAS, released by `fetch_and`.
    middle_links: Vec<AtomicU64>,
    /// Free-middle mask per `(input module, wavelength)` — row
    /// `module·k + w`, bit `j`. Written only under stripe `module`.
    free_in: AtomicBitRows,
    /// Not-full mask per input module — row `module`, bit `j`. Written
    /// only under stripe `module`.
    not_full: AtomicBitRows,
    /// Bit `j` set iff middle `j` is not failed. Written only under
    /// `&mut self` (the engine's stop-the-world write epoch).
    live_middles: Vec<AtomicU64>,
    /// Bit `j` of row `module` set iff link `module→j` is not severed.
    /// Written only under `&mut self`.
    links_up: AtomicBitRows,
    /// Endpoint claims, row = port, bit = wavelength. The concurrent
    /// mirror of `MulticastAssignment`'s busy tables: `try_set` claims,
    /// `clear` releases.
    src_busy: AtomicBitRows,
    dst_busy: AtomicBitRows,
    /// One mutex per input module. Coarse operations take all of them in
    /// ascending index order.
    stripes: Vec<Mutex<ModuleState>>,
    /// Live-connection gauge (seqlock-protected datum).
    active: AtomicU64,
    /// Seqlock writer counters bracketing every link mutation.
    commits_started: AtomicU64,
    commits_finished: AtomicU64,
    /// Failed components. Mutated only through `&mut self`; read freely
    /// during shared admission (the engine's `RwLock` write epoch is
    /// what makes fault injection stop-the-world).
    faults: FaultSet,
    /// Test-only yield hook; `None` in production.
    pause_hook: Option<Arc<dyn Fn(PausePoint) + Send + Sync>>,
}

impl std::fmt::Debug for ConcurrentThreeStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentThreeStage")
            .field("params", &self.params)
            .field("construction", &self.construction)
            .field("output_model", &self.output_model)
            .field("x_limit", &self.x_limit)
            .field("active", &self.active.load(Ordering::Acquire))
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

/// What one optimistic single-middle commit attempt came to.
enum CommitOutcome {
    /// All words committed; the realized branch.
    Committed(Branch),
    /// A racing commit invalidated a leg; everything rolled back.
    Conflict,
}

impl ConcurrentThreeStage {
    /// Create an idle network. The fan-out limit `x` defaults to the
    /// optimizer of the construction's own nonblocking bound; middle
    /// selection is always FirstFit (the deterministic order the
    /// serial-conformance oracle replays).
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
        let ports = params.external_ports();
        ConcurrentThreeStage {
            params,
            construction,
            output_model,
            x_limit: x,
            conversion_range: None,
            input_links: (0..params.r as usize * params.m as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
            middle_links: (0..params.m as usize * params.r as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
            free_in: AtomicBitRows::filled(params.r * params.k, params.m),
            not_full: AtomicBitRows::filled(params.r, params.m),
            live_middles: bitset::filled_words(params.m)
                .into_iter()
                .map(AtomicU64::new)
                .collect(),
            links_up: AtomicBitRows::filled(params.r, params.m),
            src_busy: AtomicBitRows::new(ports, params.k),
            dst_busy: AtomicBitRows::new(ports, params.k),
            stripes: (0..params.r)
                .map(|_| Mutex::new(ModuleState::default()))
                .collect(),
            active: AtomicU64::new(0),
            commits_started: AtomicU64::new(0),
            commits_finished: AtomicU64::new(0),
            faults: FaultSet::new(),
            pause_hook: None,
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

    /// Restrict every wavelength converter to a reach of `d` slots
    /// (`None` restores the paper's full-range assumption).
    pub fn set_conversion_range(&mut self, d: Option<u32>) {
        self.conversion_range = d;
    }

    /// The converter reach in force.
    pub fn conversion_range(&self) -> Option<u32> {
        self.conversion_range
    }

    /// The failed components currently on record.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Install a yield hook fired at [`PausePoint`]s on the committing
    /// thread. Exists so the deterministic interleaving tests can hold
    /// one thread mid-commit; not part of the stable API.
    #[doc(hidden)]
    pub fn set_pause_hook(&mut self, hook: Option<Arc<dyn Fn(PausePoint) + Send + Sync>>) {
        self.pause_hook = hook;
    }

    /// Live connection count (lock-free gauge; pair with
    /// [`Self::commit_epoch`] for a stable read under concurrency).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire) as usize
    }

    /// Per-middle-switch connection loads, derived from the leg words:
    /// `loads[j] = Σ_om popcount(middle_links[j][om])` (lock-free;
    /// pair with [`Self::commit_epoch`] for a stable read).
    pub fn middle_loads(&self) -> Vec<u64> {
        let r = self.params.r as usize;
        (0..self.params.m as usize)
            .map(|j| {
                (0..r)
                    .map(|om| {
                        self.middle_links[j * r + om]
                            .load(Ordering::Acquire)
                            .count_ones() as u64
                    })
                    .sum()
            })
            .collect()
    }

    /// The seqlock counters (see [`CommitEpoch`] for the stability
    /// protocol). Loads are `SeqCst` so the reader's fence argument
    /// needs no per-word reasoning.
    pub fn commit_epoch(&self) -> CommitEpoch {
        CommitEpoch {
            started: self.commits_started.load(Ordering::SeqCst),
            finished: self.commits_finished.load(Ordering::SeqCst),
        }
    }

    /// The routed form of the connection sourced at `src`, if any
    /// (cloned out of its stripe).
    pub fn route_of(&self, src: Endpoint) -> Option<RoutedConnection> {
        if src.port.0 >= self.params.external_ports() {
            return None;
        }
        let (module, _) = self.params.input_module_of(src.port.0);
        self.stripe(module)
            .routed
            .get(&src)
            .map(|(_, rc)| rc.clone())
    }

    fn ctx(&self) -> RoutingCtx<'_> {
        RoutingCtx {
            params: self.params,
            construction: self.construction,
            output_model: self.output_model,
            conversion_range: self.conversion_range,
            faults: &self.faults,
        }
    }

    fn stripe(&self, module: u32) -> MutexGuard<'_, ModuleState> {
        self.stripes[module as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Take every stripe in ascending index order. Because every mutator
    /// holds at least one stripe for the whole of its commit, holding
    /// all of them is a stop-the-world epoch over the link state.
    fn all_stripes(&self) -> Vec<MutexGuard<'_, ModuleState>> {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    fn pause(&self, point: PausePoint) {
        if let Some(hook) = &self.pause_hook {
            hook(point);
        }
    }

    fn epoch_start(&self) {
        self.commits_started.fetch_add(1, Ordering::SeqCst);
    }

    fn epoch_finish(&self) {
        self.commits_finished.fetch_add(1, Ordering::SeqCst);
    }

    #[inline]
    fn input_word(&self, module: u32, j: u32) -> &AtomicU64 {
        &self.input_links[module as usize * self.params.m as usize + j as usize]
    }

    #[inline]
    fn middle_word(&self, j: u32, om: u32) -> &AtomicU64 {
        &self.middle_links[j as usize * self.params.r as usize + om as usize]
    }

    /// Packed mask of the middle switches reachable from `module` on
    /// `src_wl`. Reads this module's own rows (stable under its stripe)
    /// plus the `&mut self`-only fault masks.
    fn available_middles_mask(&self, module: u32, src_wl: u32) -> Vec<u64> {
        let base = match self.construction {
            Construction::MswDominant => self.free_in.row(module * self.params.k + src_wl),
            Construction::MawDominant => self.not_full.row(module),
        };
        base.iter()
            .zip(&self.live_middles)
            .zip(self.links_up.row(module))
            .map(|((free, live), link)| {
                free.load(Ordering::Acquire)
                    & live.load(Ordering::Acquire)
                    & link.load(Ordering::Acquire)
            })
            .collect()
    }

    /// Mark wavelength `wl` busy on input link `module→j` (caller holds
    /// stripe `module`).
    fn occupy_input_link(&self, module: u32, j: u32, wl: u32) {
        let prior = self
            .input_word(module, j)
            .fetch_or(1 << wl, Ordering::AcqRel);
        debug_assert_eq!(prior & (1 << wl), 0, "input wavelength double-booked");
        self.free_in.clear(module * self.params.k + wl, j);
        if (prior | (1 << wl)).count_ones() >= self.params.k {
            self.not_full.clear(module, j);
        }
    }

    /// Free wavelength `wl` on input link `module→j` (caller holds
    /// stripe `module`).
    fn release_input_link(&self, module: u32, j: u32, wl: u32) {
        self.input_word(module, j)
            .fetch_and(!(1u64 << wl), Ordering::AcqRel);
        self.free_in.set(module * self.params.k + wl, j);
        self.not_full.set(module, j);
    }

    /// Claim the request's endpoints in exactly the order
    /// `MulticastAssignment::check` validates them, rolling back every
    /// claim this call made on any failure.
    fn claim_endpoints(&self, conn: &MulticastConnection) -> Result<(), RouteError> {
        let net = self.params.network();
        let src = conn.source();
        if !net.contains(src) {
            return Err(AssignmentError::OutOfRange(src).into());
        }
        if !self.output_model.allows(conn) {
            return Err(AssignmentError::ModelViolation(self.output_model).into());
        }
        if !self.src_busy.try_set(src.port.0, src.wavelength.0) {
            return Err(AssignmentError::SourceBusy(src).into());
        }
        let mut claimed: Vec<Endpoint> = Vec::new();
        let fail = |e: AssignmentError, claimed: &[Endpoint]| {
            for d in claimed.iter().rev() {
                self.dst_busy.clear(d.port.0, d.wavelength.0);
            }
            self.src_busy.clear(src.port.0, src.wavelength.0);
            RouteError::from(e)
        };
        for &d in conn.destinations() {
            if !net.contains(d) {
                return Err(fail(AssignmentError::OutOfRange(d), &claimed));
            }
            if !self.dst_busy.try_set(d.port.0, d.wavelength.0) {
                return Err(fail(AssignmentError::DestinationBusy(d), &claimed));
            }
            claimed.push(d);
        }
        Ok(())
    }

    /// Release every endpoint claim of `conn` (destinations first, the
    /// source last, so a racing same-source connect keeps seeing
    /// `SourceBusy` until the teardown is otherwise complete).
    fn release_endpoints(&self, conn: &MulticastConnection) {
        for d in conn.destinations().iter().rev() {
            self.dst_busy.clear(d.port.0, d.wavelength.0);
        }
        let src = conn.source();
        self.src_busy.clear(src.port.0, src.wavelength.0);
    }

    /// Try to route `conn` from `&self`. On success the connection is
    /// committed and its realized route returned.
    ///
    /// Threads submitting for *different* input modules proceed in
    /// parallel; only the leg words can conflict, and conflicts resolve
    /// by CAS-retry (bounded) or the coarse all-stripes path.
    pub fn connect_shared(
        &self,
        conn: &MulticastConnection,
    ) -> Result<RoutedConnection, RouteError> {
        self.claim_endpoints(conn)?;
        let ctx = self.ctx();
        if let Some(fault) = ctx.component_down(conn) {
            self.release_endpoints(conn);
            return Err(RouteError::ComponentDown(fault));
        }
        let src = conn.source();
        let (in_module, _) = self.params.input_module_of(src.port.0);

        // Group destinations by output module (BTreeMap: legs commit in
        // ascending module order, exactly like the serial router).
        let mut by_module: BTreeMap<u32, Vec<Endpoint>> = BTreeMap::new();
        for &d in conn.destinations() {
            let (om, _) = self.params.output_module_of(d.port.0);
            by_module.entry(om).or_default().push(d);
        }

        // Optimistic striped path: own stripe only, single-middle covers.
        {
            let mut state = self.stripe(in_module);
            let mut attempts = 0u32;
            'attempt: while attempts < MAX_PROBE_ATTEMPTS {
                attempts += 1;
                let mask = self.available_middles_mask(in_module, src.wavelength.0);
                'probe: for j in bitset::ones(&mask) {
                    let in_word = self.input_word(in_module, j).load(Ordering::Acquire);
                    let Some(wi) =
                        ctx.branch_wavelength_masked(in_module, in_word, src.wavelength.0)
                    else {
                        continue;
                    };
                    for (&om, dests) in &by_module {
                        let word = self.middle_word(j, om).load(Ordering::Acquire);
                        if ctx.leg_wavelength_masked(j, om, word, wi, dests).is_none() {
                            continue 'probe;
                        }
                    }
                    // This middle serves the whole fan-out as of the
                    // probe; validate-and-commit word by word.
                    match self.commit_single(in_module, j, wi, &by_module) {
                        CommitOutcome::Committed(branch) => {
                            let rc = RoutedConnection {
                                source: src,
                                branches: vec![branch],
                            };
                            state.routed.insert(src, (conn.clone(), rc.clone()));
                            return Ok(rc);
                        }
                        CommitOutcome::Conflict => continue 'attempt,
                    }
                }
                // No single live middle covers the request right now —
                // only the exact cover search can answer, and it needs
                // the world stopped.
                break;
            }
        }

        // Coarse path: all stripes in ascending order = stop-the-world.
        // Replicates the serial FirstFit algorithm exactly, so Blocked
        // verdicts (and their `available_middles` counts) match the
        // serial oracle — and CAS livelock can never fabricate one.
        self.connect_coarse(conn, src, in_module, &by_module)
    }

    /// Commit one single-middle route optimistically. The input word is
    /// stripe-exclusive (plain RMW); each leg word commits by CAS with
    /// wavelength revalidation against the freshly observed word. On an
    /// unserviceable leg, committed legs roll back newest-first.
    fn commit_single(
        &self,
        module: u32,
        j: u32,
        wi: u32,
        by_module: &BTreeMap<u32, Vec<Endpoint>>,
    ) -> CommitOutcome {
        let ctx = self.ctx();
        self.pause(PausePoint::PreCommit { middle: j });
        self.epoch_start();
        self.occupy_input_link(module, j, wi);
        let mut legs: Vec<Leg> = Vec::with_capacity(by_module.len());
        for (&om, dests) in by_module {
            self.pause(PausePoint::BeforeLeg {
                middle: j,
                out_module: om,
                legs_committed: legs.len() as u32,
            });
            let word = self.middle_word(j, om);
            let mut cur = word.load(Ordering::Acquire);
            let committed_wl = loop {
                let Some(wl) = ctx.leg_wavelength_masked(j, om, cur, wi, dests) else {
                    // A racing commit exhausted this leg: undo the
                    // younger legs first, then the input word.
                    for leg in legs.iter().rev() {
                        self.middle_word(j, leg.out_module)
                            .fetch_and(!(1u64 << leg.wavelength), Ordering::AcqRel);
                    }
                    self.release_input_link(module, j, wi);
                    self.epoch_finish();
                    return CommitOutcome::Conflict;
                };
                match word.compare_exchange(
                    cur,
                    cur | (1 << wl),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break wl,
                    Err(now) => cur = now,
                }
            };
            legs.push(Leg {
                out_module: om,
                wavelength: committed_wl,
                dests: dests.clone(),
            });
        }
        self.active.fetch_add(1, Ordering::AcqRel);
        self.epoch_finish();
        CommitOutcome::Committed(Branch {
            middle: j,
            input_wavelength: wi,
            legs,
        })
    }

    /// The all-stripes connect: the serial FirstFit algorithm run under
    /// a stop-the-world stripe set (single-middle fast probe, then the
    /// materialized availability list and exact cover search).
    fn connect_coarse(
        &self,
        conn: &MulticastConnection,
        src: Endpoint,
        in_module: u32,
        by_module: &BTreeMap<u32, Vec<Endpoint>>,
    ) -> Result<RoutedConnection, RouteError> {
        let mut stripes = self.all_stripes();
        let ctx = self.ctx();
        let modules: Vec<u32> = by_module.keys().copied().collect();
        let mask = self.available_middles_mask(in_module, src.wavelength.0);

        let branch_wl = |j: u32| {
            let word = self.input_word(in_module, j).load(Ordering::Acquire);
            ctx.branch_wavelength_masked(in_module, word, src.wavelength.0)
        };
        let leg_wl = |j: u32, om: u32, wi: u32, dests: &[Endpoint]| {
            let word = self.middle_word(j, om).load(Ordering::Acquire);
            ctx.leg_wavelength_masked(j, om, word, wi, dests)
        };

        // Single-middle fast path first — identical probe order to the
        // serial router, so the chosen (j, wi) matches it exactly.
        let mut fast_hit: Option<(u32, u32)> = None;
        'probe: for j in bitset::ones(&mask) {
            let Some(wi) = branch_wl(j) else { continue };
            for (&om, dests) in by_module {
                if leg_wl(j, om, wi, dests).is_none() {
                    continue 'probe;
                }
            }
            fast_hit = Some((j, wi));
            break;
        }

        let (available_wi, cover) = if let Some((j, wi)) = fast_hit {
            (vec![(j, wi)], vec![(j, modules)])
        } else {
            let available_wi: Vec<(u32, u32)> = bitset::ones(&mask)
                .filter_map(|j| branch_wl(j).map(|wi| (j, wi)))
                .collect();
            let available: Vec<u32> = available_wi.iter().map(|&(j, _)| j).collect();
            let serv: Vec<Vec<u32>> = available_wi
                .iter()
                .map(|&(j, wi)| {
                    modules
                        .iter()
                        .copied()
                        .filter(|&om| leg_wl(j, om, wi, &by_module[&om]).is_some())
                        .collect()
                })
                .collect();
            let Some(cover) = find_cover(&modules, &available, &serv, self.x_limit as usize) else {
                drop(stripes);
                self.release_endpoints(conn);
                return Err(RouteError::Blocked {
                    available_middles: available.len(),
                    x_limit: self.x_limit,
                });
            };
            (available_wi, cover)
        };

        // Commit under the full stripe set: no competitor can interleave,
        // so plain RMWs suffice (the epoch still brackets the mutation
        // for lock-free snapshot readers).
        self.epoch_start();
        let mut branches = Vec::with_capacity(cover.len());
        for (j, legs_modules) in cover {
            let in_wl = available_wi
                .iter()
                .find(|&&(jj, _)| jj == j)
                .expect("cover switches come from the available list")
                .1;
            self.occupy_input_link(in_module, j, in_wl);
            let mut legs = Vec::with_capacity(legs_modules.len());
            for om in legs_modules {
                let wl = leg_wl(j, om, in_wl, &by_module[&om]).expect("cover legs are serviceable");
                self.middle_word(j, om).fetch_or(1 << wl, Ordering::AcqRel);
                legs.push(Leg {
                    out_module: om,
                    wavelength: wl,
                    dests: by_module[&om].clone(),
                });
            }
            branches.push(Branch {
                middle: j,
                input_wavelength: in_wl,
                legs,
            });
        }
        self.active.fetch_add(1, Ordering::AcqRel);
        self.epoch_finish();
        let rc = RoutedConnection {
            source: src,
            branches,
        };
        stripes[in_module as usize]
            .routed
            .insert(src, (conn.clone(), rc.clone()));
        Ok(rc)
    }

    /// Tear down the connection sourced at `src` from `&self`, freeing
    /// every wavelength it occupied. Takes only the source module's
    /// stripe; endpoint claims release last, so racing admissions for
    /// the same endpoints see `Busy` (retryable) rather than a torn
    /// route.
    pub fn disconnect_shared(&self, src: Endpoint) -> Result<RoutedConnection, RouteError> {
        if src.port.0 >= self.params.external_ports() {
            return Err(AssignmentError::NoSuchConnection(src).into());
        }
        let (in_module, _) = self.params.input_module_of(src.port.0);
        let mut state = self.stripe(in_module);
        let (conn, routed) = state.routed.remove(&src).ok_or(RouteError::Assignment(
            AssignmentError::NoSuchConnection(src),
        ))?;
        self.epoch_start();
        for b in &routed.branches {
            self.release_input_link(in_module, b.middle, b.input_wavelength);
            for leg in &b.legs {
                self.middle_word(b.middle, leg.out_module)
                    .fetch_and(!(1u64 << leg.wavelength), Ordering::AcqRel);
            }
        }
        self.active.fetch_sub(1, Ordering::AcqRel);
        self.epoch_finish();
        self.release_endpoints(&conn);
        Ok(routed)
    }

    /// Live connections whose realized route traverses `fault`.
    pub fn connections_through(&self, fault: &Fault) -> Vec<Endpoint> {
        let ctx = self.ctx();
        let mut hit = Vec::new();
        for stripe in self.all_stripes() {
            for (src, (_, rc)) in &stripe.routed {
                if ctx.route_uses(src, rc, fault) {
                    hit.push(*src);
                }
            }
        }
        hit
    }

    /// The live connection sourced at `src`, if any (cloned).
    pub fn connection_at(&self, src: Endpoint) -> Option<MulticastConnection> {
        if src.port.0 >= self.params.external_ports() {
            return None;
        }
        let (module, _) = self.params.input_module_of(src.port.0);
        self.stripe(module).routed.get(&src).map(|(c, _)| c.clone())
    }

    /// Mark `fault` failed. Returns `true` if it was healthy before.
    /// Exclusive (`&mut self`): the engine wraps fault injection in its
    /// stop-the-world write epoch.
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

    fn apply_fault_to_masks(&mut self, fault: Fault, up: bool) {
        match fault {
            Fault::MiddleSwitch(j) if j < self.params.m => {
                let word = &self.live_middles[(j / 64) as usize];
                if up {
                    word.fetch_or(1u64 << (j % 64), Ordering::AcqRel);
                } else {
                    word.fetch_and(!(1u64 << (j % 64)), Ordering::AcqRel);
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

    /// Recompute every word from the routed connections and compare with
    /// the live state. Returns violations (empty = consistent). Intended
    /// for drain time — it takes every stripe.
    pub fn check_consistency(&self) -> Vec<String> {
        let stripes = self.all_stripes();
        let mut problems = Vec::new();
        let (r, m, k) = (self.params.r, self.params.m, self.params.k);
        let ports = self.params.external_ports();
        let mut in_links = vec![0u64; r as usize * m as usize];
        let mut mid_links = vec![0u64; m as usize * r as usize];
        let mut src_busy = BitRows::new(ports, k);
        let mut dst_busy = BitRows::new(ports, k);
        let mut total = 0usize;
        for (module, stripe) in stripes.iter().enumerate() {
            for (src, (conn, rc)) in &stripe.routed {
                total += 1;
                let (a, _) = self.params.input_module_of(src.port.0);
                if a as usize != module {
                    problems.push(format!(
                        "connection {src} filed under stripe {module}, not {a}"
                    ));
                }
                if src_busy.get(src.port.0, src.wavelength.0) {
                    problems.push(format!("source endpoint {src} double-claimed"));
                }
                src_busy.set(src.port.0, src.wavelength.0);
                for d in conn.destinations() {
                    if dst_busy.get(d.port.0, d.wavelength.0) {
                        problems.push(format!("destination endpoint {d} double-claimed"));
                    }
                    dst_busy.set(d.port.0, d.wavelength.0);
                }
                for b in &rc.branches {
                    let bit = 1u64 << b.input_wavelength;
                    let slot = &mut in_links[a as usize * m as usize + b.middle as usize];
                    if *slot & bit != 0 {
                        problems.push(format!(
                            "double-booked input link {a}→{} λ{}",
                            b.middle,
                            b.input_wavelength + 1
                        ));
                    }
                    *slot |= bit;
                    for leg in &b.legs {
                        let bit = 1u64 << leg.wavelength;
                        let slot = &mut mid_links
                            [b.middle as usize * r as usize + leg.out_module as usize];
                        if *slot & bit != 0 {
                            problems.push(format!(
                                "double-booked middle link {}→{} λ{}",
                                b.middle,
                                leg.out_module,
                                leg.wavelength + 1
                            ));
                        }
                        *slot |= bit;
                    }
                }
            }
        }
        let live_in: Vec<u64> = self
            .input_links
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        if live_in != in_links {
            problems.push("input link words out of sync".into());
        }
        let live_mid: Vec<u64> = self
            .middle_links
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        if live_mid != mid_links {
            problems.push("middle link words out of sync".into());
        }
        let mut free_in = BitRows::new(r * k, m);
        let mut not_full = BitRows::new(r, m);
        for a in 0..r {
            for j in 0..m {
                let mask = in_links[a as usize * m as usize + j as usize];
                for w in 0..k {
                    if mask & (1 << w) == 0 {
                        free_in.set(a * k + w, j);
                    }
                }
                if mask.count_ones() < k {
                    not_full.set(a, j);
                }
            }
        }
        if free_in != self.free_in.to_bitrows() {
            problems.push("free-wavelength middle masks out of sync".into());
        }
        if not_full != self.not_full.to_bitrows() {
            problems.push("not-full middle masks out of sync".into());
        }
        let mut live_middles = bitset::filled_words(m);
        for j in 0..m {
            if self.faults.middle_down(j) {
                bitset::clear_bit(&mut live_middles, j);
            }
        }
        if live_middles != bitset::load_words(&self.live_middles) {
            problems.push("live-middle mask out of sync with fault set".into());
        }
        let mut links_up = BitRows::filled(r, m);
        for a in 0..r {
            for j in 0..m {
                if self.faults.input_link_down(a, j) {
                    links_up.clear(a, j);
                }
            }
        }
        if links_up != self.links_up.to_bitrows() {
            problems.push("input-link-up mask out of sync with fault set".into());
        }
        if src_busy != self.src_busy.to_bitrows() {
            problems.push("source endpoint claims out of sync".into());
        }
        if dst_busy != self.dst_busy.to_bitrows() {
            problems.push("destination endpoint claims out of sync".into());
        }
        if total as u64 != self.active.load(Ordering::Acquire) {
            problems.push(format!(
                "active gauge {} ≠ routed count {total}",
                self.active.load(Ordering::Acquire)
            ));
        }
        let epoch = self.commit_epoch();
        if epoch.started != epoch.finished {
            problems.push(format!(
                "commit epoch unbalanced: started {} ≠ finished {}",
                epoch.started, epoch.finished
            ));
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

    fn msw_net() -> ConcurrentThreeStage {
        let p = ThreeStageParams::new(2, 4, 2, 2);
        ConcurrentThreeStage::new(p, Construction::MswDominant, MulticastModel::Msw)
    }

    #[test]
    fn routes_and_disconnects_like_serial() {
        let net = msw_net();
        let rc = net
            .connect_shared(&conn((0, 0), &[(1, 0), (2, 0), (3, 0)]))
            .unwrap();
        assert!(rc.middle_count() <= net.fanout_limit() as usize);
        assert_eq!(net.active_connections(), 1);
        assert!(net.check_consistency().is_empty());
        net.disconnect_shared(Endpoint::new(0, 0)).unwrap();
        assert_eq!(net.active_connections(), 0);
        assert!(net.check_consistency().is_empty());
        assert!(net
            .connect_shared(&conn((0, 0), &[(1, 0), (2, 0), (3, 0)]))
            .is_ok());
    }

    #[test]
    fn error_taxonomy_matches_serial_order() {
        let net = msw_net();
        net.connect_shared(&conn((0, 0), &[(1, 0)])).unwrap();
        assert!(matches!(
            net.connect_shared(&conn((1, 0), &[(1, 0)])),
            Err(RouteError::Assignment(AssignmentError::DestinationBusy(_)))
        ));
        assert!(matches!(
            net.connect_shared(&conn((0, 0), &[(2, 0)])),
            Err(RouteError::Assignment(AssignmentError::SourceBusy(_)))
        ));
        assert!(matches!(
            net.connect_shared(&conn((0, 1), &[(1, 0)])),
            Err(RouteError::Assignment(AssignmentError::ModelViolation(
                MulticastModel::Msw
            )))
        ));
        assert!(matches!(
            net.disconnect_shared(Endpoint::new(3, 1)),
            Err(RouteError::Assignment(AssignmentError::NoSuchConnection(_)))
        ));
        // Failed claims must have rolled back cleanly.
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn starved_network_blocks_via_coarse_path() {
        let p = ThreeStageParams::new(2, 1, 2, 1);
        let mut net = ConcurrentThreeStage::new(p, Construction::MswDominant, MulticastModel::Msw);
        net.set_fanout_limit(1);
        net.connect_shared(&conn((0, 0), &[(2, 0)])).unwrap();
        let err = net.connect_shared(&conn((1, 0), &[(3, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Blocked {
                available_middles: 0,
                ..
            }
        ));
        // The blocked request must have released its endpoint claims.
        net.disconnect_shared(Endpoint::new(0, 0)).unwrap();
        assert!(net.connect_shared(&conn((1, 0), &[(3, 0)])).is_ok());
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn fault_injection_and_component_down() {
        let mut net = msw_net();
        for j in 0..3 {
            assert!(net.inject_fault(Fault::MiddleSwitch(j)));
        }
        let rc = net.connect_shared(&conn((0, 0), &[(2, 0)])).unwrap();
        assert_eq!(rc.branches[0].middle, 3, "only live middle");
        net.inject_fault(Fault::MiddleSwitch(3));
        assert!(matches!(
            net.connect_shared(&conn((1, 1), &[(3, 1)])),
            Err(RouteError::ComponentDown(_))
        ));
        assert!(net.repair_fault(Fault::MiddleSwitch(0)));
        assert!(net.connect_shared(&conn((1, 1), &[(3, 1)])).is_ok());
        let hit = net.connections_through(&Fault::MiddleSwitch(3));
        assert_eq!(hit, vec![Endpoint::new(0, 0)]);
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn concurrent_churn_stays_consistent() {
        // 4 threads × different input modules hammer connect/disconnect;
        // every admission claim must resolve exclusively and the final
        // state must replay from the routed maps.
        let p = ThreeStageParams::new(4, 8, 4, 4);
        let net = std::sync::Arc::new(ConcurrentThreeStage::new(
            p,
            Construction::MswDominant,
            MulticastModel::Msw,
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|module| {
                let net = std::sync::Arc::clone(&net);
                std::thread::spawn(move || {
                    let (mut calls, mut admitted) = (0u64, 0u64);
                    for round in 0..50u32 {
                        for port in (module * 4)..(module * 4 + 4) {
                            let wl = (port + round) % 4;
                            let dest = (port * 7 + round) % 16;
                            let c = conn((port, wl), &[(dest, wl)]);
                            calls += 1;
                            if net.connect_shared(&c).is_ok() {
                                admitted += 1;
                                net.disconnect_shared(Endpoint::new(port, wl)).unwrap();
                            }
                        }
                    }
                    (calls, admitted)
                })
            })
            .collect();
        let (mut calls, mut admitted) = (0u64, 0u64);
        for h in handles {
            let (c, a) = h.join().unwrap();
            calls += c;
            admitted += a;
        }
        assert!(admitted > 0);
        assert_eq!(net.active_connections(), 0);
        assert!(net.check_consistency().is_empty());
        let epoch = net.commit_epoch();
        assert_eq!(epoch.started, epoch.finished);
        // One epoch per mutation — and one per lost CAS: `commit_single`
        // opens an epoch, rolls back inside it and retries, at most
        // `MAX_PROBE_ATTEMPTS` times a call, so under contention the
        // count is bounded, not exact.
        assert!(
            epoch.started >= 2 * admitted,
            "a mutation ran outside an epoch"
        );
        assert!(
            epoch.started <= 2 * admitted + u64::from(MAX_PROBE_ATTEMPTS) * calls,
            "{} epochs for {admitted} admissions in {calls} calls",
            epoch.started
        );
    }
}
