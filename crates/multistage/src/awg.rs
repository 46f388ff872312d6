//! AWG-based wavelength-routed Clos networks.
//!
//! The paper's three-stage constructions (Fig. 8) switch actively in all
//! three stages. Ye & Lee's AWG-based Clos networks replace the middle
//! stage with **arrayed waveguide gratings** — passive devices that
//! route by wavelength alone: a signal entering input port `a` of an
//! `r×r` AWG on channel `c` exits output port `(a + c) mod r`, and the
//! device's *free spectral range* (FSR) makes channels `c` and `c + r`
//! route identically. Middle-stage crosspoints drop to zero; the price
//! is tunable wavelength converters (TWCs) at the module edges, which
//! pick each connection's channel and therefore its path.
//!
//! Geometry reuses [`ThreeStageParams`] `(n, m, r, k)`: `r` input
//! modules of `n` ports, `m` parallel `r×r` AWGs, one fiber per
//! (module, AWG) pair carrying `k` channels.
//!
//! **Routing rule.** A leg from input module `a` to output module `b`
//! must ride a channel of *class* `d = (b − a) mod r`; the replicas of
//! class `d` among the usable channels (`usable = min(k, r·fsr_orders)`)
//! are `d, d + r, d + 2r, …`. Channel `(j, c)` on the fiber pair
//! `a→j→b` is **private to the module pair** `(a, b)`: a different
//! target module needs a different class on `a→j`, and a different
//! source module delivers a different class onto `j→b`. The network
//! therefore decomposes into independent per-pair channel pools of size
//! `m·⌊usable/r⌋`. A module exposes `n·k` endpoints (each of its `n`
//! ports carries `k` wavelengths), so up to `n·k` simultaneous
//! connections can demand the same pair — the whole endpoint population
//! of one module aimed at one neighbour. The network is **strictly
//! nonblocking** — under any routing order, first-fit included — iff
//! `m ≥ ⌈n·k / ⌊usable/r⌋⌉` ([`min_middles`]). The passive middle
//! stage is free of crosspoints but pays for it in fan-out: the bound
//! is `≥ n·r` gratings, a factor `≈ k/⌊usable/r⌋` more middles than the
//! switched construction. When `usable < r` some module pairs are
//! unreachable outright and no `m` helps.
//!
//! Occupancy is tracked with the same packed-`u64` idiom as
//! [`ThreeStageNetwork`](crate::ThreeStageNetwork): per-channel
//! free-AWG rows on both fiber stages, a live-AWG word, and link-up
//! rows, so the admission probe is one multi-way AND per candidate
//! channel.

use crate::network::RouteError;
use crate::ThreeStageParams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wdm_core::bitset::{self, BitRows, EndpointMap};
use wdm_core::{
    AssignmentError, Endpoint, Fault, FaultSet, MulticastAssignment, MulticastConnection,
    MulticastModel,
};

/// One `r×r` arrayed waveguide grating: a passive cyclic
/// λ-permutation router with `fsr_orders` usable FSR periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwgDevice {
    /// Port count per side (`r` in the Clos composition).
    pub ports: u32,
    /// How many FSR periods of the grating are usable: channels
    /// `0 .. ports·fsr_orders` pass; higher channels fall outside the
    /// device's engineered band.
    pub fsr_orders: u32,
}

impl AwgDevice {
    /// A `ports×ports` AWG passing `fsr_orders` FSR periods.
    pub fn new(ports: u32, fsr_orders: u32) -> Self {
        assert!(ports > 0, "AWG must have at least one port");
        assert!(fsr_orders > 0, "AWG must pass at least one FSR period");
        AwgDevice { ports, fsr_orders }
    }

    /// Channels the device passes: `ports · fsr_orders`.
    pub fn usable_channels(&self) -> u32 {
        self.ports * self.fsr_orders
    }

    /// The cyclic λ-permutation: a signal entering `input` on `channel`
    /// exits `(input + channel) mod ports`. `None` when the input port
    /// or channel is outside the device.
    pub fn route(&self, input: u32, channel: u32) -> Option<u32> {
        (input < self.ports && channel < self.usable_channels())
            .then(|| (input + channel) % self.ports)
    }

    /// The channel's routing class — its residue mod `ports`. FSR
    /// periodicity: channels of equal class route identically.
    pub fn channel_class(&self, channel: u32) -> u32 {
        channel % self.ports
    }
}

/// Where the tunable converter banks sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConverterPlacement {
    /// TWCs at the input-module egress only. Cheapest, but the routed
    /// channel *is* the delivered wavelength, so a leg can only reach
    /// destinations whose wavelength equals the channel — the
    /// wavelength dictates the path.
    Ingress,
    /// TWCs at the input-module egress *and* the output-module ingress:
    /// any channel of the right class reaches any destination
    /// wavelength. This is the placement the nonblocking analysis
    /// assumes.
    IngressEgress,
}

impl core::fmt::Display for ConverterPlacement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConverterPlacement::Ingress => write!(f, "ingress"),
            ConverterPlacement::IngressEgress => write!(f, "ingress+egress"),
        }
    }
}

/// The strictly nonblocking AWG middle-stage bound:
/// `m ≥ ⌈n·k / ⌊min(k, r·fsr_orders) / r⌋⌉` — each module pair owns a
/// private pool of `m·⌊usable/r⌋` channels and up to `n·k` endpoint
/// connections can demand one pair. `None` when fewer than `r` channels
/// are usable (some module pairs are then unreachable and no amount of
/// middle hardware helps).
pub fn min_middles(n: u32, r: u32, k: u32, fsr_orders: u32) -> Option<u32> {
    let usable = k.min(r.saturating_mul(fsr_orders));
    match usable / r {
        0 => None,
        q => Some((n * k).div_ceil(q)),
    }
}

/// One routed leg: the AWG traversed, the channel that steers it, and
/// the destinations delivered in the target output module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwgLeg {
    /// AWG (middle-stage) index.
    pub middle: u32,
    /// Channel occupied on both fibers `a→middle` and `middle→b`.
    pub channel: u32,
    /// Output module reached (determined by the channel's class).
    pub out_module: u32,
    /// Destination endpoints delivered inside that output module.
    pub dests: Vec<Endpoint>,
}

/// The realized route of one multicast connection: one leg per
/// requested output module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwgRoute {
    /// Source input endpoint.
    pub source: Endpoint,
    /// Legs, one per output module (distinct channel classes, so legs
    /// never contend with each other).
    pub legs: Vec<AwgLeg>,
}

/// A three-stage Clos whose middle stage is `m` passive `r×r` AWGs,
/// with live routing state.
#[derive(Debug, Clone)]
pub struct AwgClosNetwork {
    params: ThreeStageParams,
    awg: AwgDevice,
    placement: ConverterPlacement,
    output_model: MulticastModel,
    /// Channels actually usable end to end: `min(k, r·fsr_orders)`.
    usable: u32,
    /// Busy-channel bitmask per input-module→AWG fiber: `[r][m]`.
    input_links: Vec<Vec<u64>>,
    /// Busy-channel bitmask per AWG→output-module fiber: `[m][r]`.
    output_links: Vec<Vec<u64>>,
    /// Free-AWG mask per `(input module, channel)` — row `a·k + c`,
    /// bit `j` set iff channel `c` is free on the fiber `a→j`.
    free_in: BitRows,
    /// Free-AWG mask per `(output module, channel)` — row `b·k + c`,
    /// bit `j` set iff channel `c` is free on the fiber `j→b`.
    free_out: BitRows,
    /// Bit `j` set iff AWG `j` is not failed.
    live_awgs: Vec<u64>,
    /// Bit `j` of row `a` set iff the fiber `a→j` is not severed.
    in_links_up: BitRows,
    /// Bit `j` of row `b` set iff the fiber `j→b` is not severed.
    out_links_up: BitRows,
    /// Legs currently traversing each AWG.
    loads: Vec<u64>,
    /// Endpoint-level bookkeeping and model enforcement.
    assignment: MulticastAssignment,
    routed: EndpointMap<AwgRoute>,
    /// Failed components the router must skip.
    faults: FaultSet,
}

impl AwgClosNetwork {
    /// Create an idle network. `params.m` is taken as given — compare it
    /// against [`min_middles`] to know whether the fabric is provisioned
    /// at the strictly nonblocking bound.
    pub fn new(
        params: ThreeStageParams,
        fsr_orders: u32,
        placement: ConverterPlacement,
        output_model: MulticastModel,
    ) -> Self {
        assert!(params.k <= 64, "channel masks are u64-backed (k ≤ 64)");
        let awg = AwgDevice::new(params.r, fsr_orders);
        let usable = params.k.min(awg.usable_channels());
        AwgClosNetwork {
            params,
            awg,
            placement,
            output_model,
            usable,
            input_links: vec![vec![0; params.m as usize]; params.r as usize],
            output_links: vec![vec![0; params.r as usize]; params.m as usize],
            free_in: BitRows::filled(params.r * params.k, params.m),
            free_out: BitRows::filled(params.r * params.k, params.m),
            live_awgs: bitset::filled_words(params.m),
            in_links_up: BitRows::filled(params.r, params.m),
            out_links_up: BitRows::filled(params.r, params.m),
            loads: vec![0; params.m as usize],
            assignment: MulticastAssignment::new(params.network(), output_model),
            routed: EndpointMap::new(params.network()),
            faults: FaultSet::new(),
        }
    }

    /// A network provisioned exactly at the strictly nonblocking bound,
    /// with enough FSR periods to use all `k` channels and converters at
    /// both edges.
    ///
    /// Panics when `k < r` (no FSR order can make fewer than `r`
    /// channels reach every output module).
    pub fn at_bound(n: u32, r: u32, k: u32, output_model: MulticastModel) -> Self {
        let fsr_orders = k.div_ceil(r).max(1);
        let m = min_middles(n, r, k, fsr_orders)
            .expect("AWG-Clos needs k ≥ r so every module pair is reachable");
        AwgClosNetwork::new(
            ThreeStageParams::new(n, m, r, k),
            fsr_orders,
            ConverterPlacement::IngressEgress,
            output_model,
        )
    }

    /// The geometry.
    pub fn params(&self) -> ThreeStageParams {
        self.params
    }

    /// The middle-stage device.
    pub fn device(&self) -> AwgDevice {
        self.awg
    }

    /// Where the converter banks sit.
    pub fn placement(&self) -> ConverterPlacement {
        self.placement
    }

    /// The output-stage multicast model (governs which requests are
    /// legal, exactly as in the switching backends).
    pub fn output_model(&self) -> MulticastModel {
        self.output_model
    }

    /// Channels usable end to end: `min(k, r·fsr_orders)`.
    pub fn usable_channels(&self) -> u32 {
        self.usable
    }

    /// The channel class a leg from input module `a` to output module
    /// `b` must ride: `(b − a) mod r`.
    pub fn class_of_pair(&self, a: u32, b: u32) -> u32 {
        (b + self.params.r - a % self.params.r) % self.params.r
    }

    /// Number of active connections.
    pub fn active_connections(&self) -> usize {
        self.routed.len()
    }

    /// The routed form of the connection sourced at `src`, if any.
    pub fn route_of(&self, src: Endpoint) -> Option<&AwgRoute> {
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

    /// Legs currently traversing each AWG.
    pub fn middle_loads(&self) -> Vec<u64> {
        self.loads.clone()
    }

    /// Packed mask of the AWGs on which channel `c` is free on *both*
    /// fibers `a→j` and `j→b`, with the AWG alive and both fibers
    /// unsevered — the admission probe, one multi-way AND over the
    /// incrementally maintained words.
    pub fn available_awgs_mask(&self, a: u32, b: u32, c: u32) -> Vec<u64> {
        self.free_in
            .row(a * self.params.k + c)
            .iter()
            .zip(self.free_out.row(b * self.params.k + c))
            .zip(&self.live_awgs)
            .zip(self.in_links_up.row(a))
            .zip(self.out_links_up.row(b))
            .map(|((((&fi, &fo), &live), &il), &ol)| fi & fo & live & il & ol)
            .collect()
    }

    /// AWGs structurally reachable for the module pair `(a, b)` —
    /// alive with both fibers up, ignoring channel occupancy. Sizes the
    /// `Blocked` diagnostics.
    fn reachable_awgs(&self, a: u32, b: u32) -> usize {
        self.live_awgs
            .iter()
            .zip(self.in_links_up.row(a))
            .zip(self.out_links_up.row(b))
            .map(|((&live, &il), &ol)| (live & il & ol).count_ones() as usize)
            .sum()
    }

    /// Mark `fault` failed. Returns `true` if it was healthy before.
    /// Routing-table view only; live traffic through the component is
    /// the caller's to heal (see [`Self::connections_through`]).
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
    /// [`Fault::MiddleSwitch`] is a dead AWG; link faults sever fibers.
    /// Converter-bank faults constrain channel choice, not AWG
    /// availability, and [`Fault::MiddleConverters`] names hardware a
    /// passive AWG does not have — both leave the masks untouched.
    fn apply_fault_to_masks(&mut self, fault: Fault, up: bool) {
        match fault {
            Fault::MiddleSwitch(j) if j < self.params.m => {
                if up {
                    bitset::set_bit(&mut self.live_awgs, j);
                } else {
                    bitset::clear_bit(&mut self.live_awgs, j);
                }
            }
            Fault::InputLink { module, middle }
                if module < self.params.r && middle < self.params.m =>
            {
                if up {
                    self.in_links_up.set(module, middle);
                } else {
                    self.in_links_up.clear(module, middle);
                }
            }
            Fault::MiddleLink { middle, module }
                if middle < self.params.m && module < self.params.r =>
            {
                if up {
                    self.out_links_up.set(module, middle);
                } else {
                    self.out_links_up.clear(module, middle);
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
            .filter(|(src, route)| self.route_uses(src, route, fault))
            .map(|(&src, _)| src)
            .collect()
    }

    fn route_uses(&self, src: &Endpoint, route: &AwgRoute, fault: &Fault) -> bool {
        let (a, _) = self.params.input_module_of(src.port.0);
        match *fault {
            Fault::MiddleSwitch(j) => route.legs.iter().any(|l| l.middle == j),
            Fault::InputLink { module, middle } => {
                a == module && route.legs.iter().any(|l| l.middle == middle)
            }
            Fault::MiddleLink { middle, module } => route
                .legs
                .iter()
                .any(|l| l.middle == middle && l.out_module == module),
            // The ingress bank converted iff the routed channel differs
            // from the source wavelength.
            Fault::InputConverters(am) => {
                a == am && route.legs.iter().any(|l| l.channel != src.wavelength.0)
            }
            // Passive AWGs carry no converters.
            Fault::MiddleConverters(_) => false,
            Fault::OutputConverters(b) => route
                .legs
                .iter()
                .any(|l| l.out_module == b && l.dests.iter().any(|d| d.wavelength.0 != l.channel)),
            Fault::Port(p) => {
                src.port.0 == p
                    || route
                        .legs
                        .iter()
                        .any(|l| l.dests.iter().any(|d| d.port.0 == p))
            }
        }
    }

    /// A fault that makes `conn` categorically unroutable: a dead
    /// endpoint port, or a module structurally cut off from the middle
    /// stage. (Dark converter banks are judged channel by channel during
    /// planning — they are categorical only when they pin the leg to a
    /// channel of the wrong class.)
    fn component_down(&self, conn: &MulticastConnection) -> Option<Fault> {
        let src = conn.source();
        if self.faults.port_down(src.port.0) {
            return Some(Fault::Port(src.port.0));
        }
        for d in conn.destinations() {
            if self.faults.port_down(d.port.0) {
                return Some(Fault::Port(d.port.0));
            }
        }
        if self.faults.is_empty() {
            return None;
        }
        let (a, _) = self.params.input_module_of(src.port.0);
        let cut = |j: u32| self.faults.middle_down(j) || self.faults.input_link_down(a, j);
        if (0..self.params.m).all(cut) {
            let j = (0..self.params.m)
                .find(|&j| self.faults.middle_down(j))
                .unwrap_or(0);
            return Some(if self.faults.middle_down(j) {
                Fault::MiddleSwitch(j)
            } else {
                Fault::InputLink {
                    module: a,
                    middle: j,
                }
            });
        }
        for d in conn.destinations() {
            let (b, _) = self.params.output_module_of(d.port.0);
            let cut = |j: u32| self.faults.middle_down(j) || self.faults.middle_link_down(j, b);
            if (0..self.params.m).all(cut) {
                let j = (0..self.params.m)
                    .find(|&j| self.faults.middle_down(j))
                    .unwrap_or(0);
                return Some(if self.faults.middle_down(j) {
                    Fault::MiddleSwitch(j)
                } else {
                    Fault::MiddleLink {
                        middle: j,
                        module: b,
                    }
                });
            }
        }
        None
    }

    /// Plan the leg serving output module `b`: the first (channel, AWG)
    /// pair — candidates ascending by channel, first-fit by AWG — whose
    /// channel has the right class, survives the converter constraints,
    /// and is free on both fibers.
    fn plan_leg(
        &self,
        a: u32,
        b: u32,
        src_wl: u32,
        dests: &[Endpoint],
    ) -> Result<(u32, u32), RouteError> {
        let d = self.class_of_pair(a, b);
        let blocked = || RouteError::Blocked {
            available_middles: self.reachable_awgs(a, b),
            x_limit: self.params.r,
        };
        // Replicas of class d inside the usable band (FSR periodicity).
        let mut candidates: Vec<u32> = (d..self.usable).step_by(self.params.r as usize).collect();
        if candidates.is_empty() {
            // usable < r: the pair is unreachable by construction.
            return Err(RouteError::Blocked {
                available_middles: 0,
                x_limit: self.params.r,
            });
        }
        // Ingress-only placement: the channel is the delivered
        // wavelength, so it must equal every destination wavelength.
        if self.placement == ConverterPlacement::Ingress {
            candidates.retain(|&c| dests.iter().all(|dd| dd.wavelength.0 == c));
            if candidates.is_empty() {
                return Err(blocked());
            }
        }
        // A dark ingress bank pins the channel to the source wavelength;
        // the wrong class is then categorical.
        if self.faults.input_converters_down(a) {
            candidates.retain(|&c| c == src_wl);
            if candidates.is_empty() {
                return Err(RouteError::ComponentDown(Fault::InputConverters(a)));
            }
        }
        // A dark egress bank pins delivery to the bare channel.
        if self.faults.output_converters_down(b) {
            candidates.retain(|&c| dests.iter().all(|dd| dd.wavelength.0 == c));
            if candidates.is_empty() {
                return Err(RouteError::ComponentDown(Fault::OutputConverters(b)));
            }
        }
        for c in candidates {
            debug_assert_eq!(self.awg.route(a, c), Some(b), "class arithmetic");
            let mask = self.available_awgs_mask(a, b, c);
            if let Some(j) = bitset::ones(&mask).next() {
                return Ok((j, c));
            }
        }
        Err(blocked())
    }

    /// Try to route `conn`. On success the connection is committed and
    /// its realized route returned.
    ///
    /// Legs to distinct output modules ride distinct channel classes, so
    /// they never contend with each other: the route is planned leg by
    /// leg with no rollback and committed atomically.
    pub fn connect(&mut self, conn: &MulticastConnection) -> Result<&AwgRoute, RouteError> {
        self.assignment.check(conn)?;
        if let Some(fault) = self.component_down(conn) {
            return Err(RouteError::ComponentDown(fault));
        }
        let src = conn.source();
        let (a, _) = self.params.input_module_of(src.port.0);

        // Group destinations by output module.
        let mut by_module: BTreeMap<u32, Vec<Endpoint>> = BTreeMap::new();
        for &d in conn.destinations() {
            let (b, _) = self.params.output_module_of(d.port.0);
            by_module.entry(b).or_default().push(d);
        }

        let mut plan: Vec<(u32, u32, u32)> = Vec::with_capacity(by_module.len());
        for (&b, dests) in &by_module {
            let (j, c) = self.plan_leg(a, b, src.wavelength.0, dests)?;
            plan.push((j, c, b));
        }

        // Commit.
        let mut legs = Vec::with_capacity(plan.len());
        for (j, c, b) in plan {
            self.occupy_channel(a, j, b, c);
            self.loads[j as usize] += 1;
            legs.push(AwgLeg {
                middle: j,
                channel: c,
                out_module: b,
                dests: by_module[&b].clone(),
            });
        }
        self.assignment
            .add(conn.clone())
            .expect("checked before routing");
        self.routed.insert(src, AwgRoute { source: src, legs });
        Ok(&self.routed[&src])
    }

    /// Tear down the connection sourced at `src`, freeing every channel
    /// it occupied.
    pub fn disconnect(&mut self, src: Endpoint) -> Result<AwgRoute, RouteError> {
        let route = self.routed.remove(&src).ok_or(RouteError::Assignment(
            AssignmentError::NoSuchConnection(src),
        ))?;
        let (a, _) = self.params.input_module_of(src.port.0);
        for leg in &route.legs {
            self.release_channel(a, leg.middle, leg.out_module, leg.channel);
            self.loads[leg.middle as usize] -= 1;
        }
        self.assignment
            .remove(src)
            .expect("routed connection is in the assignment");
        Ok(route)
    }

    /// Mark channel `c` busy on both fibers `a→j` and `j→b`, keeping the
    /// packed masks in sync.
    fn occupy_channel(&mut self, a: u32, j: u32, b: u32, c: u32) {
        self.input_links[a as usize][j as usize] |= 1 << c;
        self.output_links[j as usize][b as usize] |= 1 << c;
        self.free_in.clear(a * self.params.k + c, j);
        self.free_out.clear(b * self.params.k + c, j);
    }

    /// Free channel `c` on both fibers `a→j` and `j→b`.
    fn release_channel(&mut self, a: u32, j: u32, b: u32, c: u32) {
        self.input_links[a as usize][j as usize] &= !(1 << c);
        self.output_links[j as usize][b as usize] &= !(1 << c);
        self.free_in.set(a * self.params.k + c, j);
        self.free_out.set(b * self.params.k + c, j);
    }

    /// Recompute every occupancy mask from the routed connections and
    /// compare with the live state. Returns violations (empty =
    /// consistent). Also re-checks each leg against the AWG permutation.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut in_links = vec![vec![0u64; self.params.m as usize]; self.params.r as usize];
        let mut out_links = vec![vec![0u64; self.params.r as usize]; self.params.m as usize];
        let mut loads = vec![0u64; self.params.m as usize];
        for (src, route) in &self.routed {
            let (a, _) = self.params.input_module_of(src.port.0);
            for leg in &route.legs {
                if self.awg.route(a, leg.channel) != Some(leg.out_module) {
                    problems.push(format!(
                        "leg {a}→{}→{} rides channel {} of the wrong class",
                        leg.middle, leg.out_module, leg.channel
                    ));
                }
                let bit = 1u64 << leg.channel;
                if in_links[a as usize][leg.middle as usize] & bit != 0 {
                    problems.push(format!(
                        "double-booked input fiber {a}→{} channel {}",
                        leg.middle, leg.channel
                    ));
                }
                in_links[a as usize][leg.middle as usize] |= bit;
                if out_links[leg.middle as usize][leg.out_module as usize] & bit != 0 {
                    problems.push(format!(
                        "double-booked output fiber {}→{} channel {}",
                        leg.middle, leg.out_module, leg.channel
                    ));
                }
                out_links[leg.middle as usize][leg.out_module as usize] |= bit;
                loads[leg.middle as usize] += 1;
            }
        }
        if in_links != self.input_links {
            problems.push("input fiber masks out of sync".into());
        }
        if out_links != self.output_links {
            problems.push("output fiber masks out of sync".into());
        }
        if loads != self.loads {
            problems.push("AWG load counters out of sync".into());
        }
        let mut free_in = BitRows::new(self.params.r * self.params.k, self.params.m);
        let mut free_out = BitRows::new(self.params.r * self.params.k, self.params.m);
        for a in 0..self.params.r {
            for j in 0..self.params.m {
                for c in 0..self.params.k {
                    if in_links[a as usize][j as usize] & (1 << c) == 0 {
                        free_in.set(a * self.params.k + c, j);
                    }
                    if out_links[j as usize][a as usize] & (1 << c) == 0 {
                        free_out.set(a * self.params.k + c, j);
                    }
                }
            }
        }
        if free_in != self.free_in {
            problems.push("free-channel input masks out of sync".into());
        }
        if free_out != self.free_out {
            problems.push("free-channel output masks out of sync".into());
        }
        let mut live = bitset::filled_words(self.params.m);
        for j in 0..self.params.m {
            if self.faults.middle_down(j) {
                bitset::clear_bit(&mut live, j);
            }
        }
        if live != self.live_awgs {
            problems.push("live-AWG mask out of sync with fault set".into());
        }
        let mut in_up = BitRows::filled(self.params.r, self.params.m);
        let mut out_up = BitRows::filled(self.params.r, self.params.m);
        for a in 0..self.params.r {
            for j in 0..self.params.m {
                if self.faults.input_link_down(a, j) {
                    in_up.clear(a, j);
                }
                if self.faults.middle_link_down(j, a) {
                    out_up.clear(a, j);
                }
            }
        }
        if in_up != self.in_links_up {
            problems.push("input-fiber-up mask out of sync with fault set".into());
        }
        if out_up != self.out_links_up {
            problems.push("output-fiber-up mask out of sync with fault set".into());
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

    /// n=2, r=4, k=4 → N=8, usable=4, one replica per class, bound
    /// m = n·k = 8.
    fn awg_net() -> AwgClosNetwork {
        AwgClosNetwork::at_bound(2, 4, 4, MulticastModel::Maw)
    }

    #[test]
    fn device_routes_cyclically() {
        let dev = AwgDevice::new(4, 1);
        for a in 0..4 {
            for c in 0..4 {
                assert_eq!(dev.route(a, c), Some((a + c) % 4));
            }
        }
        assert_eq!(dev.route(0, 4), None, "channel outside one FSR");
        assert_eq!(dev.route(4, 0), None, "port outside the device");
    }

    #[test]
    fn fsr_periodicity_repeats_the_permutation() {
        let dev = AwgDevice::new(4, 2);
        assert_eq!(dev.usable_channels(), 8);
        for a in 0..4 {
            for c in 0..4 {
                assert_eq!(dev.route(a, c), dev.route(a, c + 4), "FSR period");
                assert_eq!(dev.channel_class(c), dev.channel_class(c + 4));
            }
        }
        assert_eq!(dev.route(0, 8), None);
    }

    #[test]
    fn min_middles_formula() {
        // Demand per pair is n·k endpoints; one replica per class → m = n·k.
        assert_eq!(min_middles(2, 4, 4, 1), Some(8));
        assert_eq!(min_middles(4, 4, 4, 1), Some(16));
        // Two replicas per class halve the middle count.
        assert_eq!(min_middles(4, 4, 8, 2), Some(16));
        assert_eq!(min_middles(2, 4, 8, 2), Some(8));
        assert_eq!(min_middles(2, 4, 2, 1), None, "k < r is infeasible");
        assert_eq!(
            min_middles(2, 4, 2, 8),
            None,
            "FSR cannot add channels past k"
        );
        assert_eq!(min_middles(1, 1, 1, 1), Some(1));
    }

    #[test]
    fn leg_rides_the_class_of_its_module_pair() {
        let mut net = awg_net();
        // Source port 1 (module 0) → dest port 5 (module 2): class 2.
        let route = net.connect(&conn((1, 0), &[(5, 1)])).unwrap().clone();
        assert_eq!(route.legs.len(), 1);
        assert_eq!(route.legs[0].out_module, 2);
        assert_eq!(route.legs[0].channel, 2, "single replica of class 2");
        assert_eq!(net.device().route(0, route.legs[0].channel), Some(2));
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn full_load_at_bound_never_blocks() {
        // Adversarial worst case: all n·k = 8 endpoints of input module
        // 0 multicast to every output module at once, soaking each pair
        // pool (0, b) to exactly m·⌊usable/r⌋ = 8 channels. The bound is
        // tight and first-fit must admit everything.
        let mut net = awg_net();
        for i in 0..8u32 {
            let (port, wl) = (i / 4, i % 4);
            let dests: Vec<(u32, u32)> = (0..4).map(|b| (2 * b + port, wl)).collect();
            net.connect(&conn((port, wl), &dests))
                .unwrap_or_else(|e| panic!("endpoint {i} blocked at the bound: {e}"));
        }
        assert_eq!(net.active_connections(), 8);
        assert!(net.check_consistency().is_empty());
        // Loads: 8 connections × 4 legs over 8 AWGs, pools exactly full.
        assert_eq!(net.middle_loads().iter().sum::<u64>(), 32);
        for i in 0..8u32 {
            net.disconnect(Endpoint::new(i / 4, i % 4)).unwrap();
        }
        assert_eq!(net.active_connections(), 0);
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn below_bound_blocks() {
        // m=1 < bound 8: the pair pool (module 0 → module 0) holds one
        // channel, so the second same-pair connection hard-blocks.
        let p = ThreeStageParams::new(2, 1, 4, 4);
        let mut net =
            AwgClosNetwork::new(p, 1, ConverterPlacement::IngressEgress, MulticastModel::Maw);
        net.connect(&conn((0, 0), &[(0, 1)])).unwrap();
        let err = net.connect(&conn((1, 1), &[(1, 0)])).unwrap_err();
        assert!(
            matches!(
                err,
                RouteError::Blocked {
                    available_middles: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn infeasible_class_blocks_with_zero_available() {
        // k=2 < r=4: classes 2 and 3 have no usable replica.
        let p = ThreeStageParams::new(2, 4, 4, 2);
        let mut net =
            AwgClosNetwork::new(p, 1, ConverterPlacement::IngressEgress, MulticastModel::Maw);
        // Module 0 → module 2 needs class 2 — structurally unreachable.
        let err = net.connect(&conn((0, 0), &[(4, 0)])).unwrap_err();
        assert!(
            matches!(
                err,
                RouteError::Blocked {
                    available_middles: 0,
                    ..
                }
            ),
            "{err}"
        );
        // Module 0 → module 1 rides class 1, which exists.
        assert!(net.connect(&conn((0, 0), &[(2, 0)])).is_ok());
    }

    #[test]
    fn ingress_placement_pins_path_to_wavelength() {
        // Without egress converters the delivered wavelength IS the
        // channel, so a source can only reach the module its wavelength
        // points at.
        let p = ThreeStageParams::new(2, 2, 4, 4);
        let mut net = AwgClosNetwork::new(p, 1, ConverterPlacement::Ingress, MulticastModel::Maw);
        // λ2 from module 0 reaches module 2 (class(2) = 2)...
        let route = net.connect(&conn((0, 2), &[(4, 2)])).unwrap().clone();
        assert_eq!(route.legs[0].channel, 2);
        // ...but module 1 would need class 1 ≠ λ2: blocked by placement.
        let err = net.connect(&conn((1, 2), &[(3, 2)])).unwrap_err();
        assert!(matches!(err, RouteError::Blocked { .. }), "{err}");
    }

    #[test]
    fn spare_margin_survives_a_dead_awg() {
        // m = bound + 1 = 9: kill any one AWG and the full bound-tight
        // load still routes (Clos sparing carries over).
        for dead in 0..9u32 {
            let p = ThreeStageParams::new(2, 9, 4, 4);
            let mut net =
                AwgClosNetwork::new(p, 1, ConverterPlacement::IngressEgress, MulticastModel::Maw);
            assert!(net.inject_fault(Fault::MiddleSwitch(dead)));
            for i in 0..8u32 {
                let (port, wl) = (i / 4, i % 4);
                let dests: Vec<(u32, u32)> = (0..4).map(|b| (2 * b + port, wl)).collect();
                let route = net.connect(&conn((port, wl), &dests)).unwrap().clone();
                assert!(route.legs.iter().all(|l| l.middle != dead));
            }
            assert!(net.check_consistency().is_empty());
        }
    }

    #[test]
    fn all_awgs_dead_is_component_down() {
        let mut net = awg_net();
        for j in 0..8 {
            net.inject_fault(Fault::MiddleSwitch(j));
        }
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(
            matches!(err, RouteError::ComponentDown(Fault::MiddleSwitch(_))),
            "{err}"
        );
        assert!(net.repair_fault(Fault::MiddleSwitch(5)));
        assert!(net.connect(&conn((0, 0), &[(2, 0)])).is_ok());
    }

    #[test]
    fn severed_fibers_are_skipped_then_component_down() {
        let mut net = awg_net();
        net.inject_fault(Fault::InputLink {
            module: 0,
            middle: 0,
        });
        let route = net.connect(&conn((0, 0), &[(2, 0)])).unwrap().clone();
        assert_eq!(route.legs[0].middle, 1, "severed fiber skipped");
        net.disconnect(Endpoint::new(0, 0)).unwrap();
        // Sever every output fiber into module 1: the pair is cut.
        for j in 0..8 {
            net.inject_fault(Fault::MiddleLink {
                middle: j,
                module: 1,
            });
        }
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(
            matches!(err, RouteError::ComponentDown(Fault::MiddleLink { .. })),
            "{err}"
        );
        // Other module pairs are unaffected.
        assert!(net.connect(&conn((0, 0), &[(4, 0)])).is_ok());
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn dark_ingress_bank_pins_channel_to_source_wavelength() {
        let mut net = awg_net();
        net.inject_fault(Fault::InputConverters(0));
        // λ2 from module 0: class(2)=2 → module 2 still works, channel 2.
        let route = net.connect(&conn((0, 2), &[(4, 2)])).unwrap().clone();
        assert_eq!(route.legs[0].channel, 2);
        // Module 1 needs class 1 ≠ λ2: categorical, not capacity.
        let err = net.connect(&conn((1, 2), &[(3, 2)])).unwrap_err();
        assert!(
            matches!(err, RouteError::ComponentDown(Fault::InputConverters(0))),
            "{err}"
        );
        // Other input modules are unaffected.
        assert!(net.connect(&conn((2, 2), &[(5, 2)])).is_ok());
    }

    #[test]
    fn dark_egress_bank_pins_delivery_to_bare_channel() {
        let mut net = awg_net();
        net.inject_fault(Fault::OutputConverters(2));
        // Module 0 → module 2 rides channel 2; a λ2 destination still
        // works without the egress bank.
        assert!(net.connect(&conn((0, 2), &[(4, 2)])).is_ok());
        // A λ0 destination in module 2 needs the dead bank.
        let err = net.connect(&conn((2, 0), &[(5, 0)])).unwrap_err();
        assert!(
            matches!(err, RouteError::ComponentDown(Fault::OutputConverters(2))),
            "{err}"
        );
        // Other output modules convert freely.
        assert!(net.connect(&conn((2, 0), &[(7, 0)])).is_ok());
    }

    #[test]
    fn connections_through_finds_traversing_traffic() {
        let mut net = awg_net();
        let route = net
            .connect(&conn((0, 0), &[(2, 0), (4, 0)]))
            .unwrap()
            .clone();
        net.connect(&conn((2, 1), &[(6, 1)])).unwrap();
        let j = route.legs[0].middle;
        assert!(net
            .connections_through(&Fault::MiddleSwitch(j))
            .contains(&Endpoint::new(0, 0)));
        assert_eq!(
            net.connections_through(&Fault::Port(4)),
            vec![Endpoint::new(0, 0)]
        );
        // Egress conversion happened wherever channel ≠ dest λ.
        let converted = net.connections_through(&Fault::OutputConverters(1));
        assert!(converted.contains(&Endpoint::new(0, 0)), "channel 1 ≠ λ0");
        // A passive AWG has no converter bank to lose.
        assert!(net
            .connections_through(&Fault::MiddleConverters(j))
            .is_empty());
    }

    #[test]
    fn disconnect_unknown_source_errors() {
        let mut net = awg_net();
        let err = net.disconnect(Endpoint::new(0, 0)).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::NoSuchConnection(_))
        ));
    }

    #[test]
    fn endpoint_conflicts_rejected_before_routing() {
        let mut net = awg_net();
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        let err = net.connect(&conn((1, 1), &[(2, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::DestinationBusy(_))
        ));
        let err = net.connect(&conn((0, 0), &[(4, 0)])).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Assignment(AssignmentError::SourceBusy(_))
        ));
    }

    #[test]
    fn dead_port_is_component_down() {
        let mut net = awg_net();
        net.inject_fault(Fault::Port(2));
        let err = net.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(matches!(err, RouteError::ComponentDown(Fault::Port(2))));
        assert!(net.connect(&conn((0, 0), &[(3, 0)])).is_ok());
    }

    #[test]
    fn fsr_orders_extend_a_narrow_band_device() {
        // k=8 channels over r=4 ports needs fsr_orders=2; the second
        // period's channels route like the first's, halving the bound
        // relative to one period (m = 16/2 = 8 instead of 16).
        let net = AwgClosNetwork::at_bound(2, 4, 8, MulticastModel::Maw);
        assert_eq!(net.device().fsr_orders, 2);
        assert_eq!(net.usable_channels(), 8);
        assert_eq!(net.params().m, 8, "two replicas per class halve m");
        // Pin a single AWG so the second same-pair connection is forced
        // onto the second FSR replica of its class.
        let mut net = AwgClosNetwork::new(
            ThreeStageParams::new(2, 1, 4, 8),
            2,
            ConverterPlacement::IngressEgress,
            MulticastModel::Maw,
        );
        // Both replicas of class 2 (channels 2 and 6) serve 0→2.
        net.connect(&conn((0, 0), &[(4, 0)])).unwrap();
        let route = net.connect(&conn((1, 1), &[(5, 1)])).unwrap().clone();
        assert_eq!(route.legs[0].channel, 6, "second FSR replica");
        assert!(net.check_consistency().is_empty());
    }
}
