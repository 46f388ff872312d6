//! The graph backend: wavelength-major link occupancy (one packed row
//! of link bits per wavelength) ANDed with a cached live-link mask,
//! first-fit wavelength selection over light structures behind a cut
//! pre-check, node/link kill faults.

use crate::light::{validate_structure, Search, Splitting};
use crate::topology::Topology;
use std::collections::BTreeSet;
use std::fmt;
use wdm_core::bitset::{clear_bit, filled_words, BitRows, EndpointMap};
use wdm_core::{
    AssignmentError, Endpoint, Fault, FaultSet, MulticastAssignment, MulticastConnection,
    MulticastModel, NetworkConfig, Reject,
};

/// Why a graph admission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Endpoint bookkeeping refused the request (busy, out of range,
    /// model violation, unknown source).
    Assignment(AssignmentError),
    /// No wavelength carries a feasible light structure — the graph
    /// analog of middle-stage exhaustion.
    Blocked {
        /// Wavelengths the first-fit search considered — always `k`: one
        /// the cut pre-check ruled out without a search counts too.
        wavelengths_tried: u32,
    },
    /// An endpoint sits on a failed component.
    ComponentDown(Fault),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Assignment(e) => write!(f, "{e}"),
            GraphError::Blocked { wavelengths_tried } => write!(
                f,
                "no light structure on any of {wavelengths_tried} wavelength(s)"
            ),
            GraphError::ComponentDown(fault) => write!(f, "component down: {fault}"),
        }
    }
}

impl From<AssignmentError> for GraphError {
    fn from(e: AssignmentError) -> Self {
        GraphError::Assignment(e)
    }
}

impl From<GraphError> for Reject {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::Assignment(a) => Reject::from(a),
            GraphError::Blocked { wavelengths_tried } => Reject::Blocked {
                available_middles: 0,
                x_limit: wavelengths_tried,
            },
            GraphError::ComponentDown(fault) => Reject::ComponentDown(fault),
        }
    }
}

/// One admitted session's footprint: its wavelength and the directed
/// links its light structure occupies, in admission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRoute {
    /// The single transit wavelength the structure rides.
    pub wavelength: u32,
    /// Directed link ids, in the order the structure grew.
    pub links: Vec<u32>,
}

impl GraphRoute {
    /// Fiber hops the structure occupies.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// A graph-topology WDM multicast network.
///
/// Nodes host `ports_per_node` external ports each (port `p` lives on
/// node `p / ports_per_node`), links carry `k` wavelengths whose
/// occupancy lives in one packed-u64 [`BitRows`] row per wavelength, one
/// bit per directed link, ANDed with a live-link mask that fault
/// injection and repair refresh. Admission picks the first wavelength
/// (source's own first, then ascending) that passes the cut pre-check
/// and on which [`crate::build_structure`]'s search finds a light
/// tree/hierarchy to every destination node.
///
/// The fault vocabulary is reused from the switch backends:
/// [`Fault::MiddleSwitch`]`(v)` kills node `v` outright,
/// [`Fault::MiddleLink`]/[`Fault::InputLink`] sever the directed fiber
/// `middle→module` / `module→middle`, and [`Fault::Port`] kills one
/// external port. Converter-bank faults are recorded but route nothing
/// differently (conversion exists only at the edge and is not modeled
/// as failable).
#[derive(Debug, Clone)]
pub struct GraphNetwork {
    topo: Topology,
    ports_per_node: u32,
    splitting: Splitting,
    assignment: MulticastAssignment,
    /// Row λ, bit `l`: directed link `l` carries a session on λ.
    link_busy: BitRows,
    faults: FaultSet,
    /// Bit `l`: no fault on record touches link `l`. Derived from
    /// `faults`; re-derived by `check_consistency`.
    live_links: Vec<u64>,
    routes: EndpointMap<GraphRoute>,
    node_load: Vec<u64>,
    search: Search,
    dest_nodes: Vec<u32>,
}

impl GraphNetwork {
    /// Build a network over `topo` with `ports_per_node` external ports
    /// per node and `k` wavelengths per fiber.
    ///
    /// # Panics
    ///
    /// Panics when `ports_per_node` or `k` is zero.
    pub fn new(
        topo: Topology,
        ports_per_node: u32,
        k: u32,
        splitting: Splitting,
        model: MulticastModel,
    ) -> Self {
        assert!(ports_per_node >= 1, "each node needs at least one port");
        let net = NetworkConfig::new(topo.nodes() * ports_per_node, k);
        let node_load = vec![0; topo.nodes() as usize];
        GraphNetwork {
            link_busy: BitRows::new(k, topo.num_links()),
            assignment: MulticastAssignment::new(net, model),
            live_links: filled_words(topo.num_links()),
            search: Search::new(&topo, splitting),
            dest_nodes: Vec::new(),
            topo,
            ports_per_node,
            splitting,
            faults: FaultSet::new(),
            routes: EndpointMap::new(net),
            node_load,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// External ports per node.
    pub fn ports_per_node(&self) -> u32 {
        self.ports_per_node
    }

    /// Wavelengths per fiber.
    pub fn wavelengths(&self) -> u32 {
        self.assignment.network().wavelengths
    }

    /// The admission mode (tree-only vs hierarchy).
    pub fn splitting(&self) -> Splitting {
        self.splitting
    }

    /// Endpoint bookkeeping (who sources/receives what).
    pub fn assignment(&self) -> &MulticastAssignment {
        &self.assignment
    }

    /// The node hosting external port `p`.
    pub fn node_of(&self, port: u32) -> u32 {
        port / self.ports_per_node
    }

    /// Live session count.
    pub fn active_connections(&self) -> usize {
        self.routes.len()
    }

    /// Per-node count of link crossings by live structures (the gauge
    /// behind the engine's load sparkline).
    pub fn node_loads(&self) -> Vec<u64> {
        self.node_load.clone()
    }

    /// The footprint of the session sourced at `src`, if live.
    pub fn route_of(&self, src: Endpoint) -> Option<&GraphRoute> {
        self.routes.get(&src)
    }

    /// `(busy λ-slots, total λ-slots)` over all directed links.
    pub fn link_utilization(&self) -> (u32, u32) {
        (
            self.link_busy.count(),
            self.topo.num_links() * self.wavelengths(),
        )
    }

    fn node_down(&self, v: u32) -> bool {
        self.faults.middle_down(v)
    }

    fn link_down(&self, id: u32) -> bool {
        let (u, v) = self.topo.link(id);
        self.faults.middle_link_down(u, v)
            || self.faults.input_link_down(u, v)
            || self.node_down(u)
            || self.node_down(v)
    }

    /// The live-link mask the fault set implies.
    fn derive_live_links(&self) -> Vec<u64> {
        let mut live = filled_words(self.topo.num_links());
        for l in (0..self.topo.num_links()).filter(|&l| self.link_down(l)) {
            clear_bit(&mut live, l);
        }
        live
    }

    fn endpoint_fault(&self, ep: Endpoint) -> Option<Fault> {
        if self.faults.port_down(ep.port.0) {
            return Some(Fault::Port(ep.port.0));
        }
        let node = self.node_of(ep.port.0);
        if self.node_down(node) {
            return Some(Fault::MiddleSwitch(node));
        }
        None
    }

    /// Admit `conn`: pick the first wavelength carrying a feasible
    /// light structure to every destination node and occupy its links.
    pub fn connect(&mut self, conn: &MulticastConnection) -> Result<&GraphRoute, GraphError> {
        self.assignment.check(conn)?;
        if let Some(fault) = self.endpoint_fault(conn.source()) {
            return Err(GraphError::ComponentDown(fault));
        }
        for &d in conn.destinations() {
            if let Some(fault) = self.endpoint_fault(d) {
                return Err(GraphError::ComponentDown(fault));
            }
        }

        let src_node = self.node_of(conn.source().port.0);
        self.dest_nodes.clear();
        for d in conn.destinations() {
            self.dest_nodes.push(d.port.0 / self.ports_per_node);
        }

        // First fit over wavelengths, the source's own first — edge
        // converters retune add/drop, transit is continuity-bound.
        let k = self.wavelengths();
        let src_wl = conn.source().wavelength.0;
        let candidates = std::iter::once(src_wl).chain((0..k).filter(|&w| w != src_wl));
        for wl in candidates {
            // Free on λ for the whole fabric, in one pass over words.
            let free = self.link_busy.row(wl).iter().zip(&self.live_links);
            let free = free.map(|(busy, live)| !busy & live);
            let feasible = self
                .search
                .grow(&self.topo, src_node, &self.dest_nodes, free);
            if let Some(links) = feasible {
                self.assignment
                    .add(conn.clone())
                    .expect("assignment was pre-checked");
                for &l in links {
                    self.link_busy.set(wl, l);
                    let (_, to) = self.topo.link(l);
                    self.node_load[to as usize] += 1;
                }
                self.node_load[src_node as usize] += 1;
                let route = GraphRoute {
                    wavelength: wl,
                    links: links.to_vec(),
                };
                self.routes.insert(conn.source(), route);
                return Ok(&self.routes[&conn.source()]);
            }
        }
        Err(GraphError::Blocked {
            wavelengths_tried: k,
        })
    }

    /// Tear down the session sourced at `src`, freeing its links.
    pub fn disconnect(&mut self, src: Endpoint) -> Result<GraphRoute, GraphError> {
        let route = self.routes.remove(&src).ok_or(GraphError::Assignment(
            AssignmentError::NoSuchConnection(src),
        ))?;
        self.assignment
            .remove(src)
            .expect("route table and assignment agree");
        for &l in &route.links {
            self.link_busy.clear(route.wavelength, l);
            let (_, to) = self.topo.link(l);
            self.node_load[to as usize] -= 1;
        }
        let src_node = self.node_of(src.port.0);
        self.node_load[src_node as usize] -= 1;
        Ok(route)
    }

    /// Record `fault` failed. Returns `true` when newly failed; the
    /// caller (the runtime's `Backend` impl) evicts the victims
    /// reported by [`GraphNetwork::connections_through`].
    pub fn inject_fault(&mut self, fault: Fault) -> bool {
        let newly = self.faults.fail(fault);
        self.live_links = self.derive_live_links();
        newly
    }

    /// Record `fault` repaired; `true` if it was failed before.
    pub fn repair_fault(&mut self, fault: Fault) -> bool {
        let was_failed = self.faults.repair(fault);
        self.live_links = self.derive_live_links();
        was_failed
    }

    /// The currently failed components.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Sources of the live sessions whose structure or endpoints touch
    /// the failed component.
    pub fn connections_through(&self, fault: &Fault) -> Vec<Endpoint> {
        let hit = |src: &Endpoint, route: &GraphRoute| -> bool {
            match *fault {
                Fault::MiddleSwitch(v) => {
                    self.node_of(src.port.0) == v
                        || route.links.iter().any(|&l| {
                            let (a, b) = self.topo.link(l);
                            a == v || b == v
                        })
                        || self.dest_on_node(*src, v)
                }
                Fault::MiddleLink { middle, module } => self
                    .topo
                    .link_id(middle, module)
                    .is_some_and(|id| route.links.contains(&id)),
                Fault::InputLink { module, middle } => self
                    .topo
                    .link_id(module, middle)
                    .is_some_and(|id| route.links.contains(&id)),
                Fault::Port(p) => {
                    src.port.0 == p
                        || self
                            .assignment
                            .connection_at(*src)
                            .is_some_and(|c| c.destinations().iter().any(|d| d.port.0 == p))
                }
                Fault::InputConverters(_)
                | Fault::MiddleConverters(_)
                | Fault::OutputConverters(_) => false,
            }
        };
        self.routes
            .iter()
            .filter(|(src, route)| hit(src, route))
            .map(|(src, _)| *src)
            .collect()
    }

    fn dest_on_node(&self, src: Endpoint, v: u32) -> bool {
        self.assignment
            .connection_at(src)
            .is_some_and(|c| c.destinations().iter().any(|d| self.node_of(d.port.0) == v))
    }

    /// Deep-verify internal consistency: the occupancy matrix must
    /// re-derive exactly from the live routes, every route must be a
    /// valid light structure for its session, and the route table must
    /// mirror the assignment. Returns human-readable findings (empty =
    /// consistent).
    pub fn check_consistency(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut rebuilt = BitRows::new(self.wavelengths(), self.topo.num_links());
        let mut load = vec![0u64; self.topo.nodes() as usize];
        for (src, route) in &self.routes {
            let conn = match self.assignment.connection_at(*src) {
                Some(c) => c,
                None => {
                    findings.push(format!("route at {src} has no assignment entry"));
                    continue;
                }
            };
            let mut seen = BTreeSet::new();
            for &l in &route.links {
                if !seen.insert(l) {
                    findings.push(format!("route at {src} reuses link {l}"));
                }
                if rebuilt.get(route.wavelength, l) {
                    findings.push(format!(
                        "link {l} λ{} double-booked (second owner {src})",
                        route.wavelength
                    ));
                }
                rebuilt.set(route.wavelength, l);
                let (_, to) = self.topo.link(l);
                load[to as usize] += 1;
            }
            let src_node = self.node_of(src.port.0);
            load[src_node as usize] += 1;
            let dest_nodes: BTreeSet<u32> = conn
                .destinations()
                .iter()
                .map(|d| self.node_of(d.port.0))
                .collect();
            if let Err(e) =
                validate_structure(&self.topo, src_node, &dest_nodes, &seen, self.splitting)
            {
                findings.push(format!("route at {src} is not a valid structure: {e}"));
            }
        }
        for l in 0..self.topo.num_links() {
            for wl in 0..self.wavelengths() {
                if self.link_busy.get(wl, l) != rebuilt.get(wl, l) {
                    findings.push(format!(
                        "link {l} λ{wl}: occupancy {} but routes say {}",
                        self.link_busy.get(wl, l),
                        rebuilt.get(wl, l)
                    ));
                }
            }
        }
        let live = self.derive_live_links();
        if live != self.live_links {
            findings.push(format!(
                "live-link mask {:x?} but the fault set says {live:x?}",
                self.live_links
            ));
        }
        if load != self.node_load {
            findings.push(format!(
                "node loads {:?} disagree with routes {load:?}",
                self.node_load
            ));
        }
        if self.routes.len() != self.assignment.len() {
            findings.push(format!(
                "{} routes vs {} assignment entries",
                self.routes.len(),
                self.assignment.len()
            ));
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::light::reference_build_structure;
    use crate::topology::GraphTopology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wdm_core::bitset::test_bit;

    fn conn(src: (u32, u32), dsts: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dsts.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    fn ring(nodes: u32, ports: u32, k: u32) -> GraphNetwork {
        GraphNetwork::new(
            GraphTopology::Ring { nodes }.build(),
            ports,
            k,
            Splitting::Hierarchy,
            MulticastModel::Msw,
        )
    }

    #[test]
    fn connect_disconnect_roundtrip() {
        let mut net = ring(4, 2, 2);
        let c = conn((0, 0), &[(2, 0), (5, 0)]);
        let route = net.connect(&c).unwrap().clone();
        assert_eq!(route.wavelength, 0);
        assert!(route.hops() >= 2, "two distinct non-source nodes");
        assert_eq!(net.active_connections(), 1);
        assert!(net.check_consistency().is_empty());
        let back = net.disconnect(c.source()).unwrap();
        assert_eq!(back, route);
        assert_eq!(net.active_connections(), 0);
        assert_eq!(net.link_utilization().0, 0);
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn local_delivery_uses_no_links() {
        let mut net = ring(4, 2, 1);
        let c = conn((0, 0), &[(1, 0)]);
        let route = net.connect(&c).unwrap();
        assert_eq!(route.hops(), 0, "same node, no fiber crossed");
        assert_eq!(net.link_utilization().0, 0);
    }

    #[test]
    fn wavelength_first_fit_spills() {
        // n=1 port per node, k=2: two same-direction broadcasts from the
        // same... distinct nodes on λ0 collide on ring links; the second
        // spills to λ1.
        let mut net = ring(3, 1, 2);
        net.connect(&conn((0, 0), &[(1, 0), (2, 0)])).unwrap();
        let r2 = net.connect(&conn((1, 1), &[(0, 1), (2, 1)])).unwrap();
        assert_eq!(r2.wavelength, 1, "λ0 exhausted on some needed link");
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn exhausted_wavelengths_block() {
        let mut net = ring(2, 2, 1);
        // One λ, two nodes, links 0→1 and 1→0. Consume 0→1.
        net.connect(&conn((0, 0), &[(2, 0)])).unwrap();
        // Second session from the other port of node 0 needs 0→1 too.
        let r = net.connect(&conn((1, 0), &[(3, 0)]));
        assert!(matches!(r, Err(GraphError::Blocked { .. })), "{r:?}");
        let rej = Reject::from(r.unwrap_err());
        assert!(matches!(rej, Reject::Blocked { .. }));
    }

    #[test]
    fn busy_endpoints_are_busy_not_blocked() {
        let mut net = ring(3, 1, 1);
        let c = conn((0, 0), &[(1, 0)]);
        net.connect(&c).unwrap();
        let again = conn((0, 0), &[(2, 0)]);
        assert!(matches!(
            net.connect(&again),
            Err(GraphError::Assignment(AssignmentError::SourceBusy(_)))
        ));
        assert!(matches!(
            net.disconnect(Endpoint::new(2, 0)),
            Err(GraphError::Assignment(AssignmentError::NoSuchConnection(_)))
        ));
    }

    #[test]
    fn node_kill_evicts_and_blocks_then_heals() {
        let mut net = ring(4, 1, 2);
        let through = conn((0, 0), &[(2, 0)]); // crosses node 1 or 3
        net.connect(&through).unwrap();
        let dead = net.route_of(through.source()).unwrap().links[0];
        let (_, transit) = net.topo.link(dead);
        assert!(net.inject_fault(Fault::MiddleSwitch(transit)));
        let victims = net.connections_through(&Fault::MiddleSwitch(transit));
        assert_eq!(victims, vec![through.source()]);
        net.disconnect(through.source()).unwrap();
        // A session sourced on the dead node is refused as ComponentDown.
        let from_dead = conn((transit, 0), &[(0, 0)]);
        assert!(matches!(
            net.connect(&from_dead),
            Err(GraphError::ComponentDown(_))
        ));
        // The ring routes around the dead node the other way.
        let rerouted = net.connect(&through).unwrap().clone();
        assert!(rerouted.links.iter().all(|&l| {
            let (a, b) = net.topo.link(l);
            a != transit && b != transit
        }));
        net.disconnect(through.source()).unwrap();
        assert!(net.repair_fault(Fault::MiddleSwitch(transit)));
        assert!(net.connect(&from_dead).is_ok());
        assert!(net.check_consistency().is_empty());
    }

    #[test]
    fn link_kill_severs_one_direction() {
        let mut net = ring(2, 1, 1);
        assert!(net.inject_fault(Fault::MiddleLink {
            middle: 0,
            module: 1
        }));
        // 0→1 is dead, 1→0 is alive.
        let r = net.connect(&conn((0, 0), &[(1, 0)]));
        assert!(matches!(r, Err(GraphError::Blocked { .. })), "{r:?}");
        assert!(net.connect(&conn((1, 0), &[(0, 0)])).is_ok());
    }

    #[test]
    fn port_kill_is_component_down() {
        let mut net = ring(3, 2, 1);
        net.inject_fault(Fault::Port(3));
        assert!(matches!(
            net.connect(&conn((3, 0), &[(0, 0)])),
            Err(GraphError::ComponentDown(Fault::Port(3)))
        ));
        assert!(matches!(
            net.connect(&conn((0, 0), &[(3, 0)])),
            Err(GraphError::ComponentDown(Fault::Port(3)))
        ));
        // Transit through the node hosting the dead port still works.
        assert!(net.connect(&conn((0, 0), &[(4, 0)])).is_ok());
    }

    #[test]
    fn tree_only_mode_is_enforced_end_to_end() {
        // Spider with an MI hub, one port per node: tree-only blocks the
        // two-leaf multicast, hierarchy admits it.
        let mut topo =
            Topology::from_links(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]).unwrap();
        topo.set_mc_every(0);
        let req = conn((1, 0), &[(2, 0), (3, 0)]);
        let mut tree =
            GraphNetwork::new(topo.clone(), 1, 1, Splitting::TreeOnly, MulticastModel::Msw);
        assert!(matches!(
            tree.connect(&req),
            Err(GraphError::Blocked { .. })
        ));
        let mut hier = GraphNetwork::new(topo, 1, 1, Splitting::Hierarchy, MulticastModel::Msw);
        let route = hier.connect(&req).unwrap();
        assert_eq!(route.hops(), 4);
        assert!(hier.check_consistency().is_empty());
    }

    /// What `connect` routed before the mask-driven search, on `net`'s
    /// current state: first fit over wavelengths through the reference,
    /// no pre-check, one bit test and four set look-ups per probed link.
    fn reference_route(net: &GraphNetwork, conn: &MulticastConnection) -> Option<GraphRoute> {
        let src_node = net.node_of(conn.source().port.0);
        let dest_nodes: BTreeSet<u32> = conn
            .destinations()
            .iter()
            .map(|d| net.node_of(d.port.0))
            .collect();
        let src_wl = conn.source().wavelength.0;
        std::iter::once(src_wl)
            .chain((0..net.wavelengths()).filter(|&w| w != src_wl))
            .find_map(|wavelength| {
                reference_build_structure(&net.topo, src_node, &dest_nodes, net.splitting, |l| {
                    !net.link_busy.get(wavelength, l) && !net.link_down(l)
                })
                .map(|links| GraphRoute { wavelength, links })
            })
    }

    /// A fanout-3 MSW request with 60 % of its destinations on node 0.
    fn hotspot_request(rng: &mut StdRng, net: &GraphNetwork) -> MulticastConnection {
        let ports = net.topo.nodes() * net.ports_per_node;
        let wl = rng.gen_range(0..net.wavelengths());
        let mut dests = BTreeSet::new();
        while dests.len() < 3 {
            let hot = rng.gen_bool(0.6);
            dests.insert(rng.gen_range(0..if hot { net.ports_per_node } else { ports }));
        }
        conn(
            (rng.gen_range(0..ports), wl),
            &dests.into_iter().map(|p| (p, wl)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn hotspot_churn_routes_exactly_as_the_reference_router() {
        // ring(16), a splitter on every other node, k = 4: the benchmark's
        // graph shape, plus a fault that comes and goes every 500 steps.
        for splitting in [Splitting::Hierarchy, Splitting::TreeOnly] {
            let topo = GraphTopology::Ring { nodes: 16 }.build().with_mc_every(2);
            let mut net = GraphNetwork::new(topo, 4, 4, splitting, MulticastModel::Msw);
            let mut rng = StdRng::seed_from_u64(0xC0FFEE);
            let mut live: Vec<Endpoint> = Vec::new();
            let (mut admitted, mut blocked) = (0u32, 0u32);
            for step in 0..5_000u32 {
                if live.len() >= 7 {
                    let src = live.swap_remove(rng.gen_range(0..live.len()));
                    net.disconnect(src).unwrap();
                }
                let fault = Fault::MiddleSwitch(1 + step / 500);
                match step % 500 {
                    100 => assert!(net.inject_fault(fault)),
                    300 => assert!(net.repair_fault(fault)),
                    _ => {}
                }
                let req = hotspot_request(&mut rng, &net);
                let expected = reference_route(&net, &req);
                match net.connect(&req) {
                    Ok(route) => {
                        assert_eq!(Some(route), expected.as_ref(), "step {step}: {req}");
                        assert_eq!(net.route_of(req.source()), expected.as_ref());
                        live.push(req.source());
                        admitted += 1;
                    }
                    Err(GraphError::Blocked { wavelengths_tried }) => {
                        assert_eq!(expected, None, "step {step}: {req} blocked");
                        assert_eq!(wavelengths_tried, 4, "considered, not searched");
                        blocked += 1;
                    }
                    // Busy endpoints and dead components never reach the router.
                    Err(_) => {}
                }
                if step % 250 == 0 {
                    assert_eq!(net.check_consistency(), Vec::<String>::new());
                }
            }
            assert!(admitted > 1_000 && blocked > 100, "{admitted} / {blocked}");
            assert_eq!(net.check_consistency(), Vec::<String>::new());
        }
    }

    fn random_fault(rng: &mut StdRng, net: &GraphNetwork) -> Fault {
        // Ids run past the topology on purpose: a fault naming a
        // component the graph lacks is recorded and severs nothing.
        let kind = rng.gen_range(0..7u32);
        let mut id = || rng.gen_range(0..net.topo.nodes() + 2);
        match kind {
            0 => Fault::MiddleSwitch(id()),
            1 => Fault::MiddleLink {
                middle: id(),
                module: id(),
            },
            2 => Fault::InputLink {
                module: id(),
                middle: id(),
            },
            3 => Fault::Port(id()),
            4 => Fault::InputConverters(id()),
            5 => Fault::MiddleConverters(id()),
            _ => Fault::OutputConverters(id()),
        }
    }

    #[test]
    fn live_link_mask_tracks_the_fault_set_through_inject_and_repair() {
        let fresh = GraphNetwork::new(
            GraphTopology::Torus { rows: 3, cols: 3 }
                .build()
                .with_mc_every(2),
            4,
            2,
            Splitting::Hierarchy,
            MulticastModel::Msw,
        );
        let mut net = fresh.clone();
        let mut rng = StdRng::seed_from_u64(0xFA17);
        for step in 0..1_000 {
            // Duplicates and repairs of never-failed components included.
            let fault = random_fault(&mut rng, &net);
            let before = net.live_links.clone();
            let was_failed = net.faults.contains(&fault);
            if rng.gen_bool(0.5) {
                assert_eq!(net.inject_fault(fault), !was_failed);
            } else {
                assert_eq!(net.repair_fault(fault), was_failed);
            }
            let severs_links = matches!(
                fault,
                Fault::MiddleSwitch(_) | Fault::MiddleLink { .. } | Fault::InputLink { .. }
            );
            assert!(severs_links || net.live_links == before, "{fault} moved it");
            for l in 0..net.topo.num_links() {
                let live = test_bit(&net.live_links, l);
                assert_eq!(live, !net.link_down(l), "step {step}: link {l}");
            }
            assert_eq!(net.check_consistency(), Vec::<String>::new());
        }
        assert!(
            net.live_links != fresh.live_links,
            "the storm severed nothing"
        );

        // A cache that goes stale is a finding.
        let mut stale = net.clone();
        stale.live_links = fresh.live_links.clone();
        assert!(stale.check_consistency()[0].starts_with("live-link mask"));

        // Fully repaired, the network routes like one never faulted.
        for fault in net.faults.iter().copied().collect::<Vec<_>>() {
            assert!(net.repair_fault(fault));
        }
        assert!(net.faults.is_empty());
        let mut fresh = fresh;
        let mut live: Vec<Endpoint> = Vec::new();
        let mut admitted = 0;
        for _ in 0..300 {
            if live.len() >= 5 {
                let src = live.remove(0);
                assert_eq!(net.disconnect(src), fresh.disconnect(src));
            }
            let req = hotspot_request(&mut rng, &fresh);
            let routed = fresh.connect(&req).cloned();
            assert_eq!(net.connect(&req).cloned(), routed);
            if routed.is_ok() {
                live.push(req.source());
                admitted += 1;
            }
        }
        assert!(admitted > 30, "{admitted} admissions compare too little");
    }
}
