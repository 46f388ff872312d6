//! Multicast assignments: conflict-free sets of connections.

use crate::bitset::{BitRows, EndpointMap};
use crate::{AssignmentError, Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
use core::fmt;

/// A set of multicast connections with no shared source endpoint and no
/// shared destination endpoint (paper §2), maintained under a fixed
/// network size and multicast model.
///
/// Occupancy of both sides is tracked as packed per-port wavelength
/// masks ([`BitRows`]): conflict-checking a connection is `O(fanout)`
/// single-bit probes, and routing layers can AND whole port masks at
/// once via [`input_port_mask`](Self::input_port_mask) /
/// [`output_port_mask`](Self::output_port_mask). Connections and output
/// owners live in dense per-endpoint tables: `fanout + 1` slot writes.
///
/// ```
/// use wdm_core::{MulticastAssignment, MulticastConnection, Endpoint,
///                MulticastModel, NetworkConfig};
/// let net = NetworkConfig::new(4, 2);
/// let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
/// asg.add(MulticastConnection::new(
///     Endpoint::new(0, 0),
///     [Endpoint::new(1, 0), Endpoint::new(2, 0)],
/// ).unwrap()).unwrap();
/// assert_eq!(asg.len(), 1);
/// assert!(!asg.is_full());
/// assert_eq!(asg.input_port_mask(0), &[0b01]); // λ0 busy on input port 0
/// ```
#[derive(Debug, Clone)]
pub struct MulticastAssignment {
    net: NetworkConfig,
    model: MulticastModel,
    /// Connections keyed by source endpoint (each sources at most one).
    connections: EndpointMap<MulticastConnection>,
    /// Busy-wavelength mask per input port.
    input_busy: BitRows,
    /// Busy-wavelength mask per output port.
    output_busy: BitRows,
    /// Per output endpoint (flat index), the flat index of the source
    /// of the connection using it, or [`NO_OWNER`].
    output_owner: Vec<u32>,
    used_outputs: usize,
}

/// `output_owner` sentinel for a free output endpoint.
const NO_OWNER: u32 = u32::MAX;

impl MulticastAssignment {
    /// Empty assignment for the given network and model.
    pub fn new(net: NetworkConfig, model: MulticastModel) -> Self {
        MulticastAssignment {
            net,
            model,
            connections: EndpointMap::new(net),
            input_busy: BitRows::new(net.ports, net.wavelengths),
            output_busy: BitRows::new(net.ports, net.wavelengths),
            output_owner: vec![NO_OWNER; net.endpoints_per_side() as usize],
            used_outputs: 0,
        }
    }

    /// The network frame.
    pub fn network(&self) -> NetworkConfig {
        self.net
    }

    /// The multicast model enforced on every connection.
    pub fn model(&self) -> MulticastModel {
        self.model
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// `true` iff there are no connections.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Iterate connections in source-endpoint order.
    pub fn connections(&self) -> impl Iterator<Item = &MulticastConnection> {
        self.connections.values()
    }

    /// The connection sourced at `src`, if any.
    pub fn connection_at(&self, src: Endpoint) -> Option<&MulticastConnection> {
        self.connections.get(&src)
    }

    /// The connection (by source endpoint) currently using output `ep`.
    pub fn output_user(&self, ep: Endpoint) -> Option<Endpoint> {
        let k = self.net.wavelengths;
        let owner = self.output_owner[self.net.contains(ep).then(|| ep.flat_index(k))?];
        (owner != NO_OWNER).then(|| Endpoint::from_flat_index(owner as usize, k))
    }

    /// `true` iff input endpoint `ep` already sources a connection.
    pub fn input_busy(&self, ep: Endpoint) -> bool {
        self.input_busy.get(ep.port.0, ep.wavelength.0)
    }

    /// `true` iff output endpoint `ep` carries a connection.
    pub fn output_busy(&self, ep: Endpoint) -> bool {
        self.output_busy.get(ep.port.0, ep.wavelength.0)
    }

    /// Packed busy-wavelength mask of input port `port` (bit `w` set iff
    /// `(port, λw)` sources a connection).
    pub fn input_port_mask(&self, port: u32) -> &[u64] {
        self.input_busy.row(port)
    }

    /// Packed busy-wavelength mask of output port `port`.
    pub fn output_port_mask(&self, port: u32) -> &[u64] {
        self.output_busy.row(port)
    }

    /// Check whether `conn` could be added without mutating the state.
    pub fn check(&self, conn: &MulticastConnection) -> Result<(), AssignmentError> {
        let src = conn.source();
        if !self.net.contains(src) {
            return Err(AssignmentError::OutOfRange(src));
        }
        if !self.model.allows(conn) {
            return Err(AssignmentError::ModelViolation(self.model));
        }
        if self.input_busy.get(src.port.0, src.wavelength.0) {
            return Err(AssignmentError::SourceBusy(src));
        }
        for &d in conn.destinations() {
            if !self.net.contains(d) {
                return Err(AssignmentError::OutOfRange(d));
            }
            if self.output_busy.get(d.port.0, d.wavelength.0) {
                return Err(AssignmentError::DestinationBusy(d));
            }
        }
        Ok(())
    }

    /// Add a connection, rejecting conflicts and model violations.
    pub fn add(&mut self, conn: MulticastConnection) -> Result<(), AssignmentError> {
        self.check(&conn)?;
        self.add_checked(conn);
        Ok(())
    }

    /// Add a connection that [`check`](Self::check) has accepted against
    /// the current state, without checking it again — for a caller that
    /// checks before doing its own work and commits after. Debug builds
    /// re-run the check.
    pub fn add_checked(&mut self, conn: MulticastConnection) {
        debug_assert_eq!(
            self.check(&conn),
            Ok(()),
            "add_checked of an unchecked connection"
        );
        let src = conn.source();
        let k = self.net.wavelengths;
        self.input_busy.set(src.port.0, src.wavelength.0);
        for &d in conn.destinations() {
            self.output_busy.set(d.port.0, d.wavelength.0);
            self.output_owner[d.flat_index(k)] = src.flat_index(k) as u32;
        }
        self.used_outputs += conn.fanout();
        self.connections.insert(src, conn);
    }

    /// Remove the connection sourced at `src`, returning it.
    pub fn remove(&mut self, src: Endpoint) -> Result<MulticastConnection, AssignmentError> {
        let conn = self
            .connections
            .remove(&src)
            .ok_or(AssignmentError::NoSuchConnection(src))?;
        self.input_busy.clear(src.port.0, src.wavelength.0);
        for &d in conn.destinations() {
            self.output_busy.clear(d.port.0, d.wavelength.0);
            self.output_owner[d.flat_index(self.net.wavelengths)] = NO_OWNER;
        }
        self.used_outputs -= conn.fanout();
        Ok(conn)
    }

    /// Number of output endpoints currently in use.
    pub fn used_output_endpoints(&self) -> usize {
        self.used_outputs
    }

    /// A *full* multicast assignment uses every output endpoint; no new
    /// connection can be added to it (paper §2: "maximal set of multicast
    /// connections"). Anything else is *partial*; both are
    /// *any*-multicast-assignments.
    pub fn is_full(&self) -> bool {
        self.used_outputs == self.net.endpoints_per_side() as usize
    }

    /// `true` iff no further connection can be added under the model.
    ///
    /// For all three models this coincides with [`is_full`](Self::is_full)
    /// (see the `maximality` tests and the paper's §2.2 counting, which
    /// treats "full" and "maximal" interchangeably); the exhaustive check
    /// is retained for validating exactly that equivalence.
    pub fn is_maximal(&self) -> bool {
        // Try every free output endpoint against every free input endpoint.
        for out_ep in self.net.endpoints() {
            if self.output_busy.get(out_ep.port.0, out_ep.wavelength.0) {
                continue;
            }
            for in_ep in self.net.endpoints() {
                if self.input_busy.get(in_ep.port.0, in_ep.wavelength.0) {
                    continue;
                }
                let conn = MulticastConnection::unicast(in_ep, out_ep);
                if self.model.allows(&conn) {
                    return false;
                }
            }
        }
        true
    }

    /// Total converter demand of the current connections under the model
    /// (Fig. 3 placement).
    pub fn converter_demand(&self) -> u64 {
        self.connections
            .values()
            .map(|c| self.model.converters_per_connection(c.fanout() as u64))
            .sum()
    }
}

impl serde::Serialize for MulticastAssignment {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("MulticastAssignment", 3)?;
        s.serialize_field("net", &self.net)?;
        s.serialize_field("model", &self.model)?;
        let conns: Vec<&MulticastConnection> = self.connections().collect();
        s.serialize_field("connections", &conns)?;
        s.end()
    }
}

impl<'de> serde::Deserialize<'de> for MulticastAssignment {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            net: NetworkConfig,
            model: MulticastModel,
            connections: Vec<MulticastConnection>,
        }
        let repr = Repr::deserialize(deserializer)?;
        let mut asg = MulticastAssignment::new(repr.net, repr.model);
        for conn in repr.connections {
            asg.add(conn).map_err(serde::de::Error::custom)?;
        }
        Ok(asg)
    }
}

impl fmt::Display for MulticastAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} assignment on {} ({} connections):",
            self.model,
            self.net,
            self.len()
        )?;
        for c in self.connections.values() {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkConfig {
        NetworkConfig::new(3, 2)
    }

    fn conn(src: (u32, u32), dests: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dests.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    #[test]
    fn add_and_remove_roundtrip() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        let c = conn((0, 0), &[(1, 1), (2, 0)]);
        asg.add(c.clone()).unwrap();
        assert_eq!(asg.len(), 1);
        assert_eq!(asg.used_output_endpoints(), 2);
        assert!(asg.input_busy(Endpoint::new(0, 0)));
        assert_eq!(
            asg.output_user(Endpoint::new(1, 1)),
            Some(Endpoint::new(0, 0))
        );
        let back = asg.remove(Endpoint::new(0, 0)).unwrap();
        assert_eq!(back, c);
        assert!(asg.is_empty());
        assert_eq!(asg.used_output_endpoints(), 0);
        assert!(!asg.input_busy(Endpoint::new(0, 0)));
    }

    #[test]
    fn rejects_source_conflict() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        asg.add(conn((0, 0), &[(1, 0)])).unwrap();
        let err = asg.add(conn((0, 0), &[(2, 0)])).unwrap_err();
        assert_eq!(err, AssignmentError::SourceBusy(Endpoint::new(0, 0)));
    }

    #[test]
    fn rejects_destination_conflict() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        asg.add(conn((0, 0), &[(1, 0)])).unwrap();
        let err = asg.add(conn((1, 0), &[(1, 0)])).unwrap_err();
        assert_eq!(err, AssignmentError::DestinationBusy(Endpoint::new(1, 0)));
    }

    #[test]
    fn same_port_different_wavelengths_coexist() {
        // The WDM feature: one node in several connections at once.
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Msw);
        asg.add(conn((0, 0), &[(1, 0)])).unwrap();
        asg.add(conn((0, 1), &[(1, 1)])).unwrap();
        assert_eq!(asg.len(), 2);
    }

    #[test]
    fn enforces_model() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Msw);
        let err = asg.add(conn((0, 0), &[(1, 1)])).unwrap_err();
        assert_eq!(err, AssignmentError::ModelViolation(MulticastModel::Msw));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        let err = asg.add(conn((0, 0), &[(5, 0)])).unwrap_err();
        assert_eq!(err, AssignmentError::OutOfRange(Endpoint::new(5, 0)));
        let err = asg.add(conn((7, 0), &[(1, 0)])).unwrap_err();
        assert_eq!(err, AssignmentError::OutOfRange(Endpoint::new(7, 0)));
    }

    #[test]
    fn remove_missing_connection() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        let err = asg.remove(Endpoint::new(0, 0)).unwrap_err();
        assert_eq!(err, AssignmentError::NoSuchConnection(Endpoint::new(0, 0)));
    }

    #[test]
    fn full_detection() {
        // 3 ports × 2 λ: fill all 6 outputs with two fanout-3 connections.
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Msw);
        asg.add(conn((0, 0), &[(0, 0), (1, 0), (2, 0)])).unwrap();
        assert!(!asg.is_full());
        asg.add(conn((0, 1), &[(0, 1), (1, 1), (2, 1)])).unwrap();
        assert!(asg.is_full());
        assert!(asg.is_maximal());
    }

    #[test]
    fn maximality_equals_fullness_on_small_networks() {
        // Random greedy fills: when no unicast can be added, every output
        // endpoint must be used (the paper treats full == maximal).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for model in MulticastModel::ALL {
            for _ in 0..20 {
                let net = NetworkConfig::new(3, 2);
                let mut asg = MulticastAssignment::new(net, model);
                // Random insertion attempts until nothing fits.
                for _ in 0..200 {
                    let src = Endpoint::new(rng.gen_range(0..3), rng.gen_range(0..2));
                    let n_dest = rng.gen_range(1..=3);
                    let mut dests = Vec::new();
                    for p in 0..3u32 {
                        if dests.len() < n_dest && rng.gen_bool(0.7) {
                            let w = if model == MulticastModel::Msw {
                                src.wavelength.0
                            } else {
                                rng.gen_range(0..2)
                            };
                            dests.push(Endpoint::new(p, w));
                        }
                    }
                    if dests.is_empty() {
                        continue;
                    }
                    if let Ok(c) = MulticastConnection::new(src, dests) {
                        let _ = asg.add(c);
                    }
                }
                assert_eq!(asg.is_maximal(), asg.is_full(), "model {model}");
            }
        }
    }

    #[test]
    fn port_masks_track_occupancy() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        asg.add(conn((0, 1), &[(1, 0), (2, 1)])).unwrap();
        assert_eq!(asg.input_port_mask(0), &[0b10]);
        assert_eq!(asg.input_port_mask(1), &[0b00]);
        assert_eq!(asg.output_port_mask(1), &[0b01]);
        assert_eq!(asg.output_port_mask(2), &[0b10]);
        assert!(asg.output_busy(Endpoint::new(1, 0)));
        assert!(!asg.output_busy(Endpoint::new(1, 1)));
        asg.remove(Endpoint::new(0, 1)).unwrap();
        assert_eq!(asg.input_port_mask(0), &[0]);
        assert_eq!(asg.output_port_mask(1), &[0]);
        assert_eq!(asg.output_port_mask(2), &[0]);
    }

    #[test]
    fn converter_demand_by_model() {
        let mk = |model| {
            let mut asg = MulticastAssignment::new(net(), model);
            asg.add(conn((0, 0), &[(0, 0), (1, 0), (2, 0)])).unwrap();
            asg.add(conn((1, 0), &[(0, 1), (1, 1)])).unwrap_or(());
            asg
        };
        assert_eq!(mk(MulticastModel::Msw).converter_demand(), 0);
        // MSDW: the second conn (dest λ2 uniform) is allowed; 1 each.
        assert_eq!(mk(MulticastModel::Msdw).converter_demand(), 2);
        // MAW: fanout 3 + fanout 2.
        assert_eq!(mk(MulticastModel::Maw).converter_demand(), 5);
    }

    #[test]
    fn serde_roundtrip_preserves_everything() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Maw);
        asg.add(conn((0, 0), &[(1, 1), (2, 0)])).unwrap();
        asg.add(conn((2, 1), &[(0, 0)])).unwrap();
        let json = serde_json::to_string(&asg).unwrap();
        let back: MulticastAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_string(), asg.to_string());
        assert_eq!(back.used_output_endpoints(), asg.used_output_endpoints());
        assert_eq!(back.model(), asg.model());
    }

    #[test]
    fn serde_rejects_conflicting_payloads() {
        // Hand-crafted JSON with a destination conflict must not
        // deserialize into an inconsistent assignment.
        let json = r#"{
            "net": {"ports": 3, "wavelengths": 2},
            "model": "Maw",
            "connections": [
                {"source": {"port": 0, "wavelength": 0},
                 "destinations": [{"port": 1, "wavelength": 0}]},
                {"source": {"port": 1, "wavelength": 0},
                 "destinations": [{"port": 1, "wavelength": 0}]}
            ]
        }"#;
        assert!(serde_json::from_str::<MulticastAssignment>(json).is_err());
    }

    #[test]
    fn display_lists_connections() {
        let mut asg = MulticastAssignment::new(net(), MulticastModel::Msw);
        asg.add(conn((0, 0), &[(1, 0)])).unwrap();
        let s = asg.to_string();
        assert!(s.contains("MSW"));
        assert!(s.contains("(p0, λ1) → {(p1, λ1)}"));
    }
}
