//! Crossbar admission control: connect and disconnect one multicast at a
//! time against a live assignment.
//!
//! The crossbars of Figs. 4–7 are nonblocking by construction, so
//! admitting a connection needs only the assignment's endpoint check and
//! the fault set. A [`CrossbarSession`] therefore keeps just those two;
//! it programs no gates. [`CrossbarSession::verify`] builds a
//! [`WdmCrossbar`] from the live assignment, routes it and judges exact
//! delivery — the one configuration path every crossbar caller shares.

use crate::{FabricError, PropagationOutcome, WdmCrossbar};
use wdm_core::{
    AssignmentError, Endpoint, Fault, FaultSet, MulticastAssignment, MulticastConnection,
    MulticastModel, NetworkConfig,
};

/// A crossbar's live connections and failed components.
#[derive(Debug, Clone)]
pub struct CrossbarSession {
    live: MulticastAssignment,
    /// Control-plane faults the admission check consults. For a
    /// single-stage crossbar only port and converter-bank faults bite;
    /// middle/link faults are accepted (the [`FaultSet`] is shared
    /// vocabulary across stages) but match nothing here.
    faults: FaultSet,
}

impl CrossbarSession {
    /// Open a session with no connections and no faults.
    pub fn new(net: NetworkConfig, model: MulticastModel) -> Self {
        CrossbarSession {
            live: MulticastAssignment::new(net, model),
            faults: FaultSet::new(),
        }
    }

    /// The failed components currently on record.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Mark `fault` failed (admission will refuse traffic that needs the
    /// component). Live connections are *not* torn down — use
    /// [`Self::connections_through`] to find the traffic to heal. Returns
    /// `true` if the component was healthy before.
    pub fn inject_fault(&mut self, fault: Fault) -> bool {
        self.faults.fail(fault)
    }

    /// Mark `fault` repaired. Returns `true` if it was failed before.
    pub fn repair_fault(&mut self, fault: Fault) -> bool {
        self.faults.repair(fault)
    }

    /// Live connections that depend on `fault`.
    pub fn connections_through(&self, fault: &Fault) -> Vec<Endpoint> {
        self.live
            .connections()
            .filter(|c| match *fault {
                Fault::Port(p) => {
                    c.source().port.0 == p || c.destinations().iter().any(|d| d.port.0 == p)
                }
                // MSDW programs the converter at the *input* of source
                // port p whenever the group wavelength differs.
                Fault::InputConverters(p) => {
                    self.live.model() == MulticastModel::Msdw
                        && c.source().port.0 == p
                        && c.destinations()[0].wavelength != c.source().wavelength
                }
                // MAW converts at each output whose λ differs from the
                // source's.
                Fault::OutputConverters(p) => {
                    self.live.model() == MulticastModel::Maw
                        && c.destinations()
                            .iter()
                            .any(|d| d.port.0 == p && d.wavelength != c.source().wavelength)
                }
                _ => false,
            })
            .map(|c| c.source())
            .collect()
    }

    /// A fault that makes `conn` inadmissible, if any.
    fn component_down(&self, conn: &MulticastConnection) -> Option<Fault> {
        if self.faults.is_empty() {
            return None;
        }
        let src = conn.source();
        if self.faults.port_down(src.port.0) {
            return Some(Fault::Port(src.port.0));
        }
        for &d in conn.destinations() {
            if self.faults.port_down(d.port.0) {
                return Some(Fault::Port(d.port.0));
            }
        }
        match self.live.model() {
            MulticastModel::Msw => None,
            MulticastModel::Msdw => {
                // Needs the source-side converter iff the group λ differs.
                (conn.destinations()[0].wavelength != src.wavelength
                    && self.faults.input_converters_down(src.port.0))
                .then_some(Fault::InputConverters(src.port.0))
            }
            MulticastModel::Maw => conn
                .destinations()
                .iter()
                .find(|d| {
                    d.wavelength != src.wavelength && self.faults.output_converters_down(d.port.0)
                })
                .map(|d| Fault::OutputConverters(d.port.0)),
        }
    }

    /// The network frame.
    pub fn network(&self) -> NetworkConfig {
        self.live.network()
    }

    /// The live assignment.
    pub fn assignment(&self) -> &MulticastAssignment {
        &self.live
    }

    /// Add one connection: checks endpoint conflicts and the fault set,
    /// then records it.
    ///
    /// Borrows the request so rejected admissions (the hot path under
    /// contention) never copy the destination set; the single clone
    /// happens at the commit point.
    pub fn connect(&mut self, conn: &MulticastConnection) -> Result<(), AssignmentError> {
        self.live.check(conn)?;
        if let Some(fault) = self.component_down(conn) {
            return Err(AssignmentError::ComponentDown(fault));
        }
        self.live.add(conn.clone()).expect("checked above");
        Ok(())
    }

    /// Remove the connection sourced at `src`.
    pub fn disconnect(&mut self, src: Endpoint) -> Result<MulticastConnection, AssignmentError> {
        self.live.remove(src)
    }

    /// Build the crossbar, route the live assignment through it and
    /// verify exact delivery. Returns the routed crossbar with the
    /// outcome, so callers can trace paths through its netlist.
    pub fn verify(&self) -> Result<(WdmCrossbar, PropagationOutcome), FabricError> {
        let mut xbar = WdmCrossbar::build(self.network(), self.live.model());
        let outcome = xbar.route_verified(&self.live)?;
        Ok((xbar, outcome))
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

    #[test]
    fn incremental_connect_disconnect() {
        let net = NetworkConfig::new(4, 2);
        let mut s = CrossbarSession::new(net, MulticastModel::Msw);
        s.connect(&conn((0, 0), &[(1, 0), (2, 0)])).unwrap();
        s.verify().unwrap();
        s.connect(&conn((1, 1), &[(0, 1), (3, 1)])).unwrap();
        s.verify().unwrap();
        s.disconnect(Endpoint::new(0, 0)).unwrap();
        let (_, outcome) = s.verify().unwrap();
        assert_eq!(outcome.lit_outputs().count(), 2);
    }

    #[test]
    fn conflicts_rejected_without_touching_hardware() {
        let net = NetworkConfig::new(3, 1);
        let mut s = CrossbarSession::new(net, MulticastModel::Msw);
        s.connect(&conn((0, 0), &[(1, 0)])).unwrap();
        let err = s.connect(&conn((1, 0), &[(1, 0)])).unwrap_err();
        assert!(matches!(err, AssignmentError::DestinationBusy(_)));
        // Hardware still verifies the original connection only.
        s.verify().unwrap();
    }

    #[test]
    fn msdw_converter_is_programmed_and_cleared() {
        let net = NetworkConfig::new(3, 2);
        let mut s = CrossbarSession::new(net, MulticastModel::Msdw);
        s.connect(&conn((0, 0), &[(1, 1), (2, 1)])).unwrap();
        s.verify().unwrap();
        s.disconnect(Endpoint::new(0, 0)).unwrap();
        // The same source can now host a λ1-destination connection.
        s.connect(&conn((0, 0), &[(1, 0)])).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn dead_port_refused_until_repaired() {
        let net = NetworkConfig::new(4, 1);
        let mut s = CrossbarSession::new(net, MulticastModel::Msw);
        s.inject_fault(Fault::Port(2));
        let err = s.connect(&conn((0, 0), &[(2, 0)])).unwrap_err();
        assert!(matches!(
            err,
            AssignmentError::ComponentDown(Fault::Port(2))
        ));
        let err = s.connect(&conn((2, 0), &[(3, 0)])).unwrap_err();
        assert!(matches!(
            err,
            AssignmentError::ComponentDown(Fault::Port(2))
        ));
        // Unaffected traffic still admits and verifies.
        s.connect(&conn((0, 0), &[(1, 0)])).unwrap();
        s.verify().unwrap();
        assert!(s.repair_fault(Fault::Port(2)));
        s.connect(&conn((2, 0), &[(3, 0)])).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn msdw_dark_converter_pins_group_wavelength() {
        let net = NetworkConfig::new(3, 2);
        let mut s = CrossbarSession::new(net, MulticastModel::Msdw);
        s.inject_fault(Fault::InputConverters(0));
        // A converted group needs the dark bank — refused.
        let err = s.connect(&conn((0, 0), &[(1, 1), (2, 1)])).unwrap_err();
        assert!(matches!(
            err,
            AssignmentError::ComponentDown(Fault::InputConverters(0))
        ));
        // Same-wavelength group passes through without conversion.
        s.connect(&conn((0, 0), &[(1, 0), (2, 0)])).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn maw_dark_output_converter_blocks_converted_leg_only() {
        let net = NetworkConfig::new(3, 2);
        let mut s = CrossbarSession::new(net, MulticastModel::Maw);
        s.inject_fault(Fault::OutputConverters(1));
        let err = s.connect(&conn((0, 0), &[(1, 1)])).unwrap_err();
        assert!(matches!(
            err,
            AssignmentError::ComponentDown(Fault::OutputConverters(1))
        ));
        // Identity delivery to port 1 and conversion at port 2 still work.
        s.connect(&conn((0, 0), &[(1, 0), (2, 1)])).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn connections_through_tracks_dependent_traffic() {
        let net = NetworkConfig::new(4, 2);
        let mut s = CrossbarSession::new(net, MulticastModel::Msdw);
        s.connect(&conn((0, 0), &[(1, 1), (2, 1)])).unwrap(); // converted
        s.connect(&conn((1, 0), &[(3, 0)])).unwrap(); // identity
        assert_eq!(
            s.connections_through(&Fault::InputConverters(0)),
            vec![Endpoint::new(0, 0)]
        );
        assert!(
            s.connections_through(&Fault::InputConverters(1)).is_empty(),
            "identity group does not use its converter"
        );
        assert_eq!(
            s.connections_through(&Fault::Port(3)),
            vec![Endpoint::new(1, 0)]
        );
        // Middle-stage faults are foreign vocabulary to a crossbar.
        assert!(s.connections_through(&Fault::MiddleSwitch(0)).is_empty());
    }
}
