//! Crossbar-based nonblocking WDM multicast switches — the constructions
//! of Figs. 4–7 — plus their routing controller.
//!
//! A crossbar is one square [`WdmModule`] framed by network
//! [`Component::InputPort`]/[`Component::OutputPort`] components.

use crate::{
    propagate_assignment, Census, Component, FabricError, ModuleSpec, Netlist, NodeId, PowerBudget,
    PowerParams, PropagationOutcome, WdmModule,
};
use wdm_core::{Endpoint, MulticastAssignment, MulticastModel, NetworkConfig};

/// A crossbar-based `N×N` `k`-wavelength WDM multicast switch under one of
/// the three multicast models.
///
/// * **MSW** (Figs. 4–5): `k` parallel `N×N` splitter/combiner space
///   planes behind wavelength demux/mux — `kN²` gates, no converters.
/// * **MSDW** (Fig. 6): a converter on each input wavelength (Fig. 3a),
///   then a full `Nk×Nk` gate matrix — `k²N²` gates, `Nk` converters.
/// * **MAW** (Fig. 7): a full `Nk×Nk` gate matrix with a converter on each
///   *output* wavelength (Fig. 3b) — `k²N²` gates, `Nk` converters.
#[derive(Debug, Clone)]
pub struct WdmCrossbar {
    net: NetworkConfig,
    netlist: Netlist,
    module: WdmModule,
}

impl WdmCrossbar {
    /// Build the crossbar for `net` under `model`.
    pub fn build(net: NetworkConfig, model: MulticastModel) -> Self {
        let mut netlist = Netlist::new();
        let module = WdmModule::build_into(
            &mut netlist,
            ModuleSpec {
                in_ports: net.ports,
                out_ports: net.ports,
                wavelengths: net.wavelengths,
                model,
            },
        );
        for p in net.port_ids() {
            let inp = netlist.add(Component::InputPort(p));
            netlist.connect_simple(inp, module.input_taps[p.0 as usize]);
            let out = netlist.add(Component::OutputPort(p));
            netlist.connect_simple(module.output_muxes[p.0 as usize], out);
        }
        let xbar = WdmCrossbar {
            net,
            netlist,
            module,
        };
        debug_assert!(
            xbar.netlist.validate().is_empty(),
            "{:?}",
            xbar.netlist.validate()
        );
        xbar
    }

    /// The network frame.
    pub fn network(&self) -> NetworkConfig {
        self.net
    }

    /// The multicast model the fabric was built for.
    pub fn model(&self) -> MulticastModel {
        self.module.spec.model
    }

    /// The underlying device graph.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Component census — crosspoints and converters for Table 1.
    pub fn census(&self) -> Census {
        Census::of(&self.netlist)
    }

    /// Worst-case optical power budget of the fabric.
    pub fn power_budget(&self, params: &PowerParams) -> PowerBudget {
        PowerBudget::analyze(&self.netlist, params)
    }

    /// The gate wiring input endpoint `src` to output endpoint `dst`, if
    /// the fabric has one (under MSW only same-wavelength pairs do).
    pub fn gate_between(&self, src: Endpoint, dst: Endpoint) -> Option<NodeId> {
        let k = self.net.wavelengths;
        self.module.gate(src.flat_index(k), dst.flat_index(k))
    }

    /// Fault injection: permanently break the gate between `src` and
    /// `dst`. Returns `false` if no such gate exists.
    pub fn break_gate(&mut self, src: Endpoint, dst: Endpoint) -> bool {
        match self.gate_between(src, dst) {
            Some(id) => {
                if let Component::SoaGate { broken, .. } = self.netlist.component_mut(id) {
                    *broken = true;
                }
                true
            }
            None => false,
        }
    }

    /// Fault injection: break the converter serving input endpoint `ep`
    /// (MSDW) or output endpoint `ep` (MAW). Returns `false` if the model
    /// has no converter there.
    pub fn break_converter(&mut self, ep: Endpoint) -> bool {
        let k = self.net.wavelengths;
        let id = match self.model() {
            MulticastModel::Msw => None,
            MulticastModel::Msdw => self.module.input_converter(ep.flat_index(k)),
            MulticastModel::Maw => self.module.output_converter(ep.flat_index(k)),
        };
        match id {
            Some(id) => {
                if let Component::Converter { broken, .. } = self.netlist.component_mut(id) {
                    *broken = true;
                }
                true
            }
            None => false,
        }
    }

    /// Configure gates/converters for `asg`, propagate light, and return
    /// the outcome.
    ///
    /// Errors on model/size mismatch or physical conflicts; delivery
    /// completeness is the caller's check (see
    /// [`PropagationOutcome::check_delivery`]) so fault-injection
    /// experiments can observe partial delivery.
    pub fn route(&mut self, asg: &MulticastAssignment) -> Result<PropagationOutcome, FabricError> {
        if asg.network() != self.net {
            return Err(FabricError::SizeMismatch);
        }
        if !self.model().includes(asg.model()) {
            return Err(FabricError::ModelMismatch {
                fabric: self.model(),
                assignment: asg.model(),
            });
        }
        self.module.reset(&mut self.netlist);
        let k = self.net.wavelengths;

        for conn in asg.connections() {
            let src = conn.source();
            if self.model() == MulticastModel::Msdw {
                // All destinations share one wavelength under MSDW;
                // program the per-input converter to it (Fig. 3a).
                let target = conn.destinations()[0].wavelength;
                self.module.program_input_converter(
                    &mut self.netlist,
                    src.flat_index(k),
                    Some(target),
                );
            }
            for &dst in conn.destinations() {
                self.module.set_gate(
                    &mut self.netlist,
                    src.flat_index(k),
                    dst.flat_index(k),
                    true,
                );
            }
        }

        let outcome = propagate_assignment(&self.netlist, asg);
        if !outcome.is_clean() {
            return Err(FabricError::Propagation(outcome.errors));
        }
        Ok(outcome)
    }

    /// [`route`](Self::route) plus
    /// [`check_delivery`](PropagationOutcome::check_delivery).
    pub fn route_verified(
        &mut self,
        asg: &MulticastAssignment,
    ) -> Result<PropagationOutcome, FabricError> {
        let outcome = self.route(asg)?;
        outcome.check_delivery(asg)?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{capacity, MulticastConnection};

    fn conn(src: (u32, u32), dests: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dests.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    #[test]
    fn census_matches_table1_closed_forms() {
        for (n, k) in [(2u32, 1u32), (2, 2), (3, 2), (4, 3)] {
            let net = NetworkConfig::new(n, k);
            for model in MulticastModel::ALL {
                let xbar = WdmCrossbar::build(net, model);
                let c = xbar.census();
                assert_eq!(
                    c.gates,
                    capacity::crossbar_crosspoints(net, model),
                    "gates {model} N={n} k={k}"
                );
                assert_eq!(
                    c.converters,
                    capacity::crossbar_converters(net, model),
                    "converters {model} N={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn paper_example_n3_k2() {
        // Figs. 6–7 use N=3, k=2: 36 crosspoints and 6 converters.
        let net = NetworkConfig::new(3, 2);
        for model in [MulticastModel::Msdw, MulticastModel::Maw] {
            let c = WdmCrossbar::build(net, model).census();
            assert_eq!(c.gates, 36);
            assert_eq!(c.converters, 6);
        }
        let c = WdmCrossbar::build(net, MulticastModel::Msw).census();
        assert_eq!(c.gates, 18);
        assert_eq!(c.converters, 0);
    }

    #[test]
    fn netlists_are_structurally_valid() {
        let net = NetworkConfig::new(3, 2);
        for model in MulticastModel::ALL {
            let xbar = WdmCrossbar::build(net, model);
            assert!(xbar.netlist().validate().is_empty());
        }
    }

    #[test]
    fn msw_routes_same_wavelength_multicast() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
        asg.add(conn((0, 1), &[(0, 1), (1, 1), (2, 1)])).unwrap();
        asg.add(conn((1, 0), &[(0, 0), (2, 0)])).unwrap();
        let out = xbar.route_verified(&asg).unwrap();
        assert!(out.delivered_exactly(&asg));
    }

    #[test]
    fn msdw_converts_source_wavelength() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msdw);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msdw);
        // Source on λ1, all destinations on λ2.
        asg.add(conn((0, 0), &[(0, 1), (1, 1), (2, 1)])).unwrap();
        let out = xbar.route_verified(&asg).unwrap();
        assert!(out.delivered_exactly(&asg));
    }

    #[test]
    fn maw_mixes_wavelengths_per_destination() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Maw);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Maw);
        asg.add(conn((0, 0), &[(0, 1), (1, 0), (2, 1)])).unwrap();
        asg.add(conn((0, 1), &[(1, 1), (2, 0)])).unwrap();
        let out = xbar.route_verified(&asg).unwrap();
        assert!(out.delivered_exactly(&asg));
    }

    #[test]
    fn stronger_fabric_routes_weaker_assignment() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Maw);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
        asg.add(conn((0, 0), &[(1, 0), (2, 0)])).unwrap();
        assert!(xbar.route_verified(&asg).is_ok());
    }

    #[test]
    fn weaker_fabric_rejects_stronger_assignment() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
        let asg = MulticastAssignment::new(net, MulticastModel::Maw);
        let err = xbar.route(&asg).unwrap_err();
        assert!(matches!(err, FabricError::ModelMismatch { .. }));
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut xbar = WdmCrossbar::build(NetworkConfig::new(3, 2), MulticastModel::Msw);
        let asg = MulticastAssignment::new(NetworkConfig::new(4, 2), MulticastModel::Msw);
        assert!(matches!(xbar.route(&asg), Err(FabricError::SizeMismatch)));
    }

    #[test]
    fn broken_gate_causes_delivery_failure() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
        assert!(xbar.break_gate(Endpoint::new(0, 0), Endpoint::new(1, 0)));
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
        asg.add(conn((0, 0), &[(1, 0), (2, 0)])).unwrap();
        let err = xbar.route_verified(&asg).unwrap_err();
        assert_eq!(
            err,
            FabricError::DeliveryFailure {
                endpoint: Endpoint::new(1, 0)
            }
        );
    }

    #[test]
    fn swapped_sources_fail_delivery() {
        // Route A, then judge it against B, which swaps A's destinations:
        // every destination holds exactly one signal, but from the other
        // source, so only a per-signal comparison catches it.
        let net = NetworkConfig::new(4, 1);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
        let mut a = MulticastAssignment::new(net, MulticastModel::Msw);
        a.add(conn((0, 0), &[(2, 0)])).unwrap();
        a.add(conn((1, 0), &[(3, 0)])).unwrap();
        let mut b = MulticastAssignment::new(net, MulticastModel::Msw);
        b.add(conn((0, 0), &[(3, 0)])).unwrap();
        b.add(conn((1, 0), &[(2, 0)])).unwrap();
        let out = xbar.route_verified(&a).unwrap();
        for d in [Endpoint::new(2, 0), Endpoint::new(3, 0)] {
            assert_eq!(out.received_at(d).len(), 1);
        }
        assert!(matches!(
            out.check_delivery(&b),
            Err(FabricError::DeliveryFailure { .. })
        ));
        assert!(!out.delivered_exactly(&b));
    }

    #[test]
    fn broken_converter_causes_delivery_failure() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msdw);
        assert!(xbar.break_converter(Endpoint::new(0, 0)));
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msdw);
        asg.add(conn((0, 0), &[(1, 1), (2, 1)])).unwrap();
        // The broken converter is transparent, so λ1 light arrives where λ2
        // was expected → delivery failure.
        assert!(matches!(
            xbar.route_verified(&asg),
            Err(FabricError::DeliveryFailure { .. })
        ));
    }

    #[test]
    fn broken_maw_output_converter_detected() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Maw);
        assert!(xbar.break_converter(Endpoint::new(1, 1)));
        let mut asg = MulticastAssignment::new(net, MulticastModel::Maw);
        // Cross-wavelength delivery through the broken output converter.
        asg.add(conn((0, 0), &[(1, 1)])).unwrap();
        assert!(matches!(
            xbar.route_verified(&asg),
            Err(FabricError::DeliveryFailure { .. })
        ));
    }

    #[test]
    fn msw_fabric_has_no_converter_to_break() {
        let net = NetworkConfig::new(2, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Msw);
        assert!(!xbar.break_converter(Endpoint::new(0, 0)));
    }

    #[test]
    fn route_is_idempotent_across_reconfigurations() {
        let net = NetworkConfig::new(3, 2);
        let mut xbar = WdmCrossbar::build(net, MulticastModel::Maw);
        let mut asg1 = MulticastAssignment::new(net, MulticastModel::Maw);
        asg1.add(conn((0, 0), &[(0, 0), (1, 0), (2, 0)])).unwrap();
        let mut asg2 = MulticastAssignment::new(net, MulticastModel::Maw);
        asg2.add(conn((2, 1), &[(0, 1)])).unwrap();
        // Route asg1, then asg2; stale gates from asg1 must not leak.
        xbar.route_verified(&asg1).unwrap();
        let out2 = xbar.route_verified(&asg2).unwrap();
        assert!(out2.delivered_exactly(&asg2));
        assert_eq!(out2.lit_outputs().count(), 1);
    }

    #[test]
    fn power_budget_scales_with_size() {
        let params = PowerParams::default();
        let small =
            WdmCrossbar::build(NetworkConfig::new(2, 2), MulticastModel::Maw).power_budget(&params);
        let large =
            WdmCrossbar::build(NetworkConfig::new(8, 2), MulticastModel::Maw).power_budget(&params);
        // Bigger splitters/combiners → more passive loss.
        assert!(large.worst_path_loss_db > small.worst_path_loss_db);
    }
}
