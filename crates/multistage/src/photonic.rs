//! Photonic realization of the three-stage network — Fig. 8 built out of
//! real [`WdmModule`]s and driven by the routing decisions of
//! [`ThreeStageNetwork`].
//!
//! This closes the loop between the paper's two levels of abstraction:
//!
//! * the **combinatorial** level, where Theorems 1–2 argue about middle
//!   switches and destination multisets, is `ThreeStageNetwork`;
//! * the **hardware** level, where Table 2 counts SOA gates and
//!   converters, is this module — one big netlist of `2r + m` rectangular
//!   modules wired mux→demux, whose census must equal the §3.4 closed
//!   forms and through which every routed connection must actually carry
//!   light to exactly its destinations.
//!
//! ```
//! use wdm_core::MulticastModel;
//! use wdm_multistage::{Construction, PhotonicThreeStage, ThreeStageParams};
//!
//! let p = ThreeStageParams::new(2, 4, 2, 2);
//! let photonic = PhotonicThreeStage::build(p, Construction::MswDominant,
//!                                          MulticastModel::Msw);
//! // Census equals the §3.4 cost formula: kmr(2n + r).
//! assert_eq!(photonic.census().gates, 2 * 4 * 2 * (2 * 2 + 2));
//! ```

use crate::{Construction, RoutedConnection, ThreeStageNetwork, ThreeStageParams};
use wdm_core::{Endpoint, MulticastConnection, MulticastModel};
use wdm_fabric::{
    propagate_assignment, Census, Component, FabricError, ModuleSpec, Netlist, PowerBudget,
    PowerParams, PropagationOutcome, WdmModule,
};

/// The Fig. 8 network as a photonic netlist.
#[derive(Debug, Clone)]
pub struct PhotonicThreeStage {
    params: ThreeStageParams,
    output_model: MulticastModel,
    netlist: Netlist,
    /// `r` input modules of size `n×m`.
    input_modules: Vec<WdmModule>,
    /// `m` middle modules of size `r×r`.
    middle_modules: Vec<WdmModule>,
    /// `r` output modules of size `m×n`.
    output_modules: Vec<WdmModule>,
}

impl PhotonicThreeStage {
    /// Build the network: `r` input modules, `m` middle modules, `r`
    /// output modules, every inter-stage link one fiber (Fig. 8), module
    /// models per the construction method (Fig. 9).
    pub fn build(
        params: ThreeStageParams,
        construction: Construction,
        output_model: MulticastModel,
    ) -> Self {
        let first_two = match construction {
            Construction::MswDominant => MulticastModel::Msw,
            Construction::MawDominant => MulticastModel::Maw,
        };
        let (n, m, r, k) = (params.n, params.m, params.r, params.k);
        let mut netlist = Netlist::new();

        let input_modules: Vec<WdmModule> = (0..r)
            .map(|_| {
                WdmModule::build_into(
                    &mut netlist,
                    ModuleSpec {
                        in_ports: n,
                        out_ports: m,
                        wavelengths: k,
                        model: first_two,
                    },
                )
            })
            .collect();
        let middle_modules: Vec<WdmModule> = (0..m)
            .map(|_| {
                WdmModule::build_into(
                    &mut netlist,
                    ModuleSpec {
                        in_ports: r,
                        out_ports: r,
                        wavelengths: k,
                        model: first_two,
                    },
                )
            })
            .collect();
        let output_modules: Vec<WdmModule> = (0..r)
            .map(|_| {
                WdmModule::build_into(
                    &mut netlist,
                    ModuleSpec {
                        in_ports: m,
                        out_ports: n,
                        wavelengths: k,
                        model: output_model,
                    },
                )
            })
            .collect();

        // External frame.
        for p in 0..n * r {
            let inp = netlist.add(Component::InputPort(wdm_core::PortId(p)));
            let (a, local) = params.input_module_of(p);
            netlist.connect_simple(inp, input_modules[a as usize].input_taps[local as usize]);
        }
        // Inter-stage fibers: input a → middle j on (a's output j, j's input a),
        // middle j → output p on (j's output p, p's input j).
        for (a, im) in input_modules.iter().enumerate().take(r as usize) {
            for (j, mm) in middle_modules.iter().enumerate().take(m as usize) {
                netlist.connect_simple(im.output_muxes[j], mm.input_taps[a]);
            }
        }
        for (j, mm) in middle_modules.iter().enumerate().take(m as usize) {
            for (p, om) in output_modules.iter().enumerate().take(r as usize) {
                netlist.connect_simple(mm.output_muxes[p], om.input_taps[j]);
            }
        }
        for p in 0..n * r {
            let out = netlist.add(Component::OutputPort(wdm_core::PortId(p)));
            let (b, local) = params.output_module_of(p);
            netlist.connect_simple(output_modules[b as usize].output_muxes[local as usize], out);
        }

        let net = PhotonicThreeStage {
            params,
            output_model,
            netlist,
            input_modules,
            middle_modules,
            output_modules,
        };
        debug_assert!(
            net.netlist.validate().is_empty(),
            "{:?}",
            net.netlist.validate()
        );
        net
    }

    /// The geometry.
    pub fn params(&self) -> ThreeStageParams {
        self.params
    }

    /// The composed device graph.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Component census of the whole network — must equal the §3.4 cost
    /// formulas (checked in tests).
    pub fn census(&self) -> Census {
        Census::of(&self.netlist)
    }

    /// Worst-case optical power budget end to end.
    pub fn power_budget(&self, params: &PowerParams) -> PowerBudget {
        PowerBudget::analyze(&self.netlist, params)
    }

    /// Fault injection: permanently break the component at `node` if it
    /// is an SOA gate or converter. Returns `false` otherwise.
    pub fn break_node(&mut self, node: wdm_fabric::NodeId) -> bool {
        match self.netlist.component_mut(node) {
            Component::SoaGate { broken, .. } | Component::Converter { broken, .. } => {
                *broken = true;
                true
            }
            _ => false,
        }
    }

    /// Program every gate and converter for the live connections of
    /// `logical`, shine light, and verify gate-level delivery against its
    /// assignment.
    ///
    /// `logical` must have been built with the same geometry,
    /// construction, and output model.
    pub fn realize(
        &mut self,
        logical: &ThreeStageNetwork,
    ) -> Result<PropagationOutcome, FabricError> {
        assert_eq!(logical.params(), self.params, "geometry mismatch");
        assert_eq!(logical.output_model(), self.output_model, "model mismatch");

        for module in self
            .input_modules
            .iter()
            .chain(&self.middle_modules)
            .chain(&self.output_modules)
        {
            module.reset(&mut self.netlist);
        }

        for conn in logical.assignment().connections() {
            let routed = logical
                .route_of(conn.source())
                .expect("every live connection has a recorded route");
            self.program_connection(conn, routed);
        }

        let outcome = propagate_assignment(&self.netlist, logical.assignment());
        outcome.check_delivery(logical.assignment())?;
        Ok(outcome)
    }

    /// Set the gates/converters of all three stages along one routed
    /// connection.
    fn program_connection(&mut self, conn: &MulticastConnection, routed: &RoutedConnection) {
        let k = self.params.k;
        let src = conn.source();
        let (a, local_in) = self.params.input_module_of(src.port.0);

        for branch in &routed.branches {
            let j = branch.middle as usize;
            // Stage 1: (local_in, src λ) → output (j, branch λ).
            let in_flat = Endpoint::new(local_in, src.wavelength.0).flat_index(k);
            let out_flat = Endpoint::new(branch.middle, branch.input_wavelength).flat_index(k);
            self.input_modules[a as usize].set_gate(&mut self.netlist, in_flat, out_flat, true);

            for leg in &branch.legs {
                // Stage 2: middle j, (a, branch λ) → (leg module, leg λ).
                let in_flat = Endpoint::new(a, branch.input_wavelength).flat_index(k);
                let out_flat = Endpoint::new(leg.out_module, leg.wavelength).flat_index(k);
                self.middle_modules[j].set_gate(&mut self.netlist, in_flat, out_flat, true);

                // Stage 3: output module p, (j, leg λ) → each destination.
                let p = leg.out_module as usize;
                let in_flat = Endpoint::new(branch.middle, leg.wavelength).flat_index(k);
                if self.output_model == MulticastModel::Msdw {
                    let target = leg.dests(conn.destinations())[0].wavelength;
                    self.output_modules[p].program_input_converter(
                        &mut self.netlist,
                        in_flat,
                        Some(target),
                    );
                }
                for &dest in leg.dests(conn.destinations()) {
                    let (_, local_out) = self.params.output_module_of(dest.port.0);
                    let out_flat = Endpoint::new(local_out, dest.wavelength.0).flat_index(k);
                    self.output_modules[p].set_gate(&mut self.netlist, in_flat, out_flat, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounds, cost};
    use wdm_core::MulticastConnection;

    fn conn(src: (u32, u32), dests: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dests.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    #[test]
    fn census_equals_section34_cost_formulas() {
        for (n, m, r, k) in [(2u32, 4u32, 2u32, 2u32), (3, 7, 3, 2), (2, 5, 4, 3)] {
            let p = ThreeStageParams::new(n, m, r, k);
            for construction in [Construction::MswDominant, Construction::MawDominant] {
                for model in MulticastModel::ALL {
                    let photonic = PhotonicThreeStage::build(p, construction, model);
                    let census = photonic.census();
                    let expect = cost::three_stage_cost(p, construction, model);
                    assert_eq!(census.gates, expect.crosspoints, "{construction} {model}");
                    assert_eq!(
                        census.converters, expect.converters,
                        "{construction} {model}"
                    );
                    assert!(photonic.netlist().validate().is_empty());
                }
            }
        }
    }

    #[test]
    fn light_follows_the_logical_route() {
        let p = ThreeStageParams::new(2, 4, 2, 2);
        let mut logical = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        logical
            .connect(&conn((0, 0), &[(0, 0), (1, 0), (2, 0), (3, 0)]))
            .unwrap();
        logical.connect(&conn((1, 1), &[(2, 1)])).unwrap();
        let mut photonic =
            PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msw);
        let outcome = photonic
            .realize(&logical)
            .expect("light must follow the route");
        assert!(outcome.delivered_exactly(logical.assignment()));
    }

    #[test]
    fn maw_dominant_conversion_happens_in_hardware() {
        // Fig. 10's routable half: MAW-dominant converts λ1→λ2→λ1 across
        // the first two stages; verify the actual light does that.
        let p = crate::scenarios::fig10_params();
        let mut logical = ThreeStageNetwork::new(p, Construction::MawDominant, MulticastModel::Maw);
        logical.set_fanout_limit(1);
        for req in crate::scenarios::fig10_requests() {
            logical.connect(&req).unwrap();
        }
        let mut photonic =
            PhotonicThreeStage::build(p, Construction::MawDominant, MulticastModel::Maw);
        let outcome = photonic.realize(&logical).unwrap();
        assert!(outcome.delivered_exactly(logical.assignment()));
    }

    #[test]
    fn msdw_output_stage_converts_in_hardware() {
        let p = ThreeStageParams::new(2, 4, 2, 2);
        let mut logical =
            ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msdw);
        // Source λ1, destinations uniformly λ2 — the output stage must
        // convert.
        logical
            .connect(&conn((0, 0), &[(1, 1), (2, 1), (3, 1)]))
            .unwrap();
        let mut photonic =
            PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msdw);
        let outcome = photonic.realize(&logical).unwrap();
        assert!(outcome.delivered_exactly(logical.assignment()));
    }

    #[test]
    fn churn_stays_physically_consistent() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n, r, k) = (2u32, 2u32, 2u32);
        let m = bounds::theorem1_min_m(n, r).m;
        let p = ThreeStageParams::new(n, m, r, k);
        let mut logical = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
        let mut photonic =
            PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msw);
        let mut rng = StdRng::seed_from_u64(5);
        let mut live: Vec<Endpoint> = Vec::new();
        for step in 0..60 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let i = rng.gen_range(0..live.len());
                logical.disconnect(live.swap_remove(i)).unwrap();
            } else {
                // A random same-wavelength unicast or small multicast.
                let src = Endpoint::new(rng.gen_range(0..n * r), rng.gen_range(0..k));
                if logical.assignment().input_busy(src) {
                    continue;
                }
                let dests: Vec<Endpoint> = (0..n * r)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|pt| Endpoint::new(pt, src.wavelength.0))
                    .filter(|&d| logical.assignment().output_user(d).is_none())
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let c = MulticastConnection::new(src, dests).unwrap();
                if logical.connect(&c).is_ok() {
                    live.push(src);
                }
            }
            let outcome = photonic
                .realize(&logical)
                .unwrap_or_else(|e| panic!("photonic divergence at step {step}: {e}"));
            assert!(
                outcome.delivered_exactly(logical.assignment()),
                "step {step}"
            );
        }
    }

    #[test]
    fn power_budget_reflects_three_passive_stages() {
        let p = ThreeStageParams::new(4, 13, 4, 2);
        let photonic = PhotonicThreeStage::build(p, Construction::MswDominant, MulticastModel::Msw);
        let flat = wdm_fabric::WdmCrossbar::build(p.network(), MulticastModel::Msw);
        let params = PowerParams::default();
        let three = photonic.power_budget(&params);
        let one = flat.power_budget(&params);
        // Three cascaded modules traverse more devices than one crossbar.
        assert!(three.worst_path_hops > one.worst_path_hops);
    }
}
