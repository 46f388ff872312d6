//! Photonic realization of the recursive **five-stage** network: the
//! Fig. 8 frame with every middle module expanded into an inner
//! three-stage network of real [`WdmModule`]s — `2r + m(2·inner_r +
//! inner_m)` modules in one netlist, light traced end to end across all
//! five stages.

use crate::{Construction, FiveStageNetwork, ThreeStageParams};
use wdm_core::{Endpoint, MulticastModel, PortId};
use wdm_fabric::{
    propagate_assignment, Census, Component, FabricError, ModuleSpec, Netlist, PowerBudget,
    PowerParams, PropagationOutcome, WdmModule,
};

/// The modules of one expanded (inner three-stage) middle.
#[derive(Debug, Clone)]
struct InnerColumns {
    input: Vec<WdmModule>,
    middle: Vec<WdmModule>,
    output: Vec<WdmModule>,
}

/// A five-stage network as one photonic netlist.
#[derive(Debug, Clone)]
pub struct PhotonicFiveStage {
    outer_params: ThreeStageParams,
    inner_params: ThreeStageParams,
    output_model: MulticastModel,
    netlist: Netlist,
    stage1: Vec<WdmModule>,
    inners: Vec<InnerColumns>,
    stage5: Vec<WdmModule>,
}

impl PhotonicFiveStage {
    /// Build the netlist matching `five`'s geometry and models.
    pub fn build(five: &FiveStageNetwork, output_model: MulticastModel) -> Self {
        let outer = five.outer_params();
        let inner = five.inner_params();
        assert_eq!(five.outer().output_model(), output_model, "model mismatch");
        let first_two = match five.outer().construction() {
            Construction::MswDominant => MulticastModel::Msw,
            Construction::MawDominant => MulticastModel::Maw,
        };
        let (n, m, r, k) = (outer.n, outer.m, outer.r, outer.k);
        let mut nl = Netlist::new();

        let stage1: Vec<WdmModule> = (0..r)
            .map(|_| {
                WdmModule::build_into(
                    &mut nl,
                    ModuleSpec {
                        in_ports: n,
                        out_ports: m,
                        wavelengths: k,
                        model: first_two,
                    },
                )
            })
            .collect();
        let inners: Vec<InnerColumns> = (0..m)
            .map(|_| InnerColumns {
                input: (0..inner.r)
                    .map(|_| {
                        WdmModule::build_into(
                            &mut nl,
                            ModuleSpec {
                                in_ports: inner.n,
                                out_ports: inner.m,
                                wavelengths: k,
                                model: first_two,
                            },
                        )
                    })
                    .collect(),
                middle: (0..inner.m)
                    .map(|_| {
                        WdmModule::build_into(
                            &mut nl,
                            ModuleSpec {
                                in_ports: inner.r,
                                out_ports: inner.r,
                                wavelengths: k,
                                model: first_two,
                            },
                        )
                    })
                    .collect(),
                output: (0..inner.r)
                    .map(|_| {
                        WdmModule::build_into(
                            &mut nl,
                            ModuleSpec {
                                in_ports: inner.m,
                                out_ports: inner.n,
                                wavelengths: k,
                                model: first_two,
                            },
                        )
                    })
                    .collect(),
            })
            .collect();
        let stage5: Vec<WdmModule> = (0..r)
            .map(|_| {
                WdmModule::build_into(
                    &mut nl,
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
            let inp = nl.add(Component::InputPort(PortId(p)));
            let (a, local) = outer.input_module_of(p);
            nl.connect_simple(inp, stage1[a as usize].input_taps[local as usize]);
        }
        // Stage 1 → inner stage 2: outer input module a, output j feeds
        // middle j's inner input port a.
        for a in 0..r {
            for j in 0..m {
                let (im, local) = inner.input_module_of(a);
                nl.connect_simple(
                    stage1[a as usize].output_muxes[j as usize],
                    inners[j as usize].input[im as usize].input_taps[local as usize],
                );
            }
        }
        // Inner wiring inside each expanded middle.
        for cols in &inners {
            for (ii, im) in cols.input.iter().enumerate() {
                for (jj, mm) in cols.middle.iter().enumerate() {
                    nl.connect_simple(im.output_muxes[jj], mm.input_taps[ii]);
                }
            }
            for (jj, mm) in cols.middle.iter().enumerate() {
                for (pp, om) in cols.output.iter().enumerate() {
                    nl.connect_simple(mm.output_muxes[pp], om.input_taps[jj]);
                }
            }
        }
        // Inner stage 4 → stage 5: middle j's inner output port p feeds
        // outer output module p at its input j.
        for j in 0..m {
            for p in 0..r {
                let (om, local) = inner.output_module_of(p);
                nl.connect_simple(
                    inners[j as usize].output[om as usize].output_muxes[local as usize],
                    stage5[p as usize].input_taps[j as usize],
                );
            }
        }
        for p in 0..n * r {
            let out = nl.add(Component::OutputPort(PortId(p)));
            let (b, local) = outer.output_module_of(p);
            nl.connect_simple(stage5[b as usize].output_muxes[local as usize], out);
        }

        let ph = PhotonicFiveStage {
            outer_params: outer,
            inner_params: inner,
            output_model,
            netlist: nl,
            stage1,
            inners,
            stage5,
        };
        debug_assert!(
            ph.netlist.validate().is_empty(),
            "{:?}",
            ph.netlist.validate()
        );
        ph
    }

    /// Component census of the full five-stage netlist.
    pub fn census(&self) -> Census {
        Census::of(&self.netlist)
    }

    /// The composed device graph.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// End-to-end worst-case power budget (five cascaded stages).
    pub fn power_budget(&self, params: &PowerParams) -> PowerBudget {
        PowerBudget::analyze(&self.netlist, params)
    }

    /// Program all five stages from `five`'s live routing state, shine
    /// light, and verify exact delivery.
    pub fn realize(&mut self, five: &FiveStageNetwork) -> Result<PropagationOutcome, FabricError> {
        assert_eq!(
            five.outer_params(),
            self.outer_params,
            "outer geometry mismatch"
        );
        assert_eq!(
            five.inner_params(),
            self.inner_params,
            "inner geometry mismatch"
        );

        for module in self
            .stage1
            .iter()
            .chain(
                self.inners
                    .iter()
                    .flat_map(|c| c.input.iter().chain(&c.middle).chain(&c.output)),
            )
            .chain(&self.stage5)
        {
            module.reset(&mut self.netlist);
        }

        let k = self.outer_params.k;

        // Outer stages 1 and 5 from the outer routed connections.
        let outer = five.outer();
        for conn in outer.assignment().connections() {
            let src = conn.source();
            let routed = outer.route_of(src).unwrap();
            let (a, local_in) = self.outer_params.input_module_of(src.port.0);
            for branch in &routed.branches {
                let in_flat = Endpoint::new(local_in, src.wavelength.0).flat_index(k);
                let out_flat = Endpoint::new(branch.middle, branch.input_wavelength).flat_index(k);
                self.stage1[a as usize].set_gate(&mut self.netlist, in_flat, out_flat, true);
                for leg in &branch.legs {
                    let p = leg.out_module as usize;
                    let in_flat = Endpoint::new(branch.middle, leg.wavelength).flat_index(k);
                    if self.output_model == MulticastModel::Msdw {
                        self.stage5[p].program_input_converter(
                            &mut self.netlist,
                            in_flat,
                            Some(leg.dests(conn.destinations())[0].wavelength),
                        );
                    }
                    for &dest in leg.dests(conn.destinations()) {
                        let (_, local_out) = self.outer_params.output_module_of(dest.port.0);
                        let out_flat = Endpoint::new(local_out, dest.wavelength.0).flat_index(k);
                        self.stage5[p].set_gate(&mut self.netlist, in_flat, out_flat, true);
                    }
                }
            }
        }

        // Inner stages 2–4 from each inner network's routed connections.
        for (j, cols) in self.inners.iter().enumerate() {
            let net = five.inner(j as u32);
            for conn in net.assignment().connections() {
                let routed = net.route_of(conn.source()).unwrap();
                let src = conn.source();
                let (im, local_in) = self.inner_params.input_module_of(src.port.0);
                for branch in &routed.branches {
                    let in_flat = Endpoint::new(local_in, src.wavelength.0).flat_index(k);
                    let out_flat =
                        Endpoint::new(branch.middle, branch.input_wavelength).flat_index(k);
                    cols.input[im as usize].set_gate(&mut self.netlist, in_flat, out_flat, true);
                    for leg in &branch.legs {
                        let mid_in = Endpoint::new(im, branch.input_wavelength).flat_index(k);
                        let mid_out = Endpoint::new(leg.out_module, leg.wavelength).flat_index(k);
                        cols.middle[branch.middle as usize].set_gate(
                            &mut self.netlist,
                            mid_in,
                            mid_out,
                            true,
                        );
                        for &dest in leg.dests(conn.destinations()) {
                            let (_, local_out) = self.inner_params.output_module_of(dest.port.0);
                            let in_flat =
                                Endpoint::new(branch.middle, leg.wavelength).flat_index(k);
                            let out_flat =
                                Endpoint::new(local_out, dest.wavelength.0).flat_index(k);
                            cols.output[self.inner_params.output_module_of(dest.port.0).0 as usize]
                                .set_gate(&mut self.netlist, in_flat, out_flat, true);
                        }
                    }
                }
            }
        }

        let outcome = propagate_assignment(&self.netlist, five.assignment());
        outcome.check_delivery(five.assignment())?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::MulticastConnection;

    fn conn(src: (u32, u32), dests: &[(u32, u32)]) -> MulticastConnection {
        MulticastConnection::new(
            Endpoint::new(src.0, src.1),
            dests.iter().map(|&(p, w)| Endpoint::new(p, w)),
        )
        .unwrap()
    }

    #[test]
    fn census_matches_the_stagewise_cost() {
        let five = FiveStageNetwork::square(16, 2, Construction::MswDominant, MulticastModel::Msw);
        let photonic = PhotonicFiveStage::build(&five, MulticastModel::Msw);
        assert_eq!(
            photonic.census().gates,
            five.crosspoints(MulticastModel::Msw)
        );
        assert!(photonic.netlist().validate().is_empty());
    }

    #[test]
    fn light_crosses_five_stages() {
        let mut five =
            FiveStageNetwork::square(16, 2, Construction::MswDominant, MulticastModel::Msw);
        five.connect(&conn((0, 0), &[(3, 0), (7, 0), (11, 0), (15, 0)]))
            .unwrap();
        five.connect(&conn((5, 1), &[(0, 1), (9, 1)])).unwrap();
        let mut photonic = PhotonicFiveStage::build(&five, MulticastModel::Msw);
        let outcome = photonic
            .realize(&five)
            .expect("light must cross all five stages");
        assert!(outcome.delivered_exactly(five.assignment()));
    }

    #[test]
    fn five_stage_churn_stays_physical() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut five =
            FiveStageNetwork::square(16, 2, Construction::MswDominant, MulticastModel::Msw);
        let mut photonic = PhotonicFiveStage::build(&five, MulticastModel::Msw);
        let frame = five.network();
        let mut rng = StdRng::seed_from_u64(23);
        let mut live: Vec<Endpoint> = Vec::new();
        for step in 0..40 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let i = rng.gen_range(0..live.len());
                five.disconnect(live.swap_remove(i)).unwrap();
            } else {
                let src = Endpoint::new(
                    rng.gen_range(0..frame.ports),
                    rng.gen_range(0..frame.wavelengths),
                );
                if five.assignment().input_busy(src) {
                    continue;
                }
                let dests: Vec<Endpoint> = (0..frame.ports)
                    .filter(|_| rng.gen_bool(0.25))
                    .map(|p| Endpoint::new(p, src.wavelength.0))
                    .filter(|&d| five.assignment().output_user(d).is_none())
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                if five
                    .connect(&MulticastConnection::new(src, dests).unwrap())
                    .is_ok()
                {
                    live.push(src);
                }
            }
            let outcome = photonic
                .realize(&five)
                .unwrap_or_else(|e| panic!("photonic divergence at step {step}: {e}"));
            assert!(outcome.delivered_exactly(five.assignment()), "step {step}");
        }
    }

    #[test]
    fn maw_dominant_five_stage_converts_in_hardware() {
        let mut five =
            FiveStageNetwork::square(16, 2, Construction::MawDominant, MulticastModel::Maw);
        five.connect(&conn((0, 0), &[(3, 1), (7, 0), (12, 1)]))
            .unwrap();
        let mut photonic = PhotonicFiveStage::build(&five, MulticastModel::Maw);
        let outcome = photonic.realize(&five).unwrap();
        assert!(outcome.delivered_exactly(five.assignment()));
    }
}
