//! Light propagation through a netlist.
//!
//! Signals are injected at input ports and pushed through the DAG in
//! topological order. Each component transforms the signal sets on its
//! incoming fibers into signal sets on its outgoing fibers; physical
//! conflicts (wavelength collisions, multi-lit combiners, overloaded
//! converters) are collected rather than short-circuited, so a single run
//! reports every problem in the configuration.
//!
//! Every gate-level verifier — the crossbar, the crossbar session and the
//! photonic three- and five-stage networks — lights its fabric with
//! [`propagate_assignment`] and judges the result with
//! [`PropagationOutcome::check_delivery`].

use crate::{Component, EdgeId, FabricError, Netlist, PropagationError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wdm_core::{Endpoint, MulticastAssignment, WavelengthId};

/// A light signal: where it entered the network and the wavelength it is
/// currently carried on (converters rewrite the latter, never the former).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Signal {
    /// The input endpoint that injected this signal.
    pub origin: Endpoint,
    /// Current wavelength.
    pub wavelength: WavelengthId,
}

/// Result of one propagation run.
#[derive(Debug, Clone)]
pub struct PropagationOutcome {
    /// Signals observed at each output endpoint `(port, λ)`.
    received: BTreeMap<Endpoint, Vec<Signal>>,
    /// All physical conflicts encountered.
    pub errors: Vec<PropagationError>,
    /// Edge occupancy: how many signals each fiber carried (for power /
    /// crosstalk analysis).
    pub edge_load: Vec<u8>,
    /// First-order crosstalk exposure per output port: the number of
    /// *off* SOA gates that had light on their input and whose output
    /// chain reaches the port. Each is a leakage path contributing
    /// `ε`-level crosstalk in a real device — the concrete form of the
    /// paper's remark (§2.3) that the crosspoint count "may also be used
    /// to project the crosstalk … inside a WDM switch".
    pub crosstalk_exposure: BTreeMap<u32, u32>,
    /// Signals carried by every fiber segment (indexed by edge id) — the
    /// raw data behind [`crate::path::trace_signal`].
    pub edge_signals: Vec<Vec<Signal>>,
}

impl PropagationOutcome {
    /// Signals observed at output endpoint `ep`.
    pub fn received_at(&self, ep: Endpoint) -> &[Signal] {
        self.received.get(&ep).map_or(&[], Vec::as_slice)
    }

    /// Endpoints that received at least one signal.
    pub fn lit_outputs(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.received.keys().copied()
    }

    /// `true` iff propagation raised no physical conflicts.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Total first-order crosstalk leakage paths across all output ports.
    pub fn total_crosstalk_exposure(&self) -> u64 {
        self.crosstalk_exposure.values().map(|&c| c as u64).sum()
    }

    /// Judge exact delivery of `asg`: no physical conflicts, every
    /// destination of every connection received exactly the signal its
    /// source injected (on the destination's own wavelength), and no
    /// other output endpoint is lit. The error names the first endpoint
    /// that deviates.
    pub fn check_delivery(&self, asg: &MulticastAssignment) -> Result<(), FabricError> {
        if !self.is_clean() {
            return Err(FabricError::Propagation(self.errors.clone()));
        }
        for conn in asg.connections() {
            for &d in conn.destinations() {
                let want = Signal {
                    origin: conn.source(),
                    wavelength: d.wavelength,
                };
                if self.received_at(d) != [want] {
                    return Err(FabricError::DeliveryFailure { endpoint: d });
                }
            }
        }
        // Spurious light on an endpoint no connection claims.
        match self.lit_outputs().find(|&ep| asg.output_user(ep).is_none()) {
            Some(endpoint) => Err(FabricError::DeliveryFailure { endpoint }),
            None => Ok(()),
        }
    }

    /// `true` iff [`check_delivery`](Self::check_delivery) passes.
    pub fn delivered_exactly(&self, asg: &MulticastAssignment) -> bool {
        self.check_delivery(asg).is_ok()
    }
}

/// Shine every source of `asg` into `netlist` on its own wavelength and
/// propagate. The fabric is read as configured; no gate is touched.
pub fn propagate_assignment(netlist: &Netlist, asg: &MulticastAssignment) -> PropagationOutcome {
    let mut injections: BTreeMap<u32, Vec<Signal>> = BTreeMap::new();
    for conn in asg.connections() {
        let src = conn.source();
        injections.entry(src.port.0).or_default().push(Signal {
            origin: src,
            wavelength: src.wavelength,
        });
    }
    propagate(netlist, &injections)
}

/// Propagate the injected signals through `netlist`.
///
/// `injections` maps each input port id to the signals entering on its
/// fiber. Returns the full outcome; callers decide whether conflicts are
/// fatal.
pub fn propagate(netlist: &Netlist, injections: &BTreeMap<u32, Vec<Signal>>) -> PropagationOutcome {
    let mut edge_signals: Vec<Vec<Signal>> = vec![Vec::new(); netlist.edge_count()];
    let mut errors = Vec::new();
    let mut received: BTreeMap<Endpoint, Vec<Signal>> = BTreeMap::new();

    for node in netlist.topological_order() {
        let incoming: Vec<(EdgeId, &[Signal])> = netlist
            .in_edges(node)
            .iter()
            .map(|&e| (e, edge_signals[e.0].as_slice()))
            .collect();
        let gathered: Vec<Signal> = incoming
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();

        // Per-component transfer function; produces the signal set for
        // each outgoing edge (by slot).
        let outputs: Vec<(EdgeId, Vec<Signal>)> = match netlist.component(node) {
            Component::InputPort(port) => {
                let sigs = injections.get(&port.0).cloned().unwrap_or_default();
                netlist
                    .out_edges(node)
                    .iter()
                    .map(|&e| (e, sigs.clone()))
                    .collect()
            }
            Component::Demux => netlist
                .out_edges(node)
                .iter()
                .map(|&e| {
                    let slot = netlist.edge(e).from_slot;
                    let filtered: Vec<Signal> = gathered
                        .iter()
                        .copied()
                        .filter(|s| s.wavelength.0 == slot)
                        .collect();
                    (e, filtered)
                })
                .collect(),
            Component::Splitter => netlist
                .out_edges(node)
                .iter()
                .map(|&e| (e, gathered.clone()))
                .collect(),
            Component::SoaGate { enabled, broken } => {
                let passes = *enabled && !*broken;
                netlist
                    .out_edges(node)
                    .iter()
                    .map(|&e| (e, if passes { gathered.clone() } else { Vec::new() }))
                    .collect()
            }
            Component::Converter { target, broken } => {
                if gathered.len() > 1 {
                    errors.push(PropagationError::ConverterOverload {
                        at: node,
                        signals: gathered.len(),
                    });
                }
                let converted: Vec<Signal> = gathered
                    .iter()
                    .map(|s| match (target, broken) {
                        (Some(t), false) => Signal {
                            origin: s.origin,
                            wavelength: *t,
                        },
                        _ => *s,
                    })
                    .collect();
                netlist
                    .out_edges(node)
                    .iter()
                    .map(|&e| (e, converted.clone()))
                    .collect()
            }
            Component::Combiner => {
                let lit = incoming.iter().filter(|(_, s)| !s.is_empty()).count();
                if lit > 1 {
                    errors.push(PropagationError::CombinerConflict {
                        at: node,
                        lit_inputs: lit,
                    });
                }
                netlist
                    .out_edges(node)
                    .iter()
                    .map(|&e| (e, gathered.clone()))
                    .collect()
            }
            Component::Mux => netlist
                .out_edges(node)
                .iter()
                .map(|&e| (e, gathered.clone()))
                .collect(),
            Component::OutputPort(port) => {
                for s in &gathered {
                    received
                        .entry(Endpoint {
                            port: *port,
                            wavelength: s.wavelength,
                        })
                        .or_default()
                        .push(*s);
                }
                Vec::new()
            }
        };

        for (e, sigs) in outputs {
            // Same-wavelength signals sharing a fiber interfere.
            let mut seen = std::collections::BTreeSet::new();
            for s in &sigs {
                if !seen.insert(s.wavelength) {
                    errors.push(PropagationError::WavelengthCollision {
                        at: netlist.edge(e).to,
                        wavelength: s.wavelength.0,
                    });
                }
            }
            edge_signals[e.0] = sigs;
        }
    }

    // Crosstalk pass: every off/broken gate whose input fiber is lit is a
    // leakage source; follow its (single-output) downstream chain to the
    // output port it would contaminate.
    let mut crosstalk_exposure: BTreeMap<u32, u32> = BTreeMap::new();
    for (node, comp) in netlist.iter() {
        let leaking = match comp {
            Component::SoaGate { enabled, broken } => {
                (!*enabled || *broken)
                    && netlist
                        .in_edges(node)
                        .iter()
                        .any(|&e| !edge_signals[e.0].is_empty())
            }
            _ => false,
        };
        if leaking {
            if let Some(port) = downstream_output_port(netlist, node) {
                *crosstalk_exposure.entry(port).or_insert(0) += 1;
            }
        }
    }

    let edge_load = edge_signals
        .iter()
        .map(|s| s.len().min(u8::MAX as usize) as u8)
        .collect();
    PropagationOutcome {
        received,
        errors,
        edge_load,
        crosstalk_exposure,
        edge_signals,
    }
}

/// Follow the unique downstream chain from `node` (gate → combiner →
/// converter? → mux → output port). Returns `None` if the chain forks or
/// dead-ends before an output port (possible in hand-built test graphs).
fn downstream_output_port(netlist: &Netlist, mut node: crate::NodeId) -> Option<u32> {
    for _ in 0..netlist.node_count() {
        let outs = netlist.out_edges(node);
        if outs.len() != 1 {
            return None;
        }
        node = netlist.edge(outs[0]).to;
        if let Component::OutputPort(p) = netlist.component(node) {
            return Some(p.0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use wdm_core::PortId;

    fn sig(p: u32, w: u32) -> Signal {
        Signal {
            origin: Endpoint::new(p, w),
            wavelength: WavelengthId(w),
        }
    }

    /// input ── splitter ──┬─ gate_a ── combiner ── output0
    ///                     └─ gate_b ── combiner2 ── output1
    fn two_way() -> (Netlist, NodeId, NodeId) {
        let mut nl = Netlist::new();
        let inp = nl.add(Component::InputPort(PortId(0)));
        let spl = nl.add(Component::Splitter);
        let ga = nl.add(Component::gate());
        let gb = nl.add(Component::gate());
        let ca = nl.add(Component::Combiner);
        let cb = nl.add(Component::Combiner);
        let oa = nl.add(Component::OutputPort(PortId(0)));
        let ob = nl.add(Component::OutputPort(PortId(1)));
        nl.connect_simple(inp, spl);
        nl.connect_simple(spl, ga);
        nl.connect_simple(spl, gb);
        nl.connect_simple(ga, ca);
        nl.connect_simple(gb, cb);
        nl.connect_simple(ca, oa);
        nl.connect_simple(cb, ob);
        (nl, ga, gb)
    }

    fn enable(nl: &mut Netlist, id: NodeId) {
        if let Component::SoaGate { enabled, .. } = nl.component_mut(id) {
            *enabled = true;
        }
    }

    #[test]
    fn disabled_gates_block_light() {
        let (nl, ..) = two_way();
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let out = propagate(&nl, &inj);
        assert!(out.is_clean());
        assert_eq!(out.lit_outputs().count(), 0);
    }

    #[test]
    fn splitter_multicasts_through_enabled_gates() {
        let (mut nl, ga, gb) = two_way();
        enable(&mut nl, ga);
        enable(&mut nl, gb);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let out = propagate(&nl, &inj);
        assert!(out.is_clean());
        assert_eq!(out.received_at(Endpoint::new(0, 0)), &[sig(0, 0)]);
        assert_eq!(out.received_at(Endpoint::new(1, 0)), &[sig(0, 0)]);
    }

    #[test]
    fn broken_gate_drops_signal() {
        let (mut nl, ga, _) = two_way();
        enable(&mut nl, ga);
        if let Component::SoaGate { broken, .. } = nl.component_mut(ga) {
            *broken = true;
        }
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let out = propagate(&nl, &inj);
        assert_eq!(out.lit_outputs().count(), 0);
    }

    #[test]
    fn combiner_conflict_detected() {
        // Two inputs into one combiner, both lit.
        let mut nl = Netlist::new();
        let i0 = nl.add(Component::InputPort(PortId(0)));
        let i1 = nl.add(Component::InputPort(PortId(1)));
        let comb = nl.add(Component::Combiner);
        let out = nl.add(Component::OutputPort(PortId(0)));
        nl.connect_simple(i0, comb);
        nl.connect_simple(i1, comb);
        nl.connect_simple(comb, out);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        inj.insert(1, vec![sig(1, 1)]);
        let o = propagate(&nl, &inj);
        assert_eq!(o.errors.len(), 1);
        assert!(matches!(
            o.errors[0],
            PropagationError::CombinerConflict { lit_inputs: 2, .. }
        ));
    }

    #[test]
    fn wavelength_collision_detected() {
        // Two same-λ signals merged by a mux.
        let mut nl = Netlist::new();
        let i0 = nl.add(Component::InputPort(PortId(0)));
        let i1 = nl.add(Component::InputPort(PortId(1)));
        let mux = nl.add(Component::Mux);
        let out = nl.add(Component::OutputPort(PortId(0)));
        nl.connect_simple(i0, mux);
        nl.connect_simple(i1, mux);
        nl.connect_simple(mux, out);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        inj.insert(
            1,
            vec![Signal {
                origin: Endpoint::new(1, 0),
                wavelength: WavelengthId(0),
            }],
        );
        let o = propagate(&nl, &inj);
        assert!(o.errors.iter().any(|e| matches!(
            e,
            PropagationError::WavelengthCollision { wavelength: 0, .. }
        )));
    }

    #[test]
    fn demux_separates_wavelengths() {
        let mut nl = Netlist::new();
        let inp = nl.add(Component::InputPort(PortId(0)));
        let dmx = nl.add(Component::Demux);
        let o0 = nl.add(Component::OutputPort(PortId(0)));
        let o1 = nl.add(Component::OutputPort(PortId(1)));
        nl.connect_simple(inp, dmx);
        nl.connect(dmx, 0, o0);
        nl.connect(dmx, 1, o1);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0), sig(0, 1)]);
        let o = propagate(&nl, &inj);
        assert!(o.is_clean());
        assert_eq!(o.received_at(Endpoint::new(0, 0)).len(), 1);
        assert_eq!(o.received_at(Endpoint::new(1, 1)).len(), 1);
        assert_eq!(o.received_at(Endpoint::new(0, 1)).len(), 0);
    }

    #[test]
    fn converter_rewrites_wavelength() {
        let mut nl = Netlist::new();
        let inp = nl.add(Component::InputPort(PortId(0)));
        let cvt = nl.add(Component::Converter {
            target: Some(WavelengthId(1)),
            broken: false,
        });
        let out = nl.add(Component::OutputPort(PortId(0)));
        nl.connect_simple(inp, cvt);
        nl.connect_simple(cvt, out);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let o = propagate(&nl, &inj);
        let got = o.received_at(Endpoint::new(0, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].origin, Endpoint::new(0, 0)); // origin preserved
        assert_eq!(got[0].wavelength, WavelengthId(1));
    }

    #[test]
    fn broken_converter_is_transparent() {
        let mut nl = Netlist::new();
        let inp = nl.add(Component::InputPort(PortId(0)));
        let cvt = nl.add(Component::Converter {
            target: Some(WavelengthId(1)),
            broken: true,
        });
        let out = nl.add(Component::OutputPort(PortId(0)));
        nl.connect_simple(inp, cvt);
        nl.connect_simple(cvt, out);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let o = propagate(&nl, &inj);
        assert_eq!(o.received_at(Endpoint::new(0, 0)).len(), 1);
        assert_eq!(o.received_at(Endpoint::new(0, 1)).len(), 0);
    }

    #[test]
    fn crosstalk_counts_lit_off_gates() {
        let (mut nl, ga, _gb) = two_way();
        enable(&mut nl, ga); // gb stays off but its input is lit
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0)]);
        let out = propagate(&nl, &inj);
        // gb leaks toward output port 1.
        assert_eq!(out.crosstalk_exposure.get(&1), Some(&1));
        assert_eq!(out.crosstalk_exposure.get(&0), None);
        assert_eq!(out.total_crosstalk_exposure(), 1);
    }

    #[test]
    fn no_crosstalk_without_light() {
        let (nl, ..) = two_way(); // both gates off, nothing injected
        let out = propagate(&nl, &BTreeMap::new());
        assert_eq!(out.total_crosstalk_exposure(), 0);
    }

    #[test]
    fn converter_overload_detected() {
        let mut nl = Netlist::new();
        let inp = nl.add(Component::InputPort(PortId(0)));
        let cvt = nl.add(Component::Converter {
            target: Some(WavelengthId(0)),
            broken: false,
        });
        let out = nl.add(Component::OutputPort(PortId(0)));
        nl.connect_simple(inp, cvt);
        nl.connect_simple(cvt, out);
        let mut inj = BTreeMap::new();
        inj.insert(0, vec![sig(0, 0), sig(0, 1)]); // two signals hit the converter
        let o = propagate(&nl, &inj);
        assert!(o
            .errors
            .iter()
            .any(|e| matches!(e, PropagationError::ConverterOverload { signals: 2, .. })));
    }
}
