//! The endpoint-list bodies of `HotspotGen::next_request` and
//! `AdversarialGen::next_request` that the word scans replaced, kept
//! verbatim as the differential tests' reference: on seeded churns over
//! every model and several geometries, both generators must return the
//! same request and leave their RNG on the same next draw after every
//! call.

use crate::adversarial::{AdversarialGen, Geometry};
use crate::hotspot::HotspotGen;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;
use wdm_core::{Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig};

/// The hotspot generator as it was: the same fields and draws.
struct OldHotspot {
    geo: Geometry,
    model: MulticastModel,
    hot: u32,
    skew_pct: u32,
    fanout: Option<u32>,
    rng: StdRng,
}

impl OldHotspot {
    fn next_request(&mut self, asg: &MulticastAssignment) -> Option<MulticastConnection> {
        let net = asg.network();
        debug_assert_eq!(net.ports, self.geo.ports());

        // Uniform source over the free input endpoints.
        let free: Vec<Endpoint> = (0..self.geo.ports())
            .flat_map(|p| (0..self.geo.k).map(move |w| Endpoint::new(p, w)))
            .filter(|&e| !asg.input_busy(e))
            .collect();
        if free.is_empty() {
            return None;
        }
        let src = free[self.rng.gen_range(0..free.len())];

        let mut modules = BTreeSet::new();
        match self.fanout {
            // Pinned fanout: the hot module joins with probability
            // `skew_pct`%, the rest fill uniformly — request size (and
            // thus offered load) is independent of the skew.
            Some(fanout) => {
                if self.rng.gen_bool(f64::from(self.skew_pct) / 100.0) {
                    modules.insert(self.hot);
                }
                while (modules.len() as u32) < fanout {
                    modules.insert(self.rng.gen_range(0..self.geo.r));
                }
            }
            // Variable fanout: a few destination-module picks, each
            // skewed toward the hot module; duplicates merge, so
            // effective fanout shrinks as skew grows — concentration,
            // not extra load.
            None => {
                let picks = self.rng.gen_range(1..=self.geo.r.min(4));
                for _ in 0..picks {
                    let m = if self.rng.gen_bool(f64::from(self.skew_pct) / 100.0) {
                        self.hot
                    } else {
                        self.rng.gen_range(0..self.geo.r)
                    };
                    modules.insert(m);
                }
            }
        }

        let dest_wl = match self.model {
            MulticastModel::Msw => src.wavelength.0,
            _ => self.rng.gen_range(0..self.geo.k),
        };
        let mut dests = Vec::new();
        for b in modules {
            'module: for p in self.geo.module_ports(b) {
                let wl_order: Vec<u32> = match self.model {
                    MulticastModel::Msw => vec![src.wavelength.0],
                    MulticastModel::Msdw => vec![dest_wl],
                    MulticastModel::Maw => (0..self.geo.k).collect(),
                };
                for w in wl_order {
                    let ep = Endpoint::new(p, w);
                    if asg.output_user(ep).is_none() {
                        dests.push(ep);
                        break 'module;
                    }
                }
            }
        }
        if dests.is_empty() {
            return None;
        }
        Some(MulticastConnection::new(src, dests).expect("one port per module"))
    }
}

/// The adversarial generator as it was.
struct OldAdversarial {
    geo: Geometry,
    model: MulticastModel,
    rng: StdRng,
}

impl OldAdversarial {
    fn next_request(&mut self, asg: &MulticastAssignment) -> Option<MulticastConnection> {
        let net = asg.network();
        debug_assert_eq!(net.ports, self.geo.ports());

        // Pick the input module with the most busy sources that still has
        // a free source endpoint.
        let mut best: Option<(usize, Endpoint)> = None;
        for a in 0..self.geo.r {
            let ports = self.geo.module_ports(a);
            let busy = ports
                .clone()
                .flat_map(|p| (0..self.geo.k).map(move |w| Endpoint::new(p, w)))
                .filter(|&e| asg.input_busy(e))
                .count();
            let free = ports
                .clone()
                .flat_map(|p| (0..self.geo.k).map(move |w| Endpoint::new(p, w)))
                .find(|&e| !asg.input_busy(e));
            if let Some(src) = free {
                if best.is_none_or(|(b, _)| busy > b) {
                    best = Some((busy, src));
                }
            }
        }
        let (_, src) = best?;

        // One destination in every output module that still has a free
        // endpoint on a compatible wavelength.
        let dest_wl = match self.model {
            MulticastModel::Msw => src.wavelength.0,
            _ => self.rng.gen_range(0..self.geo.k),
        };
        let mut dests = Vec::new();
        for b in 0..self.geo.r {
            'module: for p in self.geo.module_ports(b) {
                let wl_order: Vec<u32> = match self.model {
                    MulticastModel::Msw => vec![src.wavelength.0],
                    MulticastModel::Msdw => vec![dest_wl],
                    MulticastModel::Maw => (0..self.geo.k).collect(),
                };
                for w in wl_order {
                    let ep = Endpoint::new(p, w);
                    if asg.output_user(ep).is_none() {
                        dests.push(ep);
                        break 'module;
                    }
                }
            }
        }
        if dests.is_empty() {
            return None;
        }
        Some(MulticastConnection::new(src, dests).expect("one port per module"))
    }
}

const MODELS: [MulticastModel; 3] = [
    MulticastModel::Msw,
    MulticastModel::Msdw,
    MulticastModel::Maw,
];

/// The graph workload's, G1, G2, two-word wavelength rows (k = 70), more
/// than 64 modules (r = 70), and one small enough to run out of sources.
const GEOMETRIES: [Geometry; 6] = [
    Geometry { n: 4, r: 16, k: 4 },
    Geometry { n: 8, r: 16, k: 4 },
    Geometry { n: 16, r: 32, k: 8 },
    Geometry { n: 2, r: 4, k: 70 },
    Geometry { n: 1, r: 70, k: 2 },
    Geometry { n: 1, r: 3, k: 2 },
];

/// Churn a mirror of `geo` under `model` for `steps` calls of `step`,
/// which offers the same state to the new and the old generator and
/// returns both requests and both RNGs' next draws. The first half of
/// the run fills the mirror towards saturation, the second drains it.
fn differential(
    geo: Geometry,
    model: MulticastModel,
    seed: u64,
    mut step: impl FnMut(
        &MulticastAssignment,
    ) -> (
        Option<MulticastConnection>,
        Option<MulticastConnection>,
        u64,
        u64,
    ),
) -> usize {
    let steps = 400;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
    let mut asg = MulticastAssignment::new(NetworkConfig::new(geo.ports(), geo.k), model);
    let mut live: Vec<Endpoint> = Vec::new();
    let mut refused = 0;
    for i in 0..steps {
        let p_leave = if i < steps / 2 { 0.2 } else { 0.6 };
        if !live.is_empty() && rng.gen_bool(p_leave) {
            let src = live.swap_remove(rng.gen_range(0..live.len()));
            asg.remove(src).expect("mirror tracked this source");
            continue;
        }
        let (new, old, new_draw, old_draw) = step(&asg);
        let at = format!("{geo:?} {model:?} seed {seed} step {i}");
        assert_eq!(new, old, "request differs at {at}");
        assert_eq!(new_draw, old_draw, "next draw differs at {at}");
        match new {
            Some(req) => {
                live.push(req.source());
                asg.add(req).expect("the generator offers legal requests");
            }
            None => refused += 1,
        }
    }
    refused
}

#[test]
fn hotspot_matches_the_reference() {
    let mut refused = 0;
    for geo in GEOMETRIES {
        for model in MODELS {
            for fanout in [None, Some(3)] {
                for seed in 0..3 {
                    let hot = seed as u32 % geo.r;
                    let skew_pct = [0, 60, 100][seed as usize];
                    let mut new = HotspotGen::new(geo, model, hot, skew_pct, seed);
                    if let Some(f) = fanout {
                        new = new.with_fanout(f);
                    }
                    let mut old = OldHotspot {
                        geo,
                        model,
                        hot,
                        skew_pct,
                        fanout: fanout.map(|f| f.min(geo.r)),
                        rng: StdRng::seed_from_u64(seed),
                    };
                    refused += differential(geo, model, seed, |asg| {
                        let (a, b) = (new.next_request(asg), old.next_request(asg));
                        (a, b, new.rng_mut().next_u64(), old.rng.next_u64())
                    });
                }
            }
        }
    }
    assert!(refused > 0, "no churn reached a refusal");
}

#[test]
fn adversarial_matches_the_reference() {
    let mut refused = 0;
    for geo in GEOMETRIES {
        for model in MODELS {
            for seed in 0..3 {
                let mut new = AdversarialGen::new(geo, model, seed);
                let mut old = OldAdversarial {
                    geo,
                    model,
                    rng: StdRng::seed_from_u64(seed),
                };
                refused += differential(geo, model, seed, |asg| {
                    let (a, b) = (new.next_request(asg), old.next_request(asg));
                    (a, b, new.rng_mut().next_u64(), old.rng.next_u64())
                });
            }
        }
    }
    assert!(refused > 0, "no churn reached a refusal");
}
