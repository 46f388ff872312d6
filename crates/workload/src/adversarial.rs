//! Adversarial generators for three-stage networks.
//!
//! The worst cases in the proofs of Theorems 1–2 have a shape: many
//! connections from the *same input module*, each fanned out to *many
//! output modules*, all pinned to the *same wavelength* (for the
//! MSW-dominant construction). These generators produce exactly that
//! pressure, so the empirical nonblocking checks probe the theorems near
//! their tight spot rather than in the friendly average case.

use crate::dynamic::TimedEvent;
use crate::scan;
use crate::trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use wdm_core::bitset::count_ones;
use wdm_core::{MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig};

/// Three-stage geometry as seen by a workload generator (kept as plain
/// numbers so this crate does not depend on `wdm-multistage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// External ports per input/output module.
    pub n: u32,
    /// Modules per side.
    pub r: u32,
    /// Wavelengths per fiber.
    pub k: u32,
}

impl Geometry {
    /// External ports per side, `N = n·r`.
    pub fn ports(&self) -> u32 {
        self.n * self.r
    }

    /// Global port range of input module `a`.
    pub fn module_ports(&self, a: u32) -> std::ops::Range<u32> {
        (a * self.n)..((a + 1) * self.n)
    }
}

/// Generator of middle-stage-hostile request sequences.
#[derive(Debug)]
pub struct AdversarialGen {
    geo: Geometry,
    model: MulticastModel,
    rng: StdRng,
}

impl AdversarialGen {
    /// Create a generator for `geo` producing requests legal under
    /// `model`.
    pub fn new(geo: Geometry, model: MulticastModel, seed: u64) -> Self {
        AdversarialGen {
            geo,
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The generator's RNG, for the differential tests to compare its
    /// next draw with the reference's.
    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The next hostile request against `asg`: sourced in the most
    /// heavily used input module (to maximize link contention), on the
    /// most-used wavelength the module still has free, spread over as
    /// many *distinct output modules* as possible (one destination port
    /// per module, maximizing the middle-switch fan-out pressure).
    pub fn next_request(&mut self, asg: &MulticastAssignment) -> Option<MulticastConnection> {
        debug_assert_eq!(asg.network().ports, self.geo.ports());

        // Pick the input module with the most busy sources (the first
        // such) that still has a free source endpoint.
        let (geo, mask) = (self.geo, |p| asg.input_port_mask(p));
        let (_, src) = (0..geo.r)
            .filter_map(|a| {
                let ports = geo.module_ports(a);
                let busy: u32 = ports.clone().map(|p| count_ones(mask(p))).sum();
                Some((busy, scan::first_free(ports, geo.k, None, mask)?))
            })
            .min_by_key(|&(busy, _)| Reverse(busy))?;

        // One destination in every output module that still has a free
        // endpoint on a compatible wavelength.
        let rng = &mut self.rng;
        scan::request(asg, geo, self.model, rng, src, 0..geo.r, geo.r as usize)
    }

    /// A seeded *churn* trace: hostile connects interleaved with random
    /// departures, `steps` events long, fully determined by the
    /// generator's seed.
    ///
    /// Each step either admits the next hostile request (tracked in a
    /// local assignment mirror, so every request is endpoint-legal) or
    /// tears down a uniformly chosen live connection. The mix keeps the
    /// fabric near its contention peak — connections from the busiest
    /// input module appear, vanish, and reappear, which is exactly the
    /// traffic the middle-stage bounds must absorb. The trace is *not*
    /// closed; callers wanting every connection released append the
    /// missing departures with [`crate::close_trace`].
    pub fn churn_trace(&mut self, steps: usize) -> Vec<TimedEvent> {
        let (geo, model) = (self.geo, self.model);
        churn(self, geo, model, steps, |g| &mut g.rng, Self::next_request)
    }
}

/// The churn both generators' `churn_trace` run: a step departs a
/// uniformly chosen live connection with probability 0.4, else admits
/// `next`'s request into a local mirror (departing anyway when there is
/// none), drawing from `rng(gen)` in that order.
pub(crate) fn churn<G>(
    gen: &mut G,
    geo: Geometry,
    model: MulticastModel,
    steps: usize,
    rng: fn(&mut G) -> &mut StdRng,
    next: fn(&mut G, &MulticastAssignment) -> Option<MulticastConnection>,
) -> Vec<TimedEvent> {
    let mut asg = MulticastAssignment::new(NetworkConfig::new(geo.ports(), geo.k), model);
    let (mut live, mut events) = (Vec::new(), Vec::with_capacity(steps));
    while events.len() < steps {
        let depart = !live.is_empty() && rng(gen).gen_bool(0.4);
        let req = if depart { None } else { next(gen, &asg) };
        let event = match req {
            Some(req) => {
                live.push(req.source());
                asg.add(req.clone()).expect("mirror admits legal request");
                TraceEvent::Connect(req)
            }
            None if live.is_empty() => break, // saturated a degenerate geometry with nothing live
            None => {
                let src = live.swap_remove(rng(gen).gen_range(0..live.len()));
                asg.remove(src).expect("mirror tracked this source");
                TraceEvent::Disconnect(src)
            }
        };
        let time = (events.len() + 1) as f64;
        events.push(TimedEvent { time, event });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::NetworkConfig;

    fn geo() -> Geometry {
        Geometry { n: 3, r: 4, k: 2 }
    }

    #[test]
    fn geometry_addressing() {
        let g = geo();
        assert_eq!(g.ports(), 12);
        assert_eq!(g.module_ports(0), 0..3);
        assert_eq!(g.module_ports(3), 9..12);
    }

    #[test]
    fn requests_spread_across_modules() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = AdversarialGen::new(g, MulticastModel::Msw, 1);
        let req = gen.next_request(&asg).unwrap();
        // One destination in each of the r output modules.
        assert_eq!(req.fanout(), g.r as usize);
        let modules: std::collections::BTreeSet<u32> =
            req.destinations().iter().map(|d| d.port.0 / g.n).collect();
        assert_eq!(modules.len(), g.r as usize);
    }

    #[test]
    fn prefers_contended_input_module() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = AdversarialGen::new(g, MulticastModel::Msw, 2);
        // Route the first request, add it, then the second must come from
        // the same input module (it is now the busiest with free slots).
        let r1 = gen.next_request(&asg).unwrap();
        let m1 = r1.source().port.0 / g.n;
        asg.add(r1).unwrap();
        let r2 = gen.next_request(&asg).unwrap();
        let m2 = r2.source().port.0 / g.n;
        assert_eq!(m1, m2);
    }

    #[test]
    fn msw_requests_are_wavelength_homogeneous() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = AdversarialGen::new(g, MulticastModel::Msw, 3);
        let req = gen.next_request(&asg).unwrap();
        assert!(req
            .destinations()
            .iter()
            .all(|d| d.wavelength == req.source().wavelength));
    }

    #[test]
    fn churn_trace_is_seeded_and_legal() {
        let g = geo();
        let a = AdversarialGen::new(g, MulticastModel::Msw, 9).churn_trace(40);
        let b = AdversarialGen::new(g, MulticastModel::Msw, 9).churn_trace(40);
        assert_eq!(a.len(), 40);
        assert_eq!(
            a.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            "same seed, same trace"
        );
        let c = AdversarialGen::new(g, MulticastModel::Msw, 10).churn_trace(40);
        assert_ne!(
            a.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            c.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            "different seed, different trace"
        );
        // Per-endpoint legality: no connect while live, no stray departs.
        let mut live = std::collections::HashSet::new();
        for e in &a {
            match &e.event {
                TraceEvent::Connect(c) => assert!(live.insert(c.source())),
                TraceEvent::Disconnect(s) => assert!(live.remove(s)),
            }
        }
    }

    #[test]
    fn generator_exhausts_gracefully() {
        let g = Geometry { n: 1, r: 2, k: 1 };
        let net = NetworkConfig::new(2, 1);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = AdversarialGen::new(g, MulticastModel::Msw, 4);
        while let Some(req) = gen.next_request(&asg) {
            asg.add(req).unwrap();
        }
        // All sources or all destinations used.
        let no_src = net.endpoints().all(|e| asg.input_busy(e));
        let no_dst = net.endpoints().all(|e| asg.output_user(e).is_some());
        assert!(no_src || no_dst);
    }
}
