//! Hotspot traffic: one module draws a configurable fraction of all
//! destination picks.
//!
//! Where [`crate::adversarial`] manufactures the *worst case* the
//! nonblocking proofs must absorb, this generator models the *skewed
//! average case* the graph-topology experiments need: a popular content
//! server or egress gateway whose node receives most of the traffic.
//! On sparse-splitter rings this concentration is exactly what turns
//! mild load into blocking — every structure fights for the few
//! wavelengths on the fibers converging on the hot node.

use crate::adversarial::{churn, Geometry};
use crate::dynamic::TimedEvent;
use crate::scan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_core::bitset::{count_ones, ones, set_bit, words_for};
use wdm_core::{MulticastAssignment, MulticastConnection, MulticastModel};

/// Generator of hotspot-skewed request sequences.
///
/// Sources are drawn uniformly over free input endpoints. Each request
/// fans out to a few modules; every destination-module pick lands on the
/// `hot` module with probability `skew_pct`% and uniformly otherwise, so
/// `skew_pct = 0` is uniform traffic and `skew_pct = 100` aims every
/// destination at the hotspot (overflowing to other modules only when
/// the hot module has no free endpoint left).
#[derive(Debug)]
pub struct HotspotGen {
    geo: Geometry,
    model: MulticastModel,
    hot: u32,
    skew_pct: u32,
    fanout: Option<u32>,
    rng: StdRng,
    /// The modules picked for the request being drawn, one bit each.
    modules: Vec<u64>,
}

impl HotspotGen {
    /// Create a generator for `geo` under `model`, with module `hot`
    /// drawing `skew_pct`% (clamped to 100) of destination picks.
    ///
    /// # Panics
    ///
    /// Panics when `hot` is not a module of `geo`.
    pub fn new(geo: Geometry, model: MulticastModel, hot: u32, skew_pct: u32, seed: u64) -> Self {
        assert!(hot < geo.r, "hot module {hot} out of range (r = {})", geo.r);
        HotspotGen {
            geo,
            model,
            hot,
            skew_pct: skew_pct.min(100),
            fanout: None,
            rng: StdRng::seed_from_u64(seed),
            modules: vec![0; words_for(geo.r)],
        }
    }

    /// Pin every request to exactly `fanout` distinct destination
    /// modules (capped at `r`). With the default variable fanout,
    /// skewed picks merge and the offered load *shrinks* as skew grows;
    /// pinning the fanout holds load fixed so experiments measure
    /// concentration alone. The hot module then joins the set with
    /// probability `skew_pct`% and the remaining slots fill uniformly.
    pub fn with_fanout(mut self, fanout: u32) -> Self {
        assert!(fanout >= 1, "fanout must be at least 1");
        self.fanout = Some(fanout.min(self.geo.r));
        self
    }

    /// The generator's RNG, for the differential tests to compare its
    /// next draw with the reference's.
    #[cfg(test)]
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The next skewed request against `asg`, or `None` when no legal
    /// request exists (no free source, or no free destination in any
    /// picked module).
    pub fn next_request(&mut self, asg: &MulticastAssignment) -> Option<MulticastConnection> {
        debug_assert_eq!(asg.network().ports, self.geo.ports());

        // Uniform source over the free inputs (a connection holds one).
        let free = asg.network().endpoints_per_side() as usize - asg.len();
        if free == 0 {
            return None;
        }
        let src = scan::nth_free_input(asg, self.rng.gen_range(0..free));

        self.modules.fill(0);
        match self.fanout {
            // Pinned fanout: the hot module joins with probability
            // `skew_pct`%, the rest fill uniformly — request size (and
            // thus offered load) is independent of the skew.
            Some(fanout) => {
                if self.rng.gen_bool(f64::from(self.skew_pct) / 100.0) {
                    set_bit(&mut self.modules, self.hot);
                }
                while count_ones(&self.modules) < fanout {
                    set_bit(&mut self.modules, self.rng.gen_range(0..self.geo.r));
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
                    set_bit(&mut self.modules, m);
                }
            }
        }
        let fanout = count_ones(&self.modules) as usize;
        scan::request(
            asg,
            self.geo,
            self.model,
            &mut self.rng,
            src,
            ones(&self.modules),
            fanout,
        )
    }

    /// A seeded churn trace with the same connect/depart mix as
    /// [`crate::adversarial::AdversarialGen::churn_trace`] (40% departure
    /// pressure, endpoint-legal by construction, not closed), but with
    /// hotspot-skewed requests.
    pub fn churn_trace(&mut self, steps: usize) -> Vec<TimedEvent> {
        let (geo, model) = (self.geo, self.model);
        churn(self, geo, model, steps, |g| &mut g.rng, Self::next_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use std::collections::BTreeSet;
    use wdm_core::NetworkConfig;

    fn geo() -> Geometry {
        Geometry { n: 2, r: 5, k: 2 }
    }

    #[test]
    fn full_skew_aims_every_destination_at_the_hotspot() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = HotspotGen::new(g, MulticastModel::Msw, 3, 100, 7);
        for _ in 0..10 {
            let req = gen.next_request(&asg).unwrap();
            assert!(req.destinations().iter().all(|d| d.port.0 / g.n == 3));
        }
    }

    #[test]
    fn zero_skew_spreads_over_modules() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = HotspotGen::new(g, MulticastModel::Msw, 0, 0, 11);
        let mut seen = BTreeSet::new();
        for _ in 0..60 {
            let req = gen.next_request(&asg).unwrap();
            for d in req.destinations() {
                seen.insert(d.port.0 / g.n);
            }
        }
        assert!(seen.len() >= 4, "uniform picks cover modules, saw {seen:?}");
    }

    #[test]
    fn msw_requests_stay_wavelength_homogeneous() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        let mut gen = HotspotGen::new(g, MulticastModel::Msw, 1, 60, 5);
        let req = gen.next_request(&asg).unwrap();
        assert!(req
            .destinations()
            .iter()
            .all(|d| d.wavelength == req.source().wavelength));
    }

    #[test]
    fn churn_trace_is_seeded_and_legal() {
        let g = geo();
        let a = HotspotGen::new(g, MulticastModel::Msw, 2, 80, 9).churn_trace(50);
        let b = HotspotGen::new(g, MulticastModel::Msw, 2, 80, 9).churn_trace(50);
        assert_eq!(a.len(), 50);
        assert_eq!(
            a.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            b.iter()
                .map(|e| format!("{:?}", e.event))
                .collect::<Vec<_>>(),
            "same seed, same trace"
        );
        let mut live = std::collections::HashSet::new();
        for e in &a {
            match &e.event {
                TraceEvent::Connect(c) => assert!(live.insert(c.source())),
                TraceEvent::Disconnect(s) => assert!(live.remove(s)),
            }
        }
    }

    #[test]
    fn skew_shifts_destination_mass() {
        // At 90% skew, the hot module must receive a strict majority of
        // destination picks over a long trace; at 0% it must not.
        let g = geo();
        let share = |skew: u32| -> f64 {
            let trace = HotspotGen::new(g, MulticastModel::Msw, 4, skew, 13).churn_trace(200);
            let (mut hot, mut total) = (0usize, 0usize);
            for e in &trace {
                if let TraceEvent::Connect(c) = &e.event {
                    for d in c.destinations() {
                        total += 1;
                        hot += usize::from(d.port.0 / g.n == 4);
                    }
                }
            }
            hot as f64 / total as f64
        };
        assert!(share(90) > 0.6, "90% skew concentrates mass");
        assert!(share(0) < 0.5, "uniform traffic does not");
    }

    #[test]
    fn pinned_fanout_is_skew_independent() {
        let g = geo();
        let net = NetworkConfig::new(g.ports(), g.k);
        let asg = MulticastAssignment::new(net, MulticastModel::Msw);
        for skew in [0, 50, 100] {
            let mut gen = HotspotGen::new(g, MulticastModel::Msw, 2, skew, 3).with_fanout(3);
            for _ in 0..20 {
                let req = gen.next_request(&asg).unwrap();
                let modules: BTreeSet<u32> =
                    req.destinations().iter().map(|d| d.port.0 / g.n).collect();
                assert_eq!(modules.len(), 3, "skew {skew} changed the fanout");
            }
        }
    }

    #[test]
    fn hot_module_must_exist() {
        let g = geo();
        let r = std::panic::catch_unwind(|| HotspotGen::new(g, MulticastModel::Msw, 5, 50, 1));
        assert!(r.is_err());
    }
}
