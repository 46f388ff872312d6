//! Random assignment and request generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_core::{
    Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig, OutputMap,
};

/// Seeded generator of random multicast assignments and requests.
///
/// ```
/// use wdm_core::{NetworkConfig, MulticastModel};
/// use wdm_workload::AssignmentGen;
///
/// let mut gen = AssignmentGen::new(NetworkConfig::new(8, 2), MulticastModel::Maw, 42);
/// let asg = gen.full_assignment();
/// assert!(asg.is_full());
/// let same = AssignmentGen::new(asg.network(), asg.model(), 42).full_assignment();
/// assert_eq!(asg.to_string(), same.to_string()); // deterministic
/// ```
#[derive(Debug)]
pub struct AssignmentGen {
    net: NetworkConfig,
    model: MulticastModel,
    rng: StdRng,
}

impl AssignmentGen {
    /// Create a generator for `net` under `model` with the given seed.
    pub fn new(net: NetworkConfig, model: MulticastModel, seed: u64) -> Self {
        AssignmentGen {
            net,
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The network frame.
    pub fn network(&self) -> NetworkConfig {
        self.net
    }

    /// Sample a uniformly random *full* assignment by sampling the output
    /// map the way the paper counts them: every output endpoint picks a
    /// source subject to the model's constraints, resampling per output
    /// port until the port's choices are valid (ports are independent, so
    /// this is exact per-port rejection sampling, not global retry).
    pub fn full_assignment(&mut self) -> MulticastAssignment {
        let map = self.sample_map(false);
        map.to_assignment(self.model).expect("sampled map is valid")
    }

    /// Sample a random *any*-assignment (each output endpoint may also
    /// stay idle).
    pub fn any_assignment(&mut self) -> MulticastAssignment {
        let map = self.sample_map(true);
        map.to_assignment(self.model).expect("sampled map is valid")
    }

    fn sample_map(&mut self, allow_idle: bool) -> OutputMap {
        // MSDW couples ports globally (all destinations of one source
        // share a wavelength), so it gets a constructive sampler; MSW and
        // MAW decompose per port and use cheap per-port rejection.
        if self.model == MulticastModel::Msdw {
            return self.sample_msdw_map(allow_idle);
        }
        let k = self.net.wavelengths;
        let nk = self.net.endpoints_per_side() as usize;
        let mut map = OutputMap::empty(self.net);
        for p in 0..self.net.ports {
            // Resample this port until its k choices are jointly valid.
            loop {
                let mut choices: Vec<Option<Endpoint>> = Vec::with_capacity(k as usize);
                for w in 0..k {
                    let idle = allow_idle && self.rng.gen_ratio(1, (nk + 1) as u32);
                    let choice = if idle {
                        None
                    } else {
                        Some(match self.model {
                            MulticastModel::Msw => {
                                Endpoint::new(self.rng.gen_range(0..self.net.ports), w)
                            }
                            _ => Endpoint::new(
                                self.rng.gen_range(0..self.net.ports),
                                self.rng.gen_range(0..k),
                            ),
                        })
                    };
                    choices.push(choice);
                }
                // Within-port injectivity.
                let used: Vec<Endpoint> = choices.iter().flatten().copied().collect();
                let mut sorted = used.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != used.len() {
                    continue;
                }
                for (w, c) in choices.into_iter().enumerate() {
                    map.set(Endpoint::new(p, w as u32), c);
                }
                break;
            }
        }
        debug_assert!(map.is_valid(self.model));
        map
    }

    /// Constructive MSDW sampler: walk the output endpoints; each either
    /// stays idle, joins an existing connection *on its own wavelength*,
    /// or starts a new connection with a fresh source. Valid by
    /// construction (one pass, no rejection), random but not exactly
    /// uniform over the Lemma 3 count — plenty for workload purposes.
    fn sample_msdw_map(&mut self, allow_idle: bool) -> OutputMap {
        let k = self.net.wavelengths;
        let nk = self.net.endpoints_per_side() as usize;
        let mut map = OutputMap::empty(self.net);
        // Per destination wavelength, sources of the open connections.
        let mut groups: Vec<Vec<Endpoint>> = vec![Vec::new(); k as usize];
        let mut used_source = vec![false; nk];
        for out in self.net.endpoints() {
            if allow_idle && self.rng.gen_ratio(1, (nk + 1) as u32) {
                continue;
            }
            let w = out.wavelength.0 as usize;
            // Join an existing group with probability proportional to the
            // group count, else open a new one (if a source is free).
            let join_existing = !groups[w].is_empty()
                && self
                    .rng
                    .gen_ratio(groups[w].len() as u32, (groups[w].len() + 2) as u32);
            if join_existing {
                let src = groups[w][self.rng.gen_range(0..groups[w].len())];
                map.set(out, Some(src));
                continue;
            }
            let free: Vec<usize> = (0..nk).filter(|&i| !used_source[i]).collect();
            match free.as_slice() {
                [] => {
                    // No fresh source left: join if possible, else idle.
                    if let Some(&src) = groups[w].first() {
                        map.set(out, Some(src));
                    }
                }
                choices => {
                    let idx = choices[self.rng.gen_range(0..choices.len())];
                    let src = Endpoint::from_flat_index(idx, k);
                    used_source[idx] = true;
                    groups[w].push(src);
                    map.set(out, Some(src));
                }
            }
        }
        debug_assert!(map.is_valid(MulticastModel::Msdw));
        map
    }

    /// Sample a random legal *next request* against `asg` — a connection
    /// that can be added without endpoint conflicts and that respects the
    /// model. Returns `None` when no free source or destination exists.
    ///
    /// `max_fanout` caps the destination count (0 = no cap).
    pub fn next_request(
        &mut self,
        asg: &MulticastAssignment,
        max_fanout: usize,
    ) -> Option<MulticastConnection> {
        let net = asg.network();
        let mut free_sources: Vec<Endpoint> =
            net.endpoints().filter(|&e| !asg.input_busy(e)).collect();
        if free_sources.is_empty() {
            return None;
        }
        shuffle(&mut free_sources, &mut self.rng);
        let cap = if max_fanout == 0 {
            net.ports as usize
        } else {
            max_fanout
        };
        let want = self.rng.gen_range(1..=cap.min(net.ports as usize));
        // MSDW: candidate group wavelengths, in random preference order —
        // the first with any free endpoint wins (a fixed choice could
        // miss requests that another wavelength still admits).
        let mut wl_prefs: Vec<u32> = (0..net.wavelengths).collect();
        shuffle(&mut wl_prefs, &mut self.rng);

        // A source may have no compatible free destinations (e.g. MSW with
        // its wavelength saturated at the output side) — try every free
        // source before declaring exhaustion.
        for &src in &free_sources {
            let group_wls: Vec<u32> = match asg.model() {
                MulticastModel::Msw => vec![src.wavelength.0],
                MulticastModel::Msdw => wl_prefs.clone(),
                // MAW has no group wavelength; one pass with free choice.
                MulticastModel::Maw => vec![0],
            };
            for &gw in &group_wls {
                let mut ports: Vec<u32> = (0..net.ports).collect();
                shuffle(&mut ports, &mut self.rng);
                let mut dests = Vec::new();
                for &p in &ports {
                    if dests.len() >= want {
                        break;
                    }
                    let wl_order: Vec<u32> = match asg.model() {
                        MulticastModel::Msw | MulticastModel::Msdw => vec![gw],
                        MulticastModel::Maw => {
                            let mut w: Vec<u32> = (0..net.wavelengths).collect();
                            shuffle(&mut w, &mut self.rng);
                            w
                        }
                    };
                    for w in wl_order {
                        let ep = Endpoint::new(p, w);
                        if asg.output_user(ep).is_none() {
                            dests.push(ep);
                            break;
                        }
                    }
                }
                if !dests.is_empty() {
                    return Some(MulticastConnection::new(src, dests).expect("distinct ports"));
                }
            }
        }
        None
    }
}

pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_assignments_are_full_and_valid() {
        for model in MulticastModel::ALL {
            let net = NetworkConfig::new(6, 3);
            let mut gen = AssignmentGen::new(net, model, 1);
            for _ in 0..5 {
                let asg = gen.full_assignment();
                assert!(asg.is_full(), "{model}");
                for c in asg.connections() {
                    assert!(model.allows(c));
                }
            }
        }
    }

    #[test]
    fn any_assignments_are_valid_and_vary_in_load() {
        let net = NetworkConfig::new(5, 2);
        let mut gen = AssignmentGen::new(net, MulticastModel::Maw, 3);
        let loads: Vec<usize> = (0..10)
            .map(|_| gen.any_assignment().used_output_endpoints())
            .collect();
        assert!(
            loads.iter().any(|&l| l < 10),
            "some load below full: {loads:?}"
        );
    }

    #[test]
    fn determinism_by_seed() {
        let net = NetworkConfig::new(4, 2);
        let a = AssignmentGen::new(net, MulticastModel::Msw, 99).full_assignment();
        let b = AssignmentGen::new(net, MulticastModel::Msw, 99).full_assignment();
        assert_eq!(a.to_string(), b.to_string());
        let c = AssignmentGen::new(net, MulticastModel::Msw, 100).full_assignment();
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn next_request_is_always_addable() {
        for model in MulticastModel::ALL {
            let net = NetworkConfig::new(5, 2);
            let mut gen = AssignmentGen::new(net, model, 17);
            let mut asg = MulticastAssignment::new(net, model);
            let mut added = 0;
            while let Some(req) = gen.next_request(&asg, 0) {
                asg.add(req).expect("generated request must be legal");
                added += 1;
                if added > 200 {
                    panic!("generator never exhausts");
                }
            }
            // Exhaustion means: no free source has any compatible free
            // destination left.
            for src in net.endpoints().filter(|&e| !asg.input_busy(e)) {
                let compatible_free = net.endpoints().any(|d| {
                    asg.output_user(d).is_none()
                        && (model != MulticastModel::Msw || d.wavelength == src.wavelength)
                });
                assert!(!compatible_free, "{model}: generator quit early for {src}");
            }
        }
    }

    #[test]
    fn fanout_cap_respected() {
        let net = NetworkConfig::new(8, 2);
        let mut gen = AssignmentGen::new(net, MulticastModel::Maw, 5);
        let asg = MulticastAssignment::new(net, MulticastModel::Maw);
        for _ in 0..50 {
            let req = gen.next_request(&asg, 2).unwrap();
            assert!(req.fanout() <= 2);
        }
    }
}
