//! *Slot churn*, the load shape shared by the three-stage workloads.
//!
//! The fabric's endpoints are partitioned into **slots**: slot *i* owns
//! one source endpoint and a fixed set of destination endpoints on the
//! source's wavelength (MSW), pairwise disjoint across slots. A slot
//! only ever alternates `Connect(slot)` / `Disconnect(source)`, so every
//! request is conflict-free by construction — no `Busy` parks, no
//! closed-loop stall — while the occupancy the router sees still varies
//! with which slots are up. At `m =` the Theorem-1 bound any reject is
//! therefore a bug, not load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_core::{Endpoint, MulticastConnection};
use wdm_workload::adversarial::Geometry;

/// Fanout mix as `(fanout, percent of slots)`; percents sum to 100.
pub type FanoutMix = &'static [(u32, u32)];

/// One slot: the connection it toggles. Its source endpoint is the key
/// everything else (engine shard, TCP connection, trace join) hangs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    pub connect: MulticastConnection,
}

impl Slot {
    pub fn source(&self) -> Endpoint {
        self.connect.source()
    }
}

fn shuffled(n: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Partition `geo`'s endpoints into slots following `mix`.
///
/// The *count* of slots of each fanout is fixed by quota (per
/// wavelength, `⌊N/mean fanout⌋` slots split by the mix's percents), so
/// every seed offers the same load; the seed only decides which ports a
/// slot owns and the order slots come in. Output ports the quotas leave
/// over stay unused.
pub fn generate(geo: Geometry, mix: FanoutMix, seed: u64) -> Vec<Slot> {
    let ports = geo.ports();
    let weighted: u32 = mix.iter().map(|&(f, pct)| f * pct).sum();
    let per_wavelength = ports * 100 / weighted;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots = Vec::new();
    for w in 0..geo.k {
        let mut sources = shuffled(ports, &mut rng).into_iter();
        let mut outputs = shuffled(ports, &mut rng).into_iter();
        for &(fanout, pct) in mix {
            for _ in 0..per_wavelength * pct / 100 {
                let src = Endpoint::new(sources.next().expect("fewer slots than ports"), w);
                let dests = outputs.by_ref().take(fanout as usize);
                let connect = MulticastConnection::new(src, dests.map(|p| Endpoint::new(p, w)))
                    .expect("distinct output ports form a valid connection");
                assert_eq!(connect.fanout(), fanout as usize, "quota fits the fabric");
                slots.push(Slot { connect });
            }
        }
    }
    // Interleave fanouts and wavelengths so consecutive slots (and so
    // the TCP connection each is pinned to) see the same mix.
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{G1, G2, MIX_G1_MULTICAST, MIX_G2_MULTICAST, MIX_UNICAST};
    use std::collections::HashSet;
    use wdm_core::{MulticastAssignment, MulticastModel, NetworkConfig};

    #[test]
    fn slots_are_conflict_free_and_fit_the_geometry() {
        for (geo, mix, expect_slots) in [
            (G1, MIX_UNICAST, 512),
            (G1, MIX_G1_MULTICAST, 124),
            (G2, MIX_G2_MULTICAST, 552),
        ] {
            let mut per_seed = Vec::new();
            for seed in [1u64, 7, 42, 1234] {
                let slots = generate(geo, mix, seed);
                assert_eq!(slots.len(), expect_slots);
                let mut asg = MulticastAssignment::new(
                    NetworkConfig::new(geo.ports(), geo.k),
                    MulticastModel::Msw,
                );
                let mut sources = HashSet::new();
                let mut dests = HashSet::new();
                for s in &slots {
                    assert!(MulticastModel::Msw.allows(&s.connect));
                    assert!(sources.insert(s.source()), "source reused");
                    for d in s.connect.destinations() {
                        assert!(d.port.0 < geo.ports() && d.wavelength.0 < geo.k);
                        assert!(dests.insert(*d), "destination shared between slots");
                    }
                    // All slots up at once is legal: no request can ever
                    // meet a busy endpoint.
                    asg.add(s.connect.clone()).expect("conflict-free");
                }
                // The offered mix does not depend on the seed.
                let mut fanouts: Vec<usize> = slots.iter().map(|s| s.connect.fanout()).collect();
                fanouts.sort_unstable();
                per_seed.push(fanouts);
                assert_eq!(generate(geo, mix, seed), slots, "same seed, same slots");
            }
            assert!(per_seed.windows(2).all(|w| w[0] == w[1]));
            assert_ne!(generate(geo, mix, 1), generate(geo, mix, 2));
        }
    }
}
