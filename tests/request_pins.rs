//! Request pins for the seeded generators, through the facade.
//!
//! `HotspotGen` (variable and pinned fan-out) and `AdversarialGen` each
//! offer 2 000 requests at seed 42 under every multicast model, against
//! a legality mirror that admits every request and retires a random live
//! source whenever `target` are live. An FNV-1a hash over every request
//! (source and destinations, or a marker for `None`) is pinned with
//! `==`, so a generator that draws or picks differently anywhere in the
//! run moves it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_multicast::core::{
    Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig,
};
use wdm_multicast::workload::adversarial::{AdversarialGen, Geometry};
use wdm_multicast::workload::HotspotGen;

/// The graph workload's geometry: 16 modules of 4 ports, k = 4.
const GEO: Geometry = Geometry { n: 4, r: 16, k: 4 };
const MODELS: [MulticastModel; 3] = [
    MulticastModel::Msw,
    MulticastModel::Msdw,
    MulticastModel::Maw,
];

/// FNV-1a over 2 000 calls of `next`, each request admitted into a mirror.
fn pin(
    model: MulticastModel,
    target: usize,
    mut next: impl FnMut(&MulticastAssignment) -> Option<MulticastConnection>,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut rng = StdRng::seed_from_u64(42 ^ 0x5eed);
    let mut mirror = MulticastAssignment::new(NetworkConfig::new(GEO.ports(), GEO.k), model);
    let mut live: Vec<Endpoint> = Vec::new();
    for _ in 0..2_000 {
        if live.len() >= target {
            let src = live.swap_remove(rng.gen_range(0..live.len()));
            mirror.remove(src).expect("mirror tracked this source");
        }
        let Some(req) = next(&mirror) else {
            mix(u32::MAX);
            continue;
        };
        for ep in std::iter::once(req.source()).chain(req.destinations().iter().copied()) {
            mix(ep.port.0);
            mix(ep.wavelength.0);
        }
        mix(req.fanout() as u32);
        live.push(req.source());
        mirror
            .add(req)
            .expect("the generator offers legal requests");
    }
    hash
}

#[test]
fn hotspot_requests_are_pinned() {
    let mut hashes = Vec::new();
    for model in MODELS {
        for fanout in [None, Some(3)] {
            let mut gen = HotspotGen::new(GEO, model, 0, 60, 42);
            if let Some(f) = fanout {
                gen = gen.with_fanout(f);
            }
            hashes.push(pin(model, 40, |asg| gen.next_request(asg)));
        }
    }
    assert_eq!(
        hashes,
        [
            0xbf36_11c7_42d1_5877,
            0xc802_c41c_3747_77b4,
            0x1a64_806e_0d02_6dac,
            0x3d20_3ca4_f6de_769f,
            0xe67b_32f1_febb_beb6,
            0x5c0c_705b_5b19_c998,
        ]
    );
}

/// MSW and MAW hash alike: on this churn each MAW destination's lowest
/// free wavelength is the source's, so the two models make the same
/// requests (MAW's destination-wavelength draw goes unused).
#[test]
fn adversarial_requests_are_pinned() {
    let hashes: Vec<u64> = MODELS
        .iter()
        .map(|&model| {
            let mut gen = AdversarialGen::new(GEO, model, 42);
            pin(model, 12, |asg| gen.next_request(asg))
        })
        .collect();
    assert_eq!(
        hashes,
        [
            0x7d77_882d_f609_09f7,
            0x09d1_2f8c_b829_244c,
            0x7d77_882d_f609_09f7,
        ]
    );
}
