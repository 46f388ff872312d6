//! Model-based property tests for the per-endpoint tables: `EndpointMap`
//! and `MulticastAssignment`, each against a `BTreeMap<Endpoint, _>`
//! model, under random operation sequences that include conflicts and
//! out-of-range ports and wavelengths.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wdm_core::bitset::EndpointMap;
use wdm_core::{Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig};

/// One random operation: `(kind, port, wavelength, destinations)`. Ports
/// and wavelengths reach two past the frame, so some are out of range.
type Op = (u8, u32, u32, BTreeMap<u32, u32>);

fn arb_ops() -> impl Strategy<Value = (u32, u32, MulticastModel, Vec<Op>)> {
    (
        1u32..=6,
        1u32..=4,
        prop::sample::select(&MulticastModel::ALL),
    )
        .prop_flat_map(|(n, k, model)| {
            let op = (
                0u8..3,
                0..n + 2,
                0..k + 2,
                proptest::collection::btree_map(0..n + 2, 0..k + 2, 1..=(n as usize)),
            );
            (
                Just(n),
                Just(k),
                Just(model),
                proptest::collection::vec(op, 1..80),
            )
        })
}

/// Every endpoint of a frame two ports and two wavelengths larger.
fn probe_endpoints(net: NetworkConfig) -> impl Iterator<Item = Endpoint> {
    let (n, k) = (net.ports, net.wavelengths);
    (0..n + 2).flat_map(move |p| (0..k + 2).map(move |w| Endpoint::new(p, w)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn endpoint_map_matches_btreemap_model(
        (n, k, ops) in (1u32..=6, 1u32..=4).prop_flat_map(|(n, k)| {
            let op = (0u8..4, 0..n + 2, 0..k + 2, any::<u16>());
            (Just(n), Just(k), proptest::collection::vec(op, 1..120))
        })
    ) {
        let net = NetworkConfig::new(n, k);
        let mut map: EndpointMap<u16> = EndpointMap::new(net);
        let mut model: BTreeMap<Endpoint, u16> = BTreeMap::new();
        for (kind, port, wl, v) in ops {
            let ep = Endpoint::new(port, wl);
            match kind {
                0 => prop_assert_eq!(map.remove(&ep), model.remove(&ep)),
                1 => {
                    if let Some(slot) = map.get_mut(&ep) {
                        *slot = v;
                    }
                    if let Some(slot) = model.get_mut(&ep) {
                        *slot = v;
                    }
                }
                _ if net.contains(ep) => prop_assert_eq!(map.insert(ep, v), model.insert(ep, v)),
                // Outside the frame nothing is stored; the value comes back.
                _ => prop_assert_eq!(map.insert(ep, v), Some(v)),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!((&map).into_iter().eq(&model));
            prop_assert!(map.values().eq(model.values()));
            for probe in probe_endpoints(net) {
                prop_assert_eq!(map.get(&probe), model.get(&probe), "get {}", probe);
            }
            for (key, value) in &model {
                prop_assert_eq!(&map[key], value);
            }
            prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
        }
    }

    #[test]
    fn assignment_matches_btreemap_model((n, k, model, ops) in arb_ops()) {
        let net = NetworkConfig::new(n, k);
        let mut asg = MulticastAssignment::new(net, model);
        let mut conns: BTreeMap<Endpoint, MulticastConnection> = BTreeMap::new();
        let mut owner: BTreeMap<Endpoint, Endpoint> = BTreeMap::new();
        for (kind, port, wl, dests) in ops {
            let src = Endpoint::new(port, wl);
            if kind == 0 {
                // Remove: the live connection comes back, anything else errs.
                let expect = conns.remove(&src);
                let got = asg.remove(src).ok();
                prop_assert_eq!(&got, &expect);
                if let Some(c) = expect {
                    for d in c.destinations() {
                        owner.remove(d);
                    }
                }
            } else {
                let dests = dests.into_iter().map(|(p, w)| Endpoint::new(p, w));
                let c = MulticastConnection::new(src, dests).expect("distinct ports");
                let legal = net.contains(src)
                    && model.allows(&c)
                    && !conns.contains_key(&src)
                    && c.destinations().iter().all(|&d| net.contains(d) && !owner.contains_key(&d));
                prop_assert_eq!(asg.add(c.clone()).is_ok(), legal, "add {}", c);
                if legal {
                    for &d in c.destinations() {
                        owner.insert(d, src);
                    }
                    conns.insert(src, c);
                }
            }
            prop_assert_eq!(asg.len(), conns.len());
            prop_assert_eq!(asg.is_empty(), conns.is_empty());
            let order: Vec<&MulticastConnection> = asg.connections().collect();
            let expect: Vec<&MulticastConnection> = conns.values().collect();
            prop_assert_eq!(order, expect);
            prop_assert_eq!(asg.used_output_endpoints(), owner.len());
            for ep in probe_endpoints(net) {
                prop_assert_eq!(asg.connection_at(ep), conns.get(&ep), "connection_at {}", ep);
                prop_assert_eq!(asg.output_user(ep), owner.get(&ep).copied(), "output_user {}", ep);
                if net.contains(ep) {
                    prop_assert_eq!(asg.output_busy(ep), owner.contains_key(&ep));
                    prop_assert_eq!(asg.input_busy(ep), conns.contains_key(&ep));
                }
            }
        }
    }
}
