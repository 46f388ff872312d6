//! Word scans for the request generators: a free endpoint is a clear bit
//! of the assignment's per-port wavelength masks, found by popcounts.

use crate::adversarial::Geometry;
use rand::{rngs::StdRng, Rng};
use std::ops::Range;
use wdm_core::bitset::test_bit;
use wdm_core::{Endpoint, MulticastAssignment, MulticastConnection, MulticastModel};

/// The free bits of word `i` of a busy mask over `k` wavelengths.
fn free_word(busy: &[u64], i: usize, k: u32) -> u64 {
    !busy[i] & (u64::MAX >> (64 - (k - 64 * i as u32).min(64)))
}

/// The `i`-th free input endpoint in (port, λ) order (panics unless `i`
/// is below the number of free input endpoints).
pub(crate) fn nth_free_input(asg: &MulticastAssignment, mut i: usize) -> Endpoint {
    let net = asg.network();
    for p in 0..net.ports {
        let busy = asg.input_port_mask(p);
        for w in 0..busy.len() {
            let mut free = free_word(busy, w, net.wavelengths);
            if i < free.count_ones() as usize {
                (0..i).for_each(|_| free &= free - 1);
                return Endpoint::new(p, 64 * w as u32 + free.trailing_zeros());
            }
            i -= free.count_ones() as usize;
        }
    }
    panic!("free input index out of range");
}

/// The first endpoint of `ports` clear in `busy(port)` on wavelength
/// `lambda`, or on the port's lowest clear one when `lambda` is `None`.
pub(crate) fn first_free<'a>(
    ports: Range<u32>,
    k: u32,
    lambda: Option<u32>,
    busy: impl Fn(u32) -> &'a [u64],
) -> Option<Endpoint> {
    ports.into_iter().find_map(|p| {
        let mask = busy(p);
        let w = match lambda {
            Some(w) => (!test_bit(mask, w)).then_some(w),
            None => (0..mask.len())
                .map(|i| (i, free_word(mask, i, k)))
                .find(|&(_, free)| free != 0)
                .map(|(i, free)| 64 * i as u32 + free.trailing_zeros()),
        };
        Some(Endpoint::new(p, w?))
    })
}

/// A request from `src` to the first free output of each of `modules`
/// (at most `fanout`), or `None`: MSW on the source's λ, MSDW on a drawn
/// one, MAW on each port's lowest free λ (its draw unused). One allocation.
pub(crate) fn request(
    asg: &MulticastAssignment,
    geo: Geometry,
    model: MulticastModel,
    rng: &mut StdRng,
    src: Endpoint,
    modules: impl IntoIterator<Item = u32>,
    fanout: usize,
) -> Option<MulticastConnection> {
    let w = match model {
        MulticastModel::Msw => src.wavelength.0,
        _ => rng.gen_range(0..geo.k),
    };
    let lambda = (model != MulticastModel::Maw).then_some(w);
    let out = |p| asg.output_port_mask(p);
    let mut found = modules
        .into_iter()
        .filter_map(|b| first_free(geo.module_ports(b), geo.k, lambda, out));
    let first = found.next()?;
    let mut dests = Vec::with_capacity(fanout);
    dests.extend(std::iter::once(first).chain(found));
    Some(MulticastConnection::new(src, dests).expect("one port per module"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::NetworkConfig;

    /// Every endpoint in (port, λ) order, free ones only, by probing.
    fn free_by_probe(asg: &MulticastAssignment) -> Vec<Endpoint> {
        asg.network()
            .endpoints()
            .filter(|&e| !asg.input_busy(e))
            .collect()
    }

    #[test]
    fn indexing_matches_probing_on_two_word_rows() {
        let net = NetworkConfig::new(3, 70);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Maw);
        for (i, (p, w)) in [(0, 0), (0, 63), (0, 64), (1, 69), (2, 5)]
            .into_iter()
            .enumerate()
        {
            let dest = Endpoint::new(i as u32 % 3, i as u32);
            asg.add(MulticastConnection::unicast(Endpoint::new(p, w), dest))
                .unwrap();
        }
        let free = free_by_probe(&asg);
        for (i, &e) in free.iter().enumerate() {
            assert_eq!(nth_free_input(&asg, i), e, "index {i}");
        }
        // Output port 0 is busy on λ0 and λ3: its lowest free λ is 1;
        // port 1 on λ1 and λ4.
        let out = |p| asg.output_port_mask(p);
        assert_eq!(first_free(0..3, 70, None, out), Some(Endpoint::new(0, 1)));
        assert_eq!(
            first_free(0..3, 70, Some(1), out),
            Some(Endpoint::new(0, 1))
        );
        assert_eq!(
            first_free(0..3, 70, Some(0), out),
            Some(Endpoint::new(1, 0))
        );
        assert_eq!(first_free(1..2, 70, Some(4), out), None);
    }

    #[test]
    fn a_full_port_has_no_free_wavelength() {
        let net = NetworkConfig::new(2, 65);
        let mut asg = MulticastAssignment::new(net, MulticastModel::Maw);
        for w in 0..65 {
            let dest = Endpoint::new(0, w);
            asg.add(MulticastConnection::unicast(Endpoint::new(0, w), dest))
                .unwrap();
        }
        assert_eq!(nth_free_input(&asg, 0), Endpoint::new(1, 0));
        assert_eq!(nth_free_input(&asg, 64), Endpoint::new(1, 64));
        let out = |p| asg.output_port_mask(p);
        assert_eq!(first_free(0..1, 65, None, out), None);
        assert_eq!(first_free(0..2, 65, None, out), Some(Endpoint::new(1, 0)));
    }
}
