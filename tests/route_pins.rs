//! Route pins for the three-stage router, through the facade.
//!
//! Three seeded churns hash every route the network realizes (FNV-1a
//! over middles, wavelengths, legs and destinations) right after each
//! admission, and each `Blocked` verdict's count of available middles,
//! and pin the running hash with `==`. A router change that picks a
//! different middle, wavelength or leg split anywhere in the run — even
//! one that blocks no more than before — moves the hash. Each churn ends
//! with `check_consistency()` empty.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_multicast::core::{Endpoint, Fault, MulticastConnection, MulticastModel};
use wdm_multicast::multistage::{
    bounds, Construction, RouteError, SelectionStrategy, ThreeStageNetwork, ThreeStageParams,
};

/// The benchmark's G2 fanout mix {1: 40 %, 2: 25 %, 8: 20 %, 32: 15 %},
/// one entry per 5 %.
const G2_MIX: [u32; 20] = [
    1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 8, 8, 8, 8, 32, 32, 32,
];

/// Running FNV-1a hash plus verdict counts.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    admitted: u64,
    blocked: u64,
    /// Admissions routed over more than one middle switch (an `x > 1`
    /// cover).
    spanning: u64,
    hash: u64,
}

impl Pins {
    fn new() -> Self {
        Pins {
            admitted: 0,
            blocked: 0,
            spanning: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn mix(&mut self, word: u32) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn mix_endpoint(&mut self, ep: Endpoint) {
        self.mix(ep.port.0);
        self.mix(ep.wavelength.0);
    }

    /// Hash the live route of `src` (it must exist: called right after
    /// the admission).
    fn admit(&mut self, net: &ThreeStageNetwork, src: Endpoint) {
        self.admitted += 1;
        let rc = net.route_of(src).expect("admitted connection has a route");
        let dests = net.assignment().connection_at(src).unwrap().destinations();
        self.mix_endpoint(rc.source);
        self.mix(rc.branches.len() as u32);
        self.spanning += u64::from(rc.branches.len() > 1);
        for b in &rc.branches {
            self.mix(b.middle);
            self.mix(b.input_wavelength);
            self.mix(b.legs.len() as u32);
            for leg in &b.legs {
                self.mix(leg.out_module);
                self.mix(leg.wavelength);
                self.mix(leg.dests(dests).len() as u32);
                for &d in leg.dests(dests) {
                    self.mix_endpoint(d);
                }
            }
        }
    }

    fn block(&mut self, available_middles: usize) {
        self.blocked += 1;
        self.mix(u32::MAX);
        self.mix(available_middles as u32);
    }

    /// Route `conn`: hash the route on success, count a block, panic on
    /// anything else (the generator only offers legal requests).
    fn connect(&mut self, net: &mut ThreeStageNetwork, conn: &MulticastConnection) -> bool {
        match net.connect(conn) {
            Ok(_) => {
                self.admit(net, conn.source());
                true
            }
            Err(RouteError::Blocked {
                available_middles, ..
            }) => {
                self.block(available_middles);
                false
            }
            Err(e) => panic!("legal request {conn} refused: {e}"),
        }
    }
}

/// A legal request from a free input endpoint to `fanout` (or as many as
/// remain) free output endpoints on distinct ports. MSW destinations ride
/// the source wavelength; MSDW destinations share one random wavelength.
fn request(net: &ThreeStageNetwork, rng: &mut StdRng, mix: &[u32]) -> Option<MulticastConnection> {
    let frame = net.network();
    let asg = net.assignment();
    let src = (0..8)
        .map(|_| {
            Endpoint::new(
                rng.gen_range(0..frame.ports),
                rng.gen_range(0..frame.wavelengths),
            )
        })
        .find(|&ep| !asg.input_busy(ep))?;
    let wl = match net.output_model() {
        MulticastModel::Msw => src.wavelength.0,
        _ => rng.gen_range(0..frame.wavelengths),
    };
    let mut free: Vec<u32> = (0..frame.ports)
        .filter(|&p| !asg.output_busy(Endpoint::new(p, wl)))
        .collect();
    let fanout = (mix[rng.gen_range(0..mix.len())] as usize).min(free.len());
    if fanout == 0 {
        return None;
    }
    for i in 0..fanout {
        let j = rng.gen_range(i..free.len());
        free.swap(i, j);
    }
    let dests = free[..fanout].iter().map(|&p| Endpoint::new(p, wl));
    Some(MulticastConnection::new(src, dests).expect("distinct ports"))
}

/// Seeded churn: disconnect a random live connection (more likely above
/// `target` live) or offer a new request. `on_step` runs before each
/// step and may inject faults and heal their victims.
fn churn(
    net: &mut ThreeStageNetwork,
    seed: u64,
    steps: usize,
    target: usize,
    mix: &[u32],
    mut on_step: impl FnMut(usize, &mut ThreeStageNetwork, &mut Pins),
) -> Pins {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pins = Pins::new();
    let mut live: Vec<Endpoint> = Vec::new();
    for step in 0..steps {
        on_step(step, net, &mut pins);
        live.retain(|&src| net.route_of(src).is_some());
        let p_leave = if live.len() > target { 0.7 } else { 0.3 };
        if !live.is_empty() && rng.gen_bool(p_leave) {
            let src = live.swap_remove(rng.gen_range(0..live.len()));
            net.disconnect(src).expect("live connection disconnects");
        } else if let Some(conn) = request(net, &mut rng, mix) {
            if pins.connect(net, &conn) {
                live.push(conn.source());
            }
        }
        if step % 2_000 == 0 {
            assert_eq!(net.check_consistency(), Vec::<String>::new(), "step {step}");
        }
    }
    assert_eq!(net.check_consistency(), Vec::<String>::new());
    assert_eq!(net.assignment().len(), net.active_connections());
    pins
}

/// G2 (n=16 r=32 k=8, m=93 = Theorem-1 bound), MSW-dominant, MSW output,
/// FirstFit, on the benchmark's fanout mix: zero blocks, and every route
/// is pinned.
#[test]
fn g2_firstfit_churn_routes_are_pinned() {
    let bound = bounds::theorem1_min_m(16, 32);
    assert_eq!(bound.m, 93);
    let params = ThreeStageParams::new(16, bound.m, 32, 8);
    let mut net = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    assert_eq!(net.strategy(), SelectionStrategy::FirstFit);
    let pins = churn(&mut net, 42, 20_000, 300, &G2_MIX, |_, _, _| {});
    assert_eq!(pins.blocked, 0, "blocked at the Theorem-1 bound");
    assert_eq!(
        pins,
        Pins {
            admitted: 10_143,
            blocked: 0,
            spanning: 0,
            hash: 0x3fa2_87df_157a_de56,
        }
    );
}

/// G2 again, FirstFit, but with `m` well below the Theorem-1 bound: the
/// router falls through its single-middle probe to the `x`-middle cover
/// search, and some requests block. Pins the covers and every `Blocked`
/// verdict's count of available middles.
#[test]
fn g2_firstfit_below_bound_covers_and_blocks_are_pinned() {
    let params = ThreeStageParams::new(16, 12, 32, 8);
    let mut net = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    assert!(net.fanout_limit() > 1);
    let pins = churn(&mut net, 11, 20_000, 300, &G2_MIX, |_, _, _| {});
    assert!(pins.spanning > 0 && pins.blocked > 0, "{pins:?}");
    assert_eq!(
        pins,
        Pins {
            admitted: 10_017,
            blocked: 267,
            spanning: 2_023,
            hash: 0xc3ca_71a4_924d_ae1e,
        }
    );
}

/// MAW-dominant construction with an MSDW output stage at the Theorem-2
/// bound, Pack selection. A third of the way in, the busiest middle
/// switch fails and every connection through it is torn down and
/// re-offered; two thirds in, it is repaired.
#[test]
fn maw_dominant_pack_churn_with_a_middle_fault_is_pinned() {
    let bound = bounds::theorem2_min_m(4, 4, 3);
    let params = ThreeStageParams::new(4, bound.m, 4, 3);
    let mut net = ThreeStageNetwork::new(params, Construction::MawDominant, MulticastModel::Msdw);
    net.set_strategy(SelectionStrategy::Pack);
    let steps = 6_000;
    let mut dead = None;
    let pins = churn(
        &mut net,
        7,
        steps,
        20,
        &[1, 1, 2, 3, 4],
        |step, net, pins| {
            if step == steps / 3 {
                let loads = net.middle_loads();
                let j = (0..params.m).max_by_key(|&j| loads[j as usize]).unwrap();
                let fault = Fault::MiddleSwitch(j);
                assert!(net.inject_fault(fault));
                let victims = net.connections_through(&fault);
                assert!(!victims.is_empty(), "the busiest middle carries traffic");
                for src in victims {
                    let conn = net.assignment().connection_at(src).unwrap().clone();
                    net.disconnect(src).unwrap();
                    pins.connect(net, &conn);
                }
                assert!(net.connections_through(&fault).is_empty());
                dead = Some(fault);
            } else if step == 2 * steps / 3 {
                assert!(net.repair_fault(dead.take().unwrap()));
            }
        },
    );
    assert_eq!(
        pins,
        Pins {
            admitted: 2_606,
            blocked: 0,
            spanning: 0,
            hash: 0x3029_3a9f_7753_d02f,
        }
    );
}
