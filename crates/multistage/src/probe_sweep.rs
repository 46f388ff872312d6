//! Differential sweeps of the three-stage admission probe.
//!
//! On seeded random live states, fault sets and requests, the row kernel
//! must decide what the per-candidate scalar loop it replaced decides:
//! the same available middles with the same input wavelengths, the same
//! runs each middle can carry, the same FirstFit middle with the same
//! leg wavelengths, and the same `x`-middle cover. The sweep covers both
//! constructions, all three output models, full and unit converter
//! reach, and every fault kind that changes availability. The slow part
//! is the sweep itself; run it in release:
//! `cargo test --release -p wdm-multistage --lib probe_sweep`.

use super::*;
use crate::routing::reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a probe decided for one request.
#[derive(Debug, PartialEq, Eq)]
struct Decision {
    /// Middles a branch can use, ascending, with its input wavelength.
    available: Vec<(u32, u32)>,
    /// Per available middle, the indices of the runs it can carry.
    serv: Vec<Vec<u32>>,
    /// FirstFit's single middle: `(middle, input λ, leg λ per run)`.
    pick: Option<(u32, u32, Vec<u32>)>,
    /// The cover search's branches when no single middle serves:
    /// `(middle, runs)` in pick order.
    cover: Option<Vec<(u32, Vec<u32>)>>,
}

/// The decision `connect` made before the row kernel: the verbatim
/// per-candidate `branch_wavelength` / `leg_wavelength` loop over the
/// available-middle mask, and the set-based cover search.
fn reference_decision(net: &ThreeStageNetwork, conn: &MulticastConnection) -> Decision {
    let src = conn.source();
    let (in_module, _) = net.params.input_module_of(src.port.0);
    let dests = conn.destinations();
    let ctx = net.ctx();
    let mut groups: Vec<(u32, usize, usize)> = Vec::new();
    for (i, d) in dests.iter().enumerate() {
        let (om, _) = net.params.output_module_of(d.port.0);
        match groups.last_mut() {
            Some((last, _, end)) if *last == om => *end = i + 1,
            _ => groups.push((om, i, i + 1)),
        }
    }
    let branch_wavelength = |j: u32| {
        let mask = net.input_word(in_module, j);
        ctx.branch_wavelength_masked(in_module, mask, src.wavelength.0)
    };
    let leg_wavelength = |j: u32, (om, s, e): (u32, usize, usize), wi: u32| {
        let mask = net.middle_word(j, om);
        ctx.leg_wavelength_masked(j, om, mask, wi, &dests[s..e])
    };
    let mask = net.available_middles_mask(in_module, src.wavelength.0);
    let pick = bitset::ones(&mask).find_map(|j| {
        let wi = branch_wavelength(j)?;
        let legs: Option<Vec<u32>> = groups.iter().map(|&g| leg_wavelength(j, g, wi)).collect();
        legs.map(|legs| (j, wi, legs))
    });
    let available: Vec<(u32, u32)> = bitset::ones(&mask)
        .filter_map(|j| branch_wavelength(j).map(|wi| (j, wi)))
        .collect();
    let serv: Vec<Vec<u32>> = available
        .iter()
        .map(|&(j, wi)| {
            (0..groups.len() as u32)
                .filter(|&g| leg_wavelength(j, groups[g as usize], wi).is_some())
                .collect()
        })
        .collect();
    let runs: Vec<u32> = (0..groups.len() as u32).collect();
    let ids: Vec<u32> = available.iter().map(|&(j, _)| j).collect();
    let cover = pick
        .is_none()
        .then(|| reference::find_cover(&runs, &ids, &serv, net.x_limit as usize))
        .flatten();
    Decision {
        available,
        serv,
        pick,
        cover,
    }
}

/// The same decision read off the row kernel.
fn kernel_decision(net: &mut ThreeStageNetwork, conn: &MulticastConnection) -> Decision {
    let src = conn.source();
    let (in_module, _) = net.params.input_module_of(src.port.0);
    net.fill_rows(in_module, src.wavelength.0, conn.destinations());
    let (available, rows) = net.candidates(in_module, src.wavelength.0);
    let runs = net.runs.len() as u32;
    let serv = (0..available.len() as u32)
        .map(|i| (0..runs).filter(|&g| rows.get(i, g)).collect())
        .collect();
    let pick = net.first_fit().map(|j| {
        let wi = net
            .branch_wavelength(in_module, j, src.wavelength.0)
            .unwrap();
        let legs = net.runs.iter().map(|run| {
            net.leg_wavelength(j, run.module, wi, run.targets)
                .expect("the picked middle carries every leg")
        });
        (j, wi, legs.collect())
    });
    let cover = pick
        .is_none()
        .then(|| find_cover(&rows, available.len(), runs, net.x_limit as usize))
        .flatten()
        .map(|c| c.into_iter().map(|(i, g)| (available[i].0, g)).collect());
    Decision {
        available,
        serv,
        pick,
        cover,
    }
}

/// A legal request from a free input endpoint to up to six free output
/// endpoints on distinct ports, with the output model's wavelengths.
fn request(net: &ThreeStageNetwork, rng: &mut StdRng) -> Option<MulticastConnection> {
    let frame = net.network();
    let asg = net.assignment();
    let src = Endpoint::new(
        rng.gen_range(0..frame.ports),
        rng.gen_range(0..frame.wavelengths),
    );
    if asg.input_busy(src) {
        return None;
    }
    let shared = rng.gen_range(0..frame.wavelengths);
    let fanout = rng.gen_range(1..=6);
    let mut dests = Vec::new();
    for _ in 0..fanout {
        let wl = match net.output_model() {
            MulticastModel::Msw => src.wavelength.0,
            MulticastModel::Msdw => shared,
            MulticastModel::Maw => rng.gen_range(0..frame.wavelengths),
        };
        let d = Endpoint::new(rng.gen_range(0..frame.ports), wl);
        if !asg.output_busy(d) && dests.iter().all(|e: &Endpoint| e.port != d.port) {
            dests.push(d);
        }
    }
    MulticastConnection::new(src, dests).ok()
}

/// A random fault of every kind that changes a middle's availability or
/// a leg's wavelength.
fn random_fault(p: ThreeStageParams, rng: &mut StdRng) -> Fault {
    let (j, a) = (rng.gen_range(0..p.m), rng.gen_range(0..p.r));
    match rng.gen_range(0..6) {
        0 => Fault::MiddleSwitch(j),
        1 => Fault::InputLink {
            module: a,
            middle: j,
        },
        2 => Fault::MiddleLink {
            middle: j,
            module: a,
        },
        3 => Fault::InputConverters(a),
        4 => Fault::MiddleConverters(j),
        _ => Fault::OutputConverters(a),
    }
}

/// Churn one network: before every connect, the kernel's decision must
/// equal the reference's, and the committed route must be the pick.
/// Returns how many requests were compared, and how many of those fell
/// through to the cover search.
fn sweep(mut net: ThreeStageNetwork, seed: u64, steps: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut compared, mut covers) = (0u64, 0u64);
    let mut live: Vec<Endpoint> = Vec::new();
    let mut failed: Vec<Fault> = Vec::new();
    for step in 0..steps {
        let roll = rng.gen_range(0..100);
        if roll < 4 {
            let fault = random_fault(net.params(), &mut rng);
            if net.inject_fault(fault) {
                failed.push(fault);
            }
        } else if roll < 8 && !failed.is_empty() {
            let fault = failed.swap_remove(rng.gen_range(0..failed.len()));
            assert!(net.repair_fault(fault));
        } else if roll < 40 && !live.is_empty() {
            let src = live.swap_remove(rng.gen_range(0..live.len()));
            let route = net.disconnect(src).expect("live connection disconnects");
            net.recycle(route);
        } else if let Some(conn) = request(&net, &mut rng) {
            if net.ctx().component_down(&conn).is_some() {
                continue;
            }
            let want = reference_decision(&net, &conn);
            let got = kernel_decision(&mut net, &conn);
            assert_eq!(
                got,
                want,
                "seed {seed} step {step}: {conn} on {}",
                net.params()
            );
            compared += 1;
            covers += u64::from(want.pick.is_none());
            match net.connect(&conn) {
                Ok(rc) => {
                    if let Some((j, wi, legs)) = &want.pick {
                        let b = &rc.branches[0];
                        let wls: Vec<u32> = b.legs.iter().map(|l| l.wavelength).collect();
                        assert_eq!((b.middle, b.input_wavelength, &wls), (*j, *wi, legs));
                    }
                    live.push(conn.source());
                }
                Err(RouteError::Blocked { .. }) => assert!(want.cover.is_none()),
                Err(e) => panic!("seed {seed} step {step}: {conn} refused: {e}"),
            }
        }
        if step % 500 == 0 {
            assert_eq!(net.check_consistency(), Vec::<String>::new(), "step {step}");
        }
    }
    assert_eq!(net.check_consistency(), Vec::<String>::new());
    (compared, covers)
}

#[test]
fn probe_sweep_matches_the_scalar_reference() {
    // Below both bounds, so covers and blocks happen; m = 70 spans two
    // words per row.
    let geometries = [
        ThreeStageParams::new(3, 6, 4, 3),
        ThreeStageParams::new(2, 70, 5, 2),
    ];
    let (mut compared, mut covers) = (0, 0);
    let mut seed = 0;
    for p in geometries {
        for construction in [Construction::MswDominant, Construction::MawDominant] {
            for model in MulticastModel::ALL {
                for range in [None, Some(1)] {
                    seed += 1;
                    let mut net = ThreeStageNetwork::new(p, construction, model);
                    net.set_conversion_range(range);
                    let (c, v) = sweep(net, seed, 3_000);
                    compared += c;
                    covers += v;
                }
            }
        }
    }
    assert!(compared > 10_000, "{compared} requests compared");
    assert!(covers > 1_000, "{covers} requests reached the cover search");
}

#[test]
fn probe_sweep_cover_search_matches_the_set_reference() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for _ in 0..2_000 {
        let candidates = rng.gen_range(0..10usize);
        // Up to 70 modules: a service row may span two words.
        let modules = if rng.gen_bool(0.2) {
            rng.gen_range(60..70)
        } else {
            rng.gen_range(1..8)
        };
        let x = rng.gen_range(1..4);
        let density = rng.gen_range(0.1..0.9);
        let mut rows = BitRows::new(candidates as u32, modules);
        let mut serv = vec![Vec::new(); candidates];
        for (i, served) in serv.iter_mut().enumerate() {
            for g in 0..modules {
                if rng.gen_bool(density) {
                    rows.set(i as u32, g);
                    served.push(g);
                }
            }
        }
        let ids: Vec<u32> = (0..candidates as u32).map(|i| 10 * i + 3).collect();
        let all: Vec<u32> = (0..modules).collect();
        let want = reference::find_cover(&all, &ids, &serv, x);
        let got = find_cover(&rows, candidates, modules, x)
            .map(|c| c.into_iter().map(|(i, g)| (ids[i], g)).collect::<Vec<_>>());
        assert_eq!(got, want, "{serv:?} x={x}");
    }
}
