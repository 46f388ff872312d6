//! Application-shaped workloads.
//!
//! The paper motivates WDM multicast with "video conferencing, E-commerce,
//! and video-on-demand services". Each mix here produces a multicast
//! assignment whose fan-out distribution matches the application's shape:
//!
//! * **video conferencing** — medium symmetric groups: every participant
//!   of a conference multicasts to all the others;
//! * **video on demand** — a few server ports with very large fan-out,
//!   most ports pure receivers;
//! * **e-commerce** — unicast-dominated request/response traffic with the
//!   occasional small multicast (inventory pushes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wdm_core::{Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig};

/// The application mix to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppMix {
    /// Conferences of `group_size` participants each.
    VideoConference {
        /// Participants per conference (≥ 2).
        group_size: u32,
    },
    /// `servers` source ports streaming to everyone else.
    VideoOnDemand {
        /// Number of server ports.
        servers: u32,
    },
    /// Unicast request/response with `multicast_pct`% small multicasts.
    ECommerce {
        /// Percentage of connections that are (small) multicasts.
        multicast_pct: u32,
    },
}

impl AppMix {
    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AppMix::VideoConference { .. } => "video-conference",
            AppMix::VideoOnDemand { .. } => "video-on-demand",
            AppMix::ECommerce { .. } => "e-commerce",
        }
    }

    /// Build a multicast assignment with this mix's shape on `net`
    /// under `model`. Always succeeds; contended endpoints are skipped, so
    /// the result is the feasible portion of the offered load.
    pub fn generate(
        &self,
        net: NetworkConfig,
        model: MulticastModel,
        seed: u64,
    ) -> MulticastAssignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asg = MulticastAssignment::new(net, model);
        match *self {
            AppMix::VideoConference { group_size } => {
                let g = group_size.max(2).min(net.ports);
                // Partition ports into conferences. Each receiver port has
                // only k wavelengths, so at most k members of a group can
                // speak simultaneously — speaker j of a group uses
                // wavelength j and multicasts to all other members, which
                // keeps the group's streams wavelength-disjoint.
                let mut ports: Vec<u32> = (0..net.ports).collect();
                shuffle(&mut ports, &mut rng);
                for chunk in ports.chunks(g as usize) {
                    if chunk.len() < 2 {
                        continue;
                    }
                    let speakers = (chunk.len() as u32 - 1).min(net.wavelengths);
                    for (j, &speaker) in chunk.iter().take(speakers as usize).enumerate() {
                        let wl = j as u32;
                        let src = Endpoint::new(speaker, wl);
                        let dests: Vec<Endpoint> = chunk
                            .iter()
                            .filter(|&&p| p != speaker)
                            .map(|&p| Endpoint::new(p, dest_wl(model, wl, &mut rng, net)))
                            .collect();
                        try_add(&mut asg, src, dests);
                    }
                }
            }
            AppMix::VideoOnDemand { servers } => {
                let s = servers.clamp(1, net.ports);
                // Each server wavelength streams a different "channel" to
                // a disjoint slice of the audience.
                for server in 0..s {
                    for w in 0..net.wavelengths {
                        let src = Endpoint::new(server, w);
                        let dests: Vec<Endpoint> = (s..net.ports)
                            .filter(|p| {
                                (p + server + w) % net.wavelengths == 0 || net.wavelengths == 1
                            })
                            .map(|p| Endpoint::new(p, dest_wl(model, w, &mut rng, net)))
                            .collect();
                        if !dests.is_empty() {
                            try_add(&mut asg, src, dests);
                        }
                    }
                }
            }
            AppMix::ECommerce { multicast_pct } => {
                let pct = multicast_pct.min(100);
                for p in 0..net.ports {
                    for w in 0..net.wavelengths {
                        let src = Endpoint::new(p, w);
                        let fanout = if rng.gen_range(0..100) < pct {
                            rng.gen_range(2..=4.min(net.ports))
                        } else {
                            1
                        };
                        let mut targets: Vec<u32> = (0..net.ports).collect();
                        shuffle(&mut targets, &mut rng);
                        let dests: Vec<Endpoint> = targets
                            .into_iter()
                            .take(fanout as usize)
                            .map(|t| Endpoint::new(t, dest_wl(model, w, &mut rng, net)))
                            .collect();
                        try_add(&mut asg, src, dests);
                    }
                }
            }
        }
        asg
    }
}

/// Destination wavelength compatible with `model` for source wavelength
/// `src_wl`. MSDW picks one group wavelength per call site (the caller
/// passes the same `src_wl`-derived value for all destinations of a
/// connection); here MSW pins to the source and the other models sample.
fn dest_wl(model: MulticastModel, src_wl: u32, rng: &mut StdRng, net: NetworkConfig) -> u32 {
    match model {
        MulticastModel::Msw => src_wl,
        // Same wavelength for all destinations keeps the connection legal
        // under MSDW while still exercising conversion (λ may differ from
        // the source's only by luck; vary it deterministically instead).
        MulticastModel::Msdw => (src_wl + 1) % net.wavelengths,
        MulticastModel::Maw => rng.gen_range(0..net.wavelengths),
    }
}

fn try_add(asg: &mut MulticastAssignment, src: Endpoint, dests: Vec<Endpoint>) {
    // Keep only free destinations; for MAW the per-port wavelength may
    // collide with an earlier pick, so filter duplicates by port first.
    let mut seen_ports = std::collections::BTreeSet::new();
    let dests: Vec<Endpoint> = dests
        .into_iter()
        .filter(|d| seen_ports.insert(d.port) && asg.output_user(*d).is_none())
        .collect();
    if dests.is_empty() || asg.input_busy(src) {
        return;
    }
    if let Ok(conn) = MulticastConnection::new(src, dests) {
        if asg.model().allows(&conn) {
            let _ = asg.add(conn);
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkConfig {
        NetworkConfig::new(16, 2)
    }

    #[test]
    fn video_conference_has_symmetric_medium_fanout() {
        let asg = AppMix::VideoConference { group_size: 4 }.generate(net(), MulticastModel::Msw, 1);
        assert!(!asg.is_empty());
        // Every connection reaches exactly group_size−1 ports.
        for c in asg.connections() {
            assert_eq!(c.fanout(), 3);
        }
    }

    #[test]
    fn vod_has_few_sources_big_fanout() {
        let asg = AppMix::VideoOnDemand { servers: 2 }.generate(net(), MulticastModel::Msw, 2);
        assert!(!asg.is_empty());
        let max_fanout = asg.connections().map(|c| c.fanout()).max().unwrap();
        assert!(
            max_fanout >= 4,
            "VoD should have large fan-out, got {max_fanout}"
        );
        // All sources are server ports.
        for c in asg.connections() {
            assert!(c.source().port.0 < 2);
        }
    }

    #[test]
    fn ecommerce_is_unicast_dominated() {
        let asg = AppMix::ECommerce { multicast_pct: 10 }.generate(net(), MulticastModel::Maw, 3);
        let unicasts = asg.connections().filter(|c| c.fanout() == 1).count();
        let total = asg.len();
        assert!(total > 0);
        assert!(unicasts * 2 > total, "{unicasts}/{total} unicasts");
    }

    #[test]
    fn scenarios_respect_every_model() {
        for model in MulticastModel::ALL {
            for scenario in [
                AppMix::VideoConference { group_size: 4 },
                AppMix::VideoOnDemand { servers: 3 },
                AppMix::ECommerce { multicast_pct: 25 },
            ] {
                let asg = scenario.generate(net(), model, 7);
                for c in asg.connections() {
                    assert!(
                        model.allows(c),
                        "{} violates {model}: {c}",
                        scenario.label()
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = AppMix::ECommerce { multicast_pct: 30 };
        let a = s.generate(net(), MulticastModel::Maw, 9).to_string();
        let b = s.generate(net(), MulticastModel::Maw, 9).to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn labels() {
        assert_eq!(
            AppMix::VideoOnDemand { servers: 1 }.label(),
            "video-on-demand"
        );
    }
}
