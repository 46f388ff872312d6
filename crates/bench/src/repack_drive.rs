//! Serial repack-vs-first-fit replay behind the payoff experiment.
//!
//! `repack_curves` (the CSV sweep) offers the *same* Poisson
//! mixed-fanout trace to a starved three-stage network twice — plain
//! first-fit, then on-block repacking — so its dominance claim is about
//! identical offered load, not about two different random draws. The
//! replay is serial and seeded, so its counts are exact: the tests
//! below pin them with `==`.

use wdm_core::MulticastModel;
use wdm_multistage::{
    Construction, RouteError, SelectionStrategy, ThreeStageNetwork, ThreeStageParams,
};
use wdm_workload::{DynamicTraffic, TraceEvent};

/// Moves the on-block search may spend per blocked connect. Matches the
/// sim harness's budget so bench numbers replay under `wdmcast sim
/// --repack`.
pub const REPACK_BUDGET: u32 = 4;

/// Aggregate outcome of one serial replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepackOutcome {
    /// Connect attempts offered.
    pub attempts: u64,
    /// Connects admitted (first try or after rearrangement).
    pub admitted: u64,
    /// Hard blocks.
    pub blocked: u64,
    /// Branch moves committed by the repack search.
    pub moves: u32,
}

/// Replay a seeded Poisson mixed-fanout trace (fanout ≤ 2, holding time
/// 1, the given offered load in Erlangs over `horizon` time units) on a
/// three-stage network with load-spreading selection.
pub fn replay(
    p: ThreeStageParams,
    load: f64,
    horizon: f64,
    repack: bool,
    seed: u64,
) -> RepackOutcome {
    let mut net = ThreeStageNetwork::new(p, Construction::MswDominant, MulticastModel::Msw);
    net.set_strategy(SelectionStrategy::Spread);
    let mut traffic = DynamicTraffic::new(p.network(), MulticastModel::Msw, load, 1.0, 2, seed);
    let mut out = RepackOutcome::default();
    for timed in traffic.generate(horizon) {
        match timed.event {
            TraceEvent::Connect(conn) => {
                out.attempts += 1;
                let res = if repack {
                    let (res, report) = net.connect_with_repack(&conn, REPACK_BUDGET);
                    out.moves += report.moves_committed;
                    res
                } else {
                    net.connect(&conn).map(|_| ())
                };
                match res {
                    Ok(()) => out.admitted += 1,
                    Err(RouteError::Blocked { .. }) => out.blocked += 1,
                    Err(e) => panic!("illegal trace event: {e}"),
                }
            }
            TraceEvent::Disconnect(src) => {
                // A blocked connection has nothing to release.
                let _ = net.disconnect(src);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payoff legs at 16 Erlangs on n=2, r=4, k=2 (Theorem-1 bound
    /// m=6): `(m, first-fit blocked, repack blocked, moves committed)`.
    /// Starved fabrics lose less with repacking, m=3 loses nothing, and
    /// one below the bound neither column blocks or moves at all.
    #[test]
    fn repack_payoff_counts_are_pinned() {
        for (m, firstfit_blocked, repack_blocked, moves) in
            [(2, 856, 507, 424), (3, 65, 0, 68), (5, 0, 0, 0)]
        {
            let p = ThreeStageParams::new(2, m, 4, 2);
            let firstfit = replay(p, 16.0, 400.0, false, 0x4EAC);
            let repack = replay(p, 16.0, 400.0, true, 0x4EAC);
            for (name, out, blocked) in [
                ("first-fit", firstfit, firstfit_blocked),
                ("repack", repack, repack_blocked),
            ] {
                assert_eq!(out.attempts, 4309, "{name} attempts at m={m}");
                assert_eq!(out.blocked, blocked, "{name} blocked at m={m}");
                assert_eq!(out.admitted, 4309 - blocked, "{name} admitted at m={m}");
            }
            assert_eq!(firstfit.moves, 0, "first-fit never moves (m={m})");
            assert_eq!(repack.moves, moves, "repack moves at m={m}");
        }
    }
}
