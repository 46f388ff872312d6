//! `graph_hotspot_serial`: the graph backend called serially through
//! `&mut dyn Backend`, where route *search* dominates (not a mask AND)
//! and refusal is legitimate.
//!
//! The request sequence is a `graph_curves`-style closed loop — hold
//! [`GRAPH_TARGET_LIVE`] sessions, retire one, offer one hotspot-skewed
//! fanout-3 request, with a legality mirror tracking what the network
//! actually admitted. It is produced once, by a dry run during set-up
//! against a network of its own, ends with the network empty, and is
//! then replayed in passes; every verdict of every pass must equal the
//! dry run's. A blocked request is a *correct* outcome: its share is the
//! blocking probability, reported as `failed_share` and
//! `graph.network.blocked_share`, and must stay inside the frozen band.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use wdm_core::{Endpoint, MulticastAssignment, MulticastConnection, MulticastModel, NetworkConfig};
use wdm_graph::{GraphNetwork, GraphTopology, Splitting};
use wdm_runtime::Backend;
use wdm_workload::HotspotGen;

use crate::layers::{self, SetupPhases};
use crate::report::RunRecord;
use crate::spec::{
    BenchmarkSpec, GRAPH_BLOCKING_BAND, GRAPH_FANOUT, GRAPH_GEO, GRAPH_MC_EVERY, GRAPH_NODES,
    GRAPH_SEQUENCE_CONNECTS, GRAPH_SKEW_PCT, GRAPH_TARGET_LIVE,
};
use crate::stats::{Clock, Hist, Spread, Window, SUB_WINDOWS};
use crate::trace::TraceSink;
use crate::{backends, micro, RunArgs};

const HOT_NODE: u32 = 0;

/// One step of the replayed sequence with the dry run's verdict.
#[derive(Debug, Clone)]
pub enum Op {
    Connect {
        conn: MulticastConnection,
        admitted: bool,
    },
    /// Always succeeds: only admitted sources are ever retired.
    Disconnect(Endpoint),
}

/// Produce the sequence by running the closed loop once against
/// `net`, which it leaves empty.
pub fn dry_run(net: &mut dyn Backend, seed: u64, connects: usize) -> Vec<Op> {
    let mut gen = HotspotGen::new(
        GRAPH_GEO,
        MulticastModel::Msw,
        HOT_NODE,
        GRAPH_SKEW_PCT,
        seed,
    )
    .with_fanout(GRAPH_FANOUT);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a4b_5eed);
    let mut mirror = MulticastAssignment::new(
        NetworkConfig::new(GRAPH_GEO.ports(), GRAPH_GEO.k),
        MulticastModel::Msw,
    );
    let mut live: Vec<Endpoint> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..connects {
        if live.len() >= GRAPH_TARGET_LIVE {
            let src = live.swap_remove(rng.gen_range(0..live.len()));
            mirror.remove(src).expect("mirror tracked this source");
            net.disconnect(src).expect("admitted source departs");
            ops.push(Op::Disconnect(src));
        }
        let Some(conn) = gen.next_request(&mirror) else {
            continue;
        };
        let admitted = net.connect(&conn).is_ok();
        if admitted {
            live.push(conn.source());
            mirror
                .add(conn.clone())
                .expect("mirror admits what the graph admitted");
        }
        ops.push(Op::Connect { conn, admitted });
    }
    for src in live {
        net.disconnect(src).expect("admitted source departs");
        ops.push(Op::Disconnect(src));
    }
    ops
}

/// Totals of replaying (part of) the sequence.
#[derive(Default)]
struct Totals {
    requests: u64,
    connects: u64,
    blocked: u64,
    mismatches: u64,
}

impl Totals {
    /// Blocked ÷ connect attempts: the blocking probability.
    fn blocked_share(&self) -> f64 {
        self.blocked as f64 / self.connects.max(1) as f64
    }
}

struct Live {
    net: Box<dyn Backend>,
    ops: Vec<Op>,
    sink: Option<Arc<TraceSink>>,
    /// Backend calls made per source so far (the trace join's sequence
    /// number; blocked connects are calls too).
    calls: Vec<u64>,
    totals: Totals,
    phases: SetupPhases,
}

impl Live {
    /// Replay ops `from..` until the sequence ends or `stop` says so
    /// (checked after every op, with the clock reading that followed
    /// it). Returns the index to resume from, `ops.len()` at a pass end.
    fn replay(
        &mut self,
        clock: Clock,
        from: usize,
        window: Option<&Window>,
        join: bool,
        mut stop: impl FnMut(u64) -> bool,
    ) -> usize {
        for (i, op) in self.ops.iter().enumerate().skip(from) {
            let source = match op {
                Op::Connect { conn, .. } => conn.source(),
                Op::Disconnect(src) => *src,
            };
            let enter = clock.now_ns();
            let (ok, expected, connect) = match op {
                Op::Connect { conn, admitted } => (self.net.connect(conn).is_ok(), *admitted, true),
                Op::Disconnect(src) => (self.net.disconnect(*src).is_ok(), true, false),
            };
            let exit = clock.now_ns();
            self.totals.requests += 1;
            self.totals.connects += u64::from(connect);
            self.totals.blocked += u64::from(connect && !ok);
            self.totals.mismatches += u64::from(ok != expected);
            if let Some(w) = window {
                let sub = &w.subs[w.advance(exit)];
                sub.latency.record(exit - enter);
                sub.completed.fetch_add(1, Ordering::Relaxed);
                if connect && ok {
                    sub.admitted.fetch_add(1, Ordering::Relaxed);
                }
            }
            let cell = source.flat_index(GRAPH_GEO.k);
            if let (Some(sink), true) = (&self.sink, join) {
                sink.complete(source, self.calls[cell], enter, enter, exit);
            }
            self.calls[cell] += 1;
            if stop(exit) {
                return i + 1;
            }
        }
        self.ops.len()
    }
}

fn set_up(args: &RunArgs, clock: Clock) -> Live {
    let mut phases = SetupPhases::default();
    let sink = args
        .trace
        .then(|| TraceSink::new(clock, GRAPH_GEO.ports(), GRAPH_GEO.k));
    let t = Instant::now();
    let net = backends::graph(sink.as_ref());
    phases.backend_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ops = dry_run(
        &mut *backends::graph(None),
        args.seed,
        GRAPH_SEQUENCE_CONNECTS,
    );
    phases.tracegen_s = t.elapsed().as_secs_f64();

    let mut live = Live {
        net,
        ops,
        sink,
        calls: vec![0; (GRAPH_GEO.ports() * GRAPH_GEO.k) as usize],
        totals: Totals::default(),
        phases,
    };
    // Warm-up: one full pass.
    let t = Instant::now();
    live.replay(clock, 0, None, false, |_| false);
    live.phases.warmup_s = t.elapsed().as_secs_f64();
    live
}

/// End-of-life checks; folds the totals into the verdict and returns them.
fn finish(live: Live, rec: &mut RunRecord) -> Totals {
    let findings = live.net.check();
    rec.check(findings.is_empty(), || {
        format!("check() findings: {findings:?}")
    });
    rec.check(live.net.active_connections() == 0, || {
        "network not empty at the end of a pass".into()
    });
    let t = &live.totals;
    rec.attempted += t.requests;
    rec.failed += t.mismatches;
    rec.check(t.mismatches == 0, || {
        format!("{} verdicts differ from the dry run", t.mismatches)
    });
    let blocked_share = t.blocked_share();
    let (lo, hi) = GRAPH_BLOCKING_BAND;
    rec.check((lo..=hi).contains(&blocked_share), || {
        format!("blocking probability {blocked_share:.4} left the frozen band {lo}..{hi}")
    });
    live.totals
}

/// Replay passes until the window ends. The pass the window's end cuts
/// short is completed outside the window, so the network is empty again
/// (and the next replay starts where the dry run did).
fn measure(live: &mut Live, clock: Clock, len_ns: u64, subs: usize, join: bool) -> Window {
    let window = Window::new(clock.now_ns(), len_ns, subs);
    let end = window.end_ns();
    let mut at = live.ops.len();
    while clock.now_ns() < end {
        at = live.replay(clock, 0, Some(&window), join, |now| now >= end);
    }
    window.finish(clock.now_ns());
    live.replay(clock, at, None, false, |_| false);
    window
}

pub fn run(args: &RunArgs, spec: &BenchmarkSpec, rec: &mut RunRecord) -> Result<(), String> {
    let clock = Clock::start();
    if args.trace {
        return run_traced(args, spec, rec, clock);
    }
    let measured = layers::measure_systems(
        args,
        spec,
        rec,
        |m: &(Window, Totals)| &m.0,
        |rec, len_ns, subs| {
            let t = Instant::now();
            let mut live = set_up(args, clock);
            let setup_s = t.elapsed().as_secs_f64();
            let window = measure(&mut live, clock, len_ns, subs, false);
            Ok((setup_s, (window, finish(live, rec))))
        },
    )?;
    let sum = |f: fn(&Totals) -> u64| measured.iter().map(|m| f(&m.1)).sum::<u64>();
    let blocked_share = sum(|t| t.blocked) as f64 / sum(|t| t.connects).max(1) as f64;
    rec.put_extra("failed_share", Spread::single(blocked_share), "ratio");
    Ok(())
}

/// The traced run: one system, half the time as reference, half traced.
fn run_traced(
    args: &RunArgs,
    spec: &BenchmarkSpec,
    rec: &mut RunRecord,
    clock: Clock,
) -> Result<(), String> {
    let len_ns = (args.seconds * 1e9) as u64;
    let mut live = set_up(args, clock);
    let sink = live.sink.clone().expect("traced run has a sink");
    let reference = measure(&mut live, clock, len_ns / 2, SUB_WINDOWS / 2, false);
    let traced = measure(&mut live, clock, len_ns / 2, SUB_WINDOWS / 2, true);
    layers::put_trace_segments(rec, spec, &sink);
    layers::put_trace_overhead(rec, spec, &reference, &traced);
    live.phases.put(rec, spec, args.workload);
    let ops = live.ops.clone();
    let totals = finish(live, rec);
    rec.put1(spec, "graph.network.blocked_share", totals.blocked_share());
    direct(rec, spec, &ops);
    micro::common(rec, spec, args);
    layers::write_trace_file(args, &sink)
}

/// `graph.network.*`: one pass of the sequence straight into a
/// concrete `GraphNetwork` (no trait object), timing admitted and
/// blocked connects apart — the blocked ones are the cost of the wasted
/// search — and reading hop counts off the routes.
fn direct(rec: &mut RunRecord, spec: &BenchmarkSpec, ops: &[Op]) {
    let mut net = GraphNetwork::new(
        GraphTopology::Ring { nodes: GRAPH_NODES }
            .build()
            .with_mc_every(GRAPH_MC_EVERY),
        GRAPH_GEO.n,
        GRAPH_GEO.k,
        Splitting::Hierarchy,
        MulticastModel::Msw,
    );
    let (admitted_ns, blocked_ns) = (Hist::default(), Hist::default());
    let mut hops = 0u64;
    let mut mismatches = 0u64;
    for op in ops {
        match op {
            Op::Connect { conn, admitted } => {
                let t = Instant::now();
                let route_hops = net.connect(conn).map(|r| r.hops()).ok();
                let ns = t.elapsed().as_nanos() as u64;
                match route_hops {
                    Some(h) => {
                        admitted_ns.record(ns);
                        hops += h as u64;
                    }
                    None => blocked_ns.record(ns),
                }
                mismatches += u64::from(route_hops.is_some() != *admitted);
            }
            Op::Disconnect(src) => mismatches += u64::from(net.disconnect(*src).is_err()),
        }
    }
    rec.check(mismatches == 0, || {
        format!("{mismatches} verdicts of the directly built GraphNetwork differ from Scenario::build()'s")
    });
    rec.put1(
        spec,
        "graph.network.connect_ns_admitted",
        admitted_ns.mean(),
    );
    rec.put1(spec, "graph.network.connect_ns_blocked", blocked_ns.mean());
    rec.put1(
        spec,
        "graph.network.mean_hops",
        hops as f64 / admitted_ns.count().max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dry_run_is_seeded_ends_empty_and_replays_to_the_same_verdicts() {
        let mut a = backends::graph(None);
        let ops = dry_run(&mut *a, 5, 2_000);
        assert_eq!(a.active_connections(), 0);
        assert!(a.check().is_empty());
        let mut b = backends::graph(None);
        let again = dry_run(&mut *b, 5, 2_000);
        assert_eq!(format!("{ops:?}"), format!("{again:?}"));
        assert_ne!(
            format!("{ops:?}"),
            format!("{:?}", dry_run(&mut *b, 6, 2_000))
        );
        let blocked = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Connect {
                        admitted: false,
                        ..
                    }
                )
            })
            .count();
        assert!(blocked > 0, "the workload must actually block");

        // Two more passes over the same (now empty) network agree.
        let mut live = Live {
            net: a,
            ops,
            sink: None,
            calls: vec![0; (GRAPH_GEO.ports() * GRAPH_GEO.k) as usize],
            totals: Totals::default(),
            phases: SetupPhases::default(),
        };
        let clock = Clock::start();
        for _ in 0..2 {
            assert_eq!(
                live.replay(clock, 0, None, false, |_| false),
                live.ops.len()
            );
        }
        assert_eq!(live.totals.mismatches, 0);
        assert_eq!(live.totals.blocked, 2 * blocked as u64);
        assert_eq!(live.net.active_connections(), 0);
    }
}
