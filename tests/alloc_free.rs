//! Allocation guard for the three-stage admission path, through the
//! facade.
//!
//! A counting global allocator wraps `System`. A G2 network (n=16 r=32
//! k=8, m=93 = the Theorem-1 bound, FirstFit) is churned through the
//! engine's `Backend` interface on the benchmark's fanout mix
//! {1, 2, 8, 32}. After a warm-up through the peak, every admitted
//! connect performs exactly one allocation — the assignment's copy of
//! the request — and every disconnect none: torn-down route storage is
//! reused by the next commits.
//!
//! Debug-only code may allocate where release code does not, so CI also
//! runs this file in release: `cargo test --release --test alloc_free`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wdm_multicast::core::{Endpoint, MulticastConnection, MulticastModel};
use wdm_multicast::multistage::{bounds, Construction, ThreeStageNetwork, ThreeStageParams};
use wdm_multicast::runtime::{Backend, EngineBuilder};
use wdm_multicast::workload::{TimedEvent, TraceEvent};

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (fresh blocks and reallocations) counted so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of the blocks it hands out.
struct Counting;

fn note_allocation() {
    // `try_with`: the thread-locals are gone while a thread tears down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get) - before)
}

/// The benchmark's G2 mix as `(fanout, percent)`.
const G2_MIX: [(u32, u32); 4] = [(1, 40), (2, 25), (8, 20), (32, 15)];

/// Partition the fabric into conflict-free slots the way the benchmark
/// does: per wavelength, `⌊N·100 / Σ fanout·percent⌋` slots split by the
/// mix, each owning one source and its own destination ports.
fn slots(ports: u32, k: u32, rng: &mut StdRng) -> Vec<MulticastConnection> {
    let shuffled = |rng: &mut StdRng| {
        let mut v: Vec<u32> = (0..ports).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v.into_iter()
    };
    let weighted: u32 = G2_MIX.iter().map(|&(f, pct)| f * pct).sum();
    let per_wavelength = ports * 100 / weighted;
    let mut slots = Vec::new();
    for w in 0..k {
        let mut sources = shuffled(rng);
        let mut outputs = shuffled(rng);
        for &(fanout, pct) in &G2_MIX {
            for _ in 0..per_wavelength * pct / 100 {
                let src = Endpoint::new(sources.next().expect("a free source"), w);
                let dests = outputs.by_ref().take(fanout as usize);
                let conn = MulticastConnection::new(src, dests.map(|p| Endpoint::new(p, w)))
                    .expect("distinct output ports");
                slots.push(conn);
            }
        }
    }
    slots
}

/// Allocations seen over `steps` random slot toggles.
#[derive(Debug, Default, PartialEq, Eq)]
struct Churn {
    connects: u64,
    connect_allocs: u64,
    disconnects: u64,
    disconnect_allocs: u64,
}

/// Toggle random slots: a connect for a slot that is down, a disconnect
/// for one that is up. Every connect must be admitted (the slots never
/// conflict, and `m` is the Theorem-1 bound).
fn churn(
    net: &mut ThreeStageNetwork,
    slots: &[MulticastConnection],
    up: &mut [bool],
    rng: &mut StdRng,
    steps: usize,
) -> Churn {
    let mut seen = Churn::default();
    for _ in 0..steps {
        let i = rng.gen_range(0..slots.len());
        if up[i] {
            let (res, n) = counted(|| Backend::disconnect(net, slots[i].source()));
            res.expect("a live slot disconnects");
            seen.disconnects += 1;
            seen.disconnect_allocs += n;
        } else {
            let (res, n) = counted(|| Backend::connect(net, &slots[i]));
            res.expect("no block at the Theorem-1 bound");
            seen.connects += 1;
            seen.connect_allocs += n;
        }
        up[i] = !up[i];
    }
    seen
}

#[test]
fn steady_churn_allocates_only_the_assignment_copy() {
    let bound = bounds::theorem1_min_m(16, 32);
    assert_eq!(bound.m, 93);
    let params = ThreeStageParams::new(16, bound.m, 32, 8);
    let mut net = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    let mut rng = StdRng::seed_from_u64(42);
    let slots = slots(params.network().ports, params.k, &mut rng);
    assert_eq!(slots.len(), 552);
    let mut up = vec![false; slots.len()];

    // Warm up through the peak: every slot up, then down. The teardown
    // hands back storage for every route; no later mix of live slots
    // needs more of any size.
    for conn in &slots {
        Backend::connect(&mut net, conn).expect("every slot fits at once");
    }
    for conn in &slots {
        Backend::disconnect(&mut net, conn.source()).expect("a live slot disconnects");
    }
    let steady = churn(&mut net, &slots, &mut up, &mut rng, 50_000);
    assert!(steady.connects > 20_000 && steady.disconnects > 20_000);
    assert_eq!(
        (steady.connect_allocs, steady.disconnect_allocs),
        (steady.connects, 0),
        "{steady:?}"
    );
    assert_eq!(net.check_consistency(), Vec::<String>::new());
}

/// Events per engine submit in the engine-path guard.
const BATCH: usize = 64;

#[test]
fn engine_submit_allocates_the_assignment_copies_and_a_per_submit_constant() {
    let bound = bounds::theorem1_min_m(16, 32);
    let params = ThreeStageParams::new(16, bound.m, 32, 8);
    let net = ThreeStageNetwork::new(params, Construction::MswDominant, MulticastModel::Msw);
    let mut rng = StdRng::seed_from_u64(7);
    let slots = slots(params.network().ports, params.k, &mut rng);
    let mut up = vec![false; slots.len()];
    // One shard: the submit's split is one slice of exactly `BATCH`
    // jobs, so what the engine allocates per submit is one constant.
    let engine = EngineBuilder::new().shards(1).start(net);
    let toggle = |i: usize, up: &mut [bool]| {
        let event = if up[i] {
            TraceEvent::Disconnect(slots[i].source())
        } else {
            TraceEvent::Connect(slots[i].clone())
        };
        up[i] = !up[i];
        TimedEvent { time: 0.0, event }
    };
    let submit = |events: Vec<TimedEvent>| {
        assert!(engine.submit_batch(events).is_accepted());
    };

    // Warm up through the peak, as above, and grow the shard's tables.
    for chunk in (0..slots.len()).collect::<Vec<_>>().chunks(BATCH) {
        submit(chunk.iter().map(|&i| toggle(i, &mut up)).collect());
    }
    for chunk in (0..slots.len()).collect::<Vec<_>>().chunks(BATCH) {
        submit(chunk.iter().map(|&i| toggle(i, &mut up)).collect());
    }

    let (submits, mut connects, mut allocs) = (1_000u64, 0u64, 0u64);
    for _ in 0..submits {
        let events: Vec<TimedEvent> = (0..BATCH)
            .map(|_| toggle(rng.gen_range(0..slots.len()), &mut up))
            .collect();
        connects += events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Connect(_)))
            .count() as u64;
        allocs += counted(|| submit(events)).1;
    }
    let report = engine.drain();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.summary.blocked + report.summary.expired, 0);
    // Per submit: the job list, the per-shard split and its one slice
    // grown to `BATCH`.
    assert_eq!(allocs - connects, submits * 7, "{allocs} allocations");
}
