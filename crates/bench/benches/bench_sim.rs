//! **Simulation benchmark**: throughput of the deterministic executor —
//! seeded interleaving checks per second, end to end (adversarial trace
//! generation, the cooperative scheduler, the serial oracle replay, and
//! the conformance diff). This is the cost CI pays per seed in the
//! nightly sweep, so regressions here translate directly into less
//! schedule-space coverage per minute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_sim::{BackendKind, Scenario};

fn bench_check_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_check_seed");
    let base = |kind| Scenario::new(kind).geometry(2, 4, 1).schedule(40, 4);
    let three_stage = base(BackendKind::ThreeStage);
    let spare = three_stage.middle_count().expect("valid scenario") + 1;
    for (label, setup) in [
        ("crossbar", base(BackendKind::Crossbar)),
        ("three-stage", three_stage),
        (
            "three-stage-faulted",
            three_stage.middles(spare).faulted(true),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &setup, |b, setup| {
            let mut seed = 0u64;
            b.iter(|| {
                let verdict = setup.check_seed(seed).expect("valid scenario");
                assert!(verdict.violations.is_empty(), "seed {seed} diverged");
                seed = seed.wrapping_add(1);
                verdict.fingerprint
            });
        });
    }
    group.finish();
}

fn bench_shrink(c: &mut Criterion) {
    // The starved regime: every seed fails, so this measures the full
    // artifact pipeline — check, ddmin over connect/disconnect units,
    // and the final re-validation of the shrunk trace.
    let setup = Scenario::new(BackendKind::ThreeStage)
        .geometry(4, 4, 1)
        .schedule(60, 4)
        .middles(3);
    c.bench_function("sim_failing_seed_shrink", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            let failure = setup
                .failing_seed(seed)
                .expect("valid scenario")
                .expect("starved network must fail");
            seed = seed.wrapping_add(1);
            failure.trace.len()
        });
    });
}

criterion_group!(benches, bench_check_seed, bench_shrink);
criterion_main!(benches);
