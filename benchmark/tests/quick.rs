//! `--quick` end to end: the real binary, every workload, untraced and
//! traced, ≤ 2 s of measuring each — and every metric `BENCHMARK.json`
//! names must be in the driver's JSON line, with the run correct.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");
const REGISTRY: &str = include_str!("../../BENCHMARK.json");

/// The `"name": "…"` values inside the top-level array `key`. The file
/// is flat enough that scanning text keeps this test free of a JSON
/// dependency of its own.
fn names_in(key: &str) -> Vec<String> {
    let start = REGISTRY.find(&format!("\"{key}\"")).expect("key present");
    let body = &REGISTRY[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a last line").to_string()
}

#[test]
fn quick_mode_reports_every_named_metric_on_every_workload() {
    let workloads = names_in("workloads");
    assert_eq!(workloads.len(), 4);
    let (end_to_end, per_layer) = (names_in("end_to_end"), names_in("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    // One at a time: the workloads are sized for the whole machine.
    for w in &workloads {
        for (trace, names, others) in [
            ("0", &end_to_end, &per_layer),
            ("1", &per_layer, &end_to_end),
        ] {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{w}: {line}"
            );
            assert!(line.contains("\"failed\":0,"), "{w}: {line}");
            for name in names {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{w} trace={trace}: {name} missing from {line}"
                );
            }
            for name in others {
                assert!(!line.contains(&format!("\"{name}\":")), "{w}: stray {name}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--bogus", "1"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
