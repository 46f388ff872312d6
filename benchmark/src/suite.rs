//! The one command that runs everything: every workload, untraced then
//! traced, each in a fresh child process of this same binary (so one
//! workload's peak RSS, warmed caches or leftover threads cannot colour
//! the next), every metric printed by name and unit, the whole set
//! written to one results file that `benchmark compare` reads.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::Command;

use crate::report::RunRecord;
use crate::spec::{Workload, G1, G1_M, G2, G2_M, SHARDS};

/// A complete set of runs, as written by the suite.
#[derive(Debug, Serialize, Deserialize)]
pub struct SuiteResults {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub nproc: usize,
    pub geometries: String,
    pub runs: Vec<RunRecord>,
}

pub fn run(seed: u64, seconds: f64, quick: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = crate::out_dir()?;
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = dir.join(format!("{}.trace{}.json", workload.name(), trace as u8));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--report")
                .arg(&report);
            if quick {
                cmd.arg("--quick");
            }
            // The child prints its own lines; `status` waits for it.
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
            let text = std::fs::read_to_string(&report)
                .map_err(|e| format!("{} left no report ({status}): {e}", workload.name()))?;
            let rec: RunRecord = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            if rec.correct == status.success() {
                runs.push(rec);
            } else {
                return Err(format!(
                    "{}: exit {status} contradicts its report",
                    workload.name()
                ));
            }
        }
    }
    let all_correct = runs.iter().all(|r| r.correct);
    let results = SuiteResults {
        seed,
        seconds,
        quick,
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
        geometries: format!(
            "G1 n={} r={} k={} m={G1_M}; G2 n={} r={} k={} m={G2_M}; reactor shards = engine shards = {SHARDS}",
            G1.n, G1.r, G1.k, G2.n, G2.r, G2.k
        ),
        runs,
    };
    let path = out.unwrap_or_else(|| dir.join("results.json"));
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "# suite: {} runs, {} -> {}",
        results.runs.len(),
        if all_correct {
            "all correct"
        } else {
            "CORRECTNESS FAILURES"
        },
        path.display()
    );
    for r in results.runs.iter().filter(|r| !r.correct) {
        for p in &r.problems {
            println!("PROBLEM {} trace={}: {p}", r.workload, r.trace as u8);
        }
    }
    Ok(all_correct)
}
