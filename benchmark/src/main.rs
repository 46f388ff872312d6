//! The repo's benchmark: four workloads over the wire → reactor →
//! engine → backend path, measured end to end and layer by layer, from
//! outside, through the crates' public items. See `README.md` here and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! benchmark [--seed <n>] [--seconds <s>] [--quick] [--out <file>]      every workload, untraced + traced
//! benchmark compare <A.json> <B.json>                                   apply the regression bounds
//! ```

mod backends;
mod compare;
mod engine;
mod frames;
mod graph;
mod layers;
mod micro;
mod report;
mod slots;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::RunRecord;
use spec::{BenchmarkSpec, Workload, OPEN_LOOP_RATE, WARMUP_REQUESTS};

/// How much work the fixed-size parts of a run do: full size, or the
/// `--quick` smoke size (≤ 2 s per workload, every metric still there).
#[derive(Debug, Clone)]
pub struct Scale {
    pub warmup_requests: u64,
    /// Systems an untraced run sets up, measures and tears down, one
    /// after another; `setup_s` is the median of their set-up times and
    /// the other metrics pool their sub-windows.
    pub setups: usize,
    pub micro_iters: u64,
    pub micro_time_cap: Duration,
    /// Offered rate of the open loop, requests per second.
    pub open_loop_rate: f64,
}

impl Scale {
    const FULL: Scale = Scale {
        warmup_requests: WARMUP_REQUESTS,
        setups: 5,
        micro_iters: 1 << 20,
        micro_time_cap: Duration::from_millis(1000),
        open_loop_rate: OPEN_LOOP_RATE,
    };
    const QUICK: Scale = Scale {
        warmup_requests: 5_000,
        setups: 1,
        micro_iters: 4_096,
        micro_time_cap: Duration::from_millis(20),
        // Low enough for an unoptimised `cargo test` build to keep up.
        open_loop_rate: 10_000.0,
    };
}

/// One `--workload` invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// `benchmark/out/`, created on demand: trace files and suite results.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run one workload in this process and build its record.
fn run_one(args: &RunArgs, spec: &BenchmarkSpec) -> RunRecord {
    let mut rec = RunRecord::new(args.workload, args.trace, args.seed, args.seconds);
    let outcome = match args.workload {
        w if w.is_wire() => wire::run(args, spec, &mut rec),
        Workload::EngineMulticastBatch => engine::run(args, spec, &mut rec),
        _ => graph::run(args, spec, &mut rec),
    };
    if let Err(e) = outcome {
        rec.problem(format!("run aborted: {e}"));
    }
    if !args.trace && !rec.metrics.contains_key("failed_share") {
        rec.put_extra(
            "failed_share",
            stats::Spread::single(rec.failed as f64 / rec.attempted.max(1) as f64),
            "ratio",
        );
    }
    rec.close(spec, args.workload);
    rec
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// `--report`: where a single run also writes its full record.
    report: Option<PathBuf>,
    /// `--out`: where the suite writes its results.
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        report: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--report" => cli.report = Some(PathBuf::from(value)),
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [a, b] = &argv[1..] else {
            return Err("usage: benchmark compare <A.json> <B.json>".into());
        };
        return compare::run(a.as_ref(), b.as_ref());
    }
    let cli = parse(&argv)?;
    let spec = BenchmarkSpec::embedded();
    let named = spec.workloads.iter().map(|w| w.name.as_str());
    if !named.eq(Workload::ALL.iter().map(|w| w.name())) {
        return Err("BENCHMARK.json names other workloads than this program runs".into());
    }
    let scale = if cli.quick { Scale::QUICK } else { Scale::FULL };
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        1.0
    } else {
        spec.run_seconds as f64
    });
    let Some(workload) = cli.workload else {
        return suite::run(cli.seed, seconds, cli.quick, cli.out);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        scale,
    };
    let rec = run_one(&args, &spec);
    rec.print_lines();
    if let Some(path) = cli.report {
        let text = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", rec.contract_line(&spec));
    Ok(rec.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
