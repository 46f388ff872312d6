//! `wdmcast` — command-line explorer for nonblocking WDM multicast
//! switching networks (Yang, Wang, Qiao).
//!
//! ```text
//! wdmcast capacity  -N 8 -k 2              # Lemmas 1–3 capacities
//! wdmcast cost      -N 64 -k 4             # crossbar vs multistage cost
//! wdmcast build     -N 4 -k 2 --model maw  # construct a crossbar, census + power
//! wdmcast bounds    --n 8 --r 8 -k 2       # Theorems 1–2 middle-stage bounds
//! wdmcast route     -N 6 -k 2 --model msw --steps 200 --seed 7
//! wdmcast multistage --n 4 --r 4 -k 2 --construction msw --steps 400
//! wdmcast fig10                            # the paper's blocking scenario
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use wdm_analysis::TextTable;
use wdm_core::{capacity, MulticastModel, NetworkConfig};
use wdm_fabric::{PowerParams, WdmCrossbar};
use wdm_graph::{GraphTopology, Splitting};
use wdm_multistage::{
    bounds, cost, scenarios, Construction, ConverterPlacement, RouteError, ThreeStageNetwork,
    ThreeStageParams,
};
use wdm_sim::{parse_backend_arg, BackendKind, Scenario, WorkloadSpec};
use wdm_workload::AssignmentGen;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "capacity" => cmd_capacity(&opts),
        "cost" => cmd_cost(&opts),
        "build" => cmd_build(&opts),
        "bounds" => cmd_bounds(&opts),
        "route" => cmd_route(&opts),
        "multistage" => cmd_multistage(&opts),
        "photonic" => cmd_photonic(&opts),
        "fivestage" => cmd_fivestage(&opts),
        "witness" => cmd_witness(&opts),
        "scenario" => cmd_scenario(&opts),
        "trace" => cmd_trace(&opts),
        "dot" => cmd_dot(&opts),
        "serve" => cmd_serve(&opts),
        "bench-net" => cmd_bench_net(&opts),
        "sim" => cmd_sim(&opts),
        "fig10" => cmd_fig10(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
wdmcast — nonblocking WDM multicast switching networks

USAGE: wdmcast <command> [options]

COMMANDS:
  capacity    -N <ports> -k <wavelengths>          exact multicast capacities (Lemmas 1-3)
  cost        -N <ports> -k <wavelengths>          three-architecture cost report (Table 2 +
                                                   AWG-Clos): crosspoints, converters, AWG ports
  build       -N <ports> -k <λ> --model <m>        construct a crossbar; census + power budget
  bounds      --n <n> --r <r> -k <λ>               Theorems 1-2 middle-stage bounds
  route       -N <ports> -k <λ> --model <m> [--steps S] [--seed X]
                                                   churn a crossbar fabric with random traffic
  multistage  --n <n> --r <r> -k <λ> [--m M] [--construction msw|maw]
              [--model m] [--steps S] [--seed X]   churn a three-stage network; report blocking
  photonic    --n <n> --r <r> -k <λ> [--m M]       build Fig. 8 as a netlist, route, trace light
  fivestage   -N <ports> -k <λ> [--steps S]        build a recursive 5-stage network and churn it
  witness     --n <n> --r <r> -k <λ> --m <M>       search for a blocking sequence below the bound
  scenario    -N <ports> -k <λ> --name <s>         offer an application mix (video-conference|
                                                   video-on-demand|e-commerce) to a crossbar
  trace       --record <file> -N <ports> -k <λ> [--steps S]  record a churn trace to JSON
              --replay <file> --n <n> --r <r>      replay a recorded trace on a 3-stage network
  dot         -N <ports> -k <λ> --model <m> [--out file.dot]  export a crossbar netlist as Graphviz
  serve       --n <n> --r <r> -k <λ> [--m M] [--construction msw|maw] [--model m]
              [--rate R] [--horizon T] [--workers W] [--deadline-ms D] [--seed X]
              [--snapshot-ms S] [--json file]      run the concurrent admission engine over a
              [--kill-middle j,k,...] [--fault-rate R] [--mttr T]
              [--backend three-stage|three-stage-cas|awg-clos|graph]
                                                   dynamic trace on the crossbar baseline AND the
                                                   chosen multistage backend (default three-stage)
                                                   and report throughput, blocking probability,
                                                   and the busy-retry wait before admission;
                                                   --kill-middle fails the named middle switches
                                                   mid-run, --fault-rate adds randomized component
                                                   chaos (repairs after mean --mttr, default 2)
              with --listen ADDR (e.g. 127.0.0.1:0) the command instead serves the admission
              engine over TCP using the wdm-net wire protocol, behind the sharded epoll
              reactor with adaptive batch coalescing (Linux only)
              ([--backend crossbar|three-stage|three-stage-cas|awg-clos|graph] picks the
              fabric behind the same dyn-Backend engine, default three-stage; awg-clos
              needs k ≥ r; graph takes the same --topology/--mc-every/--splitting knobs
              as sim and enforces no bound);
              [--addr-file PATH] writes the bound address (for port 0) and a client's Drain
              frame stops the server
  bench-net   --connect ADDR --n <n> --r <r> -k <λ> [--clients C] [--pipeline W]
              [--batch B] [--rate R] [--horizon T] [--seed X] [--drain true|false]
              (--batch > 1 ships runs of connects as single wire-v2 BatchConnect frames)
                                                   closed-loop load generator: C client threads
                                                   stream a generated trace into a wdm-net server
                                                   and report admissions/sec plus latency
                                                   percentiles; --drain true (default) drains the
                                                   server at the end and asserts a clean report
              (a smoke client, not a measurement: rates and latencies of the served
              system are BENCHMARK.json's — run the benchmark/ package)
  sim         --n <n> --r <r> [-k <λ>] [--m M]
              [--backend crossbar|three-stage|three-stage-cas|awg-clos|graph]
              [--steps S] [--shards S] [--seed X | --seeds COUNT] [--faulted] [--repack]
              [--concurrent]
              [--topology ring|grid|torus] [--nodes N | --rows R --cols C]
              [--mc-every E] [--splitting tree|hierarchy] [--hotspot PCT] [--hot NODE]
                                                   deterministic simulation: replay seeded
                                                   interleavings of the sharded admission engine
                                                   and check each against the serial oracle
                                                   (fault-free) or the conservation invariants
                                                   (--faulted, or --repack which rearranges
                                                   routes on block — three-stage only;
                                                   --concurrent admits through the lock-free
                                                   CAS backend, three-stage only);
                                                   --backend graph routes light-trees over an
                                                   arbitrary topology (--topology, --mc-every E
                                                   makes every E-th node splitting-capable,
                                                   --splitting tree forbids hierarchies) under
                                                   adversarial churn or a hotspot workload
                                                   (--hotspot skews PCT% of destination draws
                                                   onto node --hot);
                                                   --seeds sweeps COUNT seeds from
                                                   --seed (default 0); a failing seed is shrunk
                                                   by delta debugging and printed as a replayable
                                                   artifact, and the exit code is nonzero
  fig10                                            replay the paper's Fig. 10 scenario

OPTIONS:
  --model msw|msdw|maw   multicast model (default msw)
  --steps N              churn steps (default 200)
  --seed N               RNG seed (default 42)";

struct Opts(HashMap<String, String>);

impl Opts {
    /// Flags that may appear without a value (presence means "true"),
    /// so shrink artifacts' `reproduce:` lines paste back verbatim.
    const BOOLEAN_FLAGS: [&'static str; 3] = ["faulted", "repack", "concurrent"];

    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let key = flag.trim_start_matches('-').to_string();
            if key.is_empty() || !flag.starts_with('-') {
                return Err(format!("unexpected argument {flag:?}"));
            }
            if Self::BOOLEAN_FLAGS.contains(&key.as_str())
                && it.peek().is_none_or(|next| next.starts_with('-'))
            {
                map.insert(key, "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?
                .to_string();
            map.insert(key, value);
        }
        Ok(Opts(map))
    }

    fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.0.get(key).map(String::as_str) {
            None | Some("false") | Some("0") => Ok(false),
            Some("true") | Some("1") => Ok(true),
            // A bare `--concurrent three-stage` swallows the backend name
            // as the flag's value; recognize that and point at --backend
            // (with the full menu if the name is also misspelled) instead
            // of a bare "must be true or false".
            Some(other) => match parse_backend_arg(other) {
                Ok(_) => Err(format!(
                    "--{key} is a boolean flag and {other:?} is a backend; \
                     pass it as --backend {other}"
                )),
                Err(menu) if other.chars().all(|c| c.is_alphanumeric() || c == '-') => {
                    Err(format!("--{key} is a boolean flag ({menu})"))
                }
                Err(_) => Err(format!("--{key} must be true or false, got {other:?}")),
            },
        }
    }

    fn u32(&self, key: &str, default: Option<u32>) -> Result<u32, String> {
        match self.0.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
            None => default.ok_or(format!("missing required flag --{key}")),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.0.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
            None => Ok(default),
        }
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.0.get(key) {
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
                _ => Err(format!("--{key} must be a positive number, got {v:?}")),
            },
            None => Ok(default),
        }
    }

    fn model(&self) -> Result<MulticastModel, String> {
        match self.0.get("model").map(String::as_str) {
            None | Some("msw") => Ok(MulticastModel::Msw),
            Some("msdw") => Ok(MulticastModel::Msdw),
            Some("maw") => Ok(MulticastModel::Maw),
            Some(other) => Err(format!("unknown model {other:?} (msw|msdw|maw)")),
        }
    }

    fn construction(&self) -> Result<Construction, String> {
        match self.0.get("construction").map(String::as_str) {
            None | Some("msw") => Ok(Construction::MswDominant),
            Some("maw") => Ok(Construction::MawDominant),
            Some(other) => Err(format!("unknown construction {other:?} (msw|maw)")),
        }
    }

    /// Refine a graph backend with `--topology ring|grid|torus` plus its
    /// dimension flags (`--nodes`, `--rows`/`--cols`); reject the flags
    /// when the backend is not a graph.
    fn topology(&self, kind: BackendKind) -> Result<BackendKind, String> {
        if !matches!(kind, BackendKind::Graph { .. }) {
            for flag in ["topology", "nodes", "rows", "cols", "mc-every", "splitting"] {
                if self.0.contains_key(flag) {
                    return Err(format!(
                        "--{flag} applies to the graph backend; add --backend graph"
                    ));
                }
            }
            return Ok(kind);
        }
        let shape = self.0.get("topology").map(String::as_str);
        let topology = match shape {
            None | Some("ring") => {
                if shape.is_none() && (self.0.contains_key("rows") || self.0.contains_key("cols")) {
                    return Err("--rows/--cols need --topology grid or torus".into());
                }
                GraphTopology::Ring {
                    nodes: self.u32("nodes", Some(8))?,
                }
            }
            Some(mesh @ ("grid" | "torus")) => {
                if self.0.contains_key("nodes") {
                    return Err(format!(
                        "--topology {mesh} takes --rows/--cols, not --nodes"
                    ));
                }
                let rows = self.u32("rows", Some(3))?;
                let cols = self.u32("cols", Some(3))?;
                if mesh == "grid" {
                    GraphTopology::Grid { rows, cols }
                } else {
                    GraphTopology::Torus { rows, cols }
                }
            }
            Some(other) => {
                return Err(format!("unknown topology {other:?} (ring|grid|torus)"));
            }
        };
        if topology.nodes() < 2 {
            return Err(format!("topology {topology} needs at least 2 nodes"));
        }
        Ok(BackendKind::Graph { topology })
    }

    /// The experiment `sim`, `serve` and `serve --listen` share: backend
    /// (default three-stage) with its topology flags, `--n/--r/-k`,
    /// `--m`, `--model`, `--construction` and the graph knobs
    /// (`--mc-every`, `--splitting`). Only flag syntax is checked here;
    /// which geometry is legal and which bound applies is
    /// [`Scenario`]'s to say. An unknown `--backend` lists every valid
    /// choice so the caller can self-correct.
    fn scenario(&self) -> Result<Scenario, String> {
        let (kind, cas) = match self.0.get("backend") {
            None => (BackendKind::ThreeStage, false),
            Some(s) => parse_backend_arg(s)?,
        };
        let kind = self.topology(kind)?;
        // Graph geometry comes from the topology; --r may restate it.
        let r = match kind {
            BackendKind::Graph { topology } => Some(topology.nodes()),
            _ => None,
        };
        let splitting = match self.0.get("splitting") {
            None => Splitting::Hierarchy,
            Some(s) => Splitting::parse(s)
                .ok_or_else(|| format!("unknown splitting {s:?} (tree|hierarchy)"))?,
        };
        let mut sc = Scenario::new(kind)
            .geometry(
                self.u32("n", None)?,
                self.u32("r", r)?,
                self.u32("k", Some(1))?,
            )
            .model(self.model()?)
            .construction(self.construction()?)
            .concurrent(cas)
            .mc_every(self.u32("mc-every", Some(1))?)
            .splitting(splitting);
        if self.0.contains_key("m") {
            sc = sc.middles(self.u32("m", None)?);
        }
        Ok(sc)
    }

    /// The hotspot workload flags: `--hotspot <skew%>` with an optional
    /// `--hot <module>` (default 0). Adversarial churn when absent.
    fn workload(&self) -> Result<WorkloadSpec, String> {
        if !self.0.contains_key("hotspot") && !self.0.contains_key("hot") {
            return Ok(WorkloadSpec::Adversarial);
        }
        Ok(WorkloadSpec::Hotspot {
            hot: self.u32("hot", Some(0))?,
            skew_pct: self.u32("hotspot", Some(50))?,
        })
    }

    /// `Opts::parse` ignores unknown flags, so the removed
    /// `--serve-mode` is refused by name: `--serve-mode threads` must
    /// not silently serve through the reactor.
    fn reject_removed_flag(&self) -> Result<(), String> {
        if self.0.contains_key("serve-mode") {
            return Err(
                "--serve-mode was removed: the epoll reactor is the only serving layer".into(),
            );
        }
        Ok(())
    }
}

/// Validated flat network frame: the constructors panic on degenerate
/// geometry, so flag values are checked here and reported as errors.
fn frame(opts: &Opts) -> Result<NetworkConfig, String> {
    let ports = opts.u32("N", None)?;
    let k = opts.u32("k", Some(1))?;
    if ports == 0 {
        return Err("-N must be at least 1".into());
    }
    if k == 0 {
        return Err("-k must be at least 1".into());
    }
    Ok(NetworkConfig::new(ports, k))
}

/// The theorem the construction is judged by: Theorem 1 for
/// MSW-dominant, Theorem 2 for MAW-dominant.
fn theorem_bound(construction: Construction, n: u32, r: u32, k: u32) -> bounds::MiddleBound {
    match construction {
        Construction::MswDominant => bounds::theorem1_min_m(n, r),
        Construction::MawDominant => bounds::theorem2_min_m(n, r, k),
    }
}

/// Validated three-stage geometry from `--n/--m/--r/-k` flags.
/// `m` defaults to `default_m` (usually the theorem bound). The
/// constructors panic on degenerate geometry; [`Scenario`]'s validator
/// reports it as an error first.
fn three_stage(
    opts: &Opts,
    n: u32,
    r: u32,
    k: u32,
    default_m: u32,
) -> Result<ThreeStageParams, String> {
    let m = opts.u32("m", Some(default_m))?;
    Scenario::new(BackendKind::ThreeStage)
        .geometry(n, r, k)
        .middles(m)
        .middle_count()?;
    Ok(ThreeStageParams::new(n, m, r, k))
}

fn cmd_capacity(opts: &Opts) -> Result<(), String> {
    let net = frame(opts)?;
    let mut t = TextTable::new(["model", "full assignments", "any assignments"]);
    for model in MulticastModel::ALL {
        t.row([
            model.to_string(),
            capacity::full_assignments(net, model).to_string(),
            capacity::any_assignments(net, model).to_string(),
        ]);
    }
    t.row([
        "electronic Nk×Nk".to_string(),
        capacity::electronic_full(net).to_string(),
        capacity::electronic_any(net).to_string(),
    ]);
    println!("Multicast capacity of {net}:\n{t}");
    Ok(())
}

fn cmd_cost(opts: &Opts) -> Result<(), String> {
    let net = frame(opts)?;
    let (n, k) = (net.ports as u64, net.wavelengths as u64);
    let side = (n as f64).sqrt().round() as u32;
    let square = side as u64 * side as u64 == n && side >= 2;
    let mut t = TextTable::new(["design", "crosspoints", "converters", "AWG ports"]);
    let row = |t: &mut TextTable, label: String, c: cost::ArchitectureCost| {
        t.row([
            label,
            c.crosspoints.to_string(),
            c.converters.to_string(),
            c.awg_ports.to_string(),
        ]);
    };
    for model in MulticastModel::ALL {
        let cb = cost::crossbar_cost(n, k, model);
        row(&mut t, format!("{model}/CB"), cb.into());
        if square {
            let p = ThreeStageParams::square(net.ports, net.wavelengths);
            let ms = cost::three_stage_cost(p, Construction::MswDominant, model);
            row(
                &mut t,
                format!("{model}/MS (n=r={side}, m={})", p.m),
                ms.into(),
            );
        }
    }
    // The wavelength-routed Clos has a model-independent middle stage
    // (passive gratings route every model the same way), so it is one
    // row, not one per model.
    let awg_note = if square {
        let awg = Scenario::new(BackendKind::AwgClos).geometry(side, side, net.wavelengths);
        match awg.bound() {
            Ok((m, _)) => {
                let p = ThreeStageParams::new(side, m, side, net.wavelengths);
                let c = cost::awg_clos_cost(p, ConverterPlacement::IngressEgress);
                row(&mut t, format!("AWG/Clos (n=r={side}, m={m})"), c);
                None
            }
            Err(e) => Some(e),
        }
    } else {
        None
    };
    println!("Network cost for {net}:\n{t}");
    if let Some(e) = awg_note {
        println!("(no AWG/Clos row: {e})");
    }
    Ok(())
}

fn cmd_build(opts: &Opts) -> Result<(), String> {
    let net = frame(opts)?;
    let model = opts.model()?;
    let xbar = WdmCrossbar::build(net, model);
    let c = xbar.census();
    let p = xbar.power_budget(&PowerParams::default());
    println!("{model} crossbar for {net}:");
    println!("  components: {c}");
    println!(
        "  netlist: {} nodes, {} fiber segments",
        xbar.netlist().node_count(),
        xbar.netlist().edge_count()
    );
    println!(
        "  worst-case path loss: {:.1} dB over {} hops",
        p.worst_path_loss_db, p.worst_path_hops
    );
    Ok(())
}

fn cmd_bounds(opts: &Opts) -> Result<(), String> {
    let n = opts.u32("n", None)?;
    let r = opts.u32("r", None)?;
    let k = opts.u32("k", Some(1))?;
    let t1 = bounds::theorem1_min_m(n, r);
    let t2 = bounds::theorem2_min_m(n, r, k);
    let mut t = TextTable::new(["bound", "m", "optimal x", "rhs"]);
    t.row([
        "Theorem 1 (MSW-dominant)".to_string(),
        t1.m.to_string(),
        t1.x.to_string(),
        format!("{:.2}", t1.rhs),
    ]);
    t.row([
        "Theorem 2 (MAW-dominant)".to_string(),
        t2.m.to_string(),
        t2.x.to_string(),
        format!("{:.2}", t2.rhs),
    ]);
    t.row([
        "§3.4 closed form".to_string(),
        format!("{:.1}", bounds::section34_m(n, r)),
        format!("{:.2}", bounds::section34_x(r)),
        "-".to_string(),
    ]);
    println!("Nonblocking middle-stage bounds for n={n}, r={r}, k={k}:\n{t}");
    Ok(())
}

fn cmd_route(opts: &Opts) -> Result<(), String> {
    let net = frame(opts)?;
    let model = opts.model()?;
    let steps = opts.u64("steps", 200)? as usize;
    let seed = opts.u64("seed", 42)?;
    let mut xbar = WdmCrossbar::build(net, model);
    let mut gen = AssignmentGen::new(net, model, seed);
    let mut routed = 0usize;
    for _ in 0..steps {
        let asg = gen.any_assignment();
        xbar.route_verified(&asg)
            .map_err(|e| format!("crossbar blocked?! {e}"))?;
        routed += 1;
    }
    println!(
        "{routed}/{steps} random {model} assignments routed through the {net} crossbar with exact delivery (nonblocking held)."
    );
    Ok(())
}

fn cmd_multistage(opts: &Opts) -> Result<(), String> {
    let n = opts.u32("n", None)?;
    let r = opts.u32("r", None)?;
    let k = opts.u32("k", Some(1))?;
    let construction = opts.construction()?;
    let model = opts.model()?;
    let bound = theorem_bound(construction, n, r, k);
    let p = three_stage(opts, n, r, k, bound.m)?;
    let m = p.m;
    let steps = opts.u64("steps", 200)? as usize;
    let seed = opts.u64("seed", 42)?;
    let mut net = ThreeStageNetwork::new(p, construction, model);
    let mut gen = AssignmentGen::new(p.network(), model, seed);
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let (mut routed, mut blocked) = (0usize, 0usize);
    let mut live = Vec::new();
    for _ in 0..steps {
        if !live.is_empty() && rng.gen_bool(0.35) {
            let i = rng.gen_range(0..live.len());
            net.disconnect(live.swap_remove(i))
                .map_err(|e| e.to_string())?;
        } else if let Some(req) = gen.next_request(net.assignment(), 0) {
            let src = req.source();
            match net.connect(&req) {
                Ok(_) => {
                    routed += 1;
                    live.push(src);
                }
                Err(RouteError::Blocked { .. }) => blocked += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    println!(
        "{p} [{construction}, {model}] (Theorem bound m={}): {routed} routed, {blocked} blocked over {steps} churn steps.",
        bound.m
    );
    if m >= bound.m && blocked > 0 {
        return Err("blocking observed at or above the theorem bound!".into());
    }
    Ok(())
}

fn cmd_photonic(opts: &Opts) -> Result<(), String> {
    use wdm_multistage::PhotonicThreeStage;
    let n = opts.u32("n", None)?;
    let r = opts.u32("r", None)?;
    let k = opts.u32("k", Some(1))?;
    let construction = opts.construction()?;
    let model = opts.model()?;
    let bound = theorem_bound(construction, n, r, k);
    let p = three_stage(opts, n, r, k, bound.m)?;
    let mut photonic = PhotonicThreeStage::build(p, construction, model);
    let census = photonic.census();
    println!("{p} [{construction}, {model}] as a photonic netlist:");
    println!("  {census}");
    println!(
        "  predicted crosspoints: {}",
        cost::three_stage_cost(p, construction, model).crosspoints
    );
    let budget = photonic.power_budget(&PowerParams::default());
    println!(
        "  worst path: {:.1} dB over {} hops",
        budget.worst_path_loss_db, budget.worst_path_hops
    );

    // Route a random batch and trace the light.
    let mut logical = ThreeStageNetwork::new(p, construction, model);
    let mut gen = AssignmentGen::new(p.network(), model, opts.u64("seed", 42)?);
    let mut routed = 0;
    for _ in 0..opts.u64("steps", 10)? {
        let Some(req) = gen.next_request(logical.assignment(), 0) else {
            break;
        };
        if logical.connect(&req).is_ok() {
            routed += 1;
        }
    }
    let outcome = photonic
        .realize(&logical)
        .map_err(|e| format!("photonic divergence: {e}"))?;
    println!(
        "  routed {routed} random connections; light delivered exactly: {}",
        outcome.delivered_exactly(logical.assignment())
    );
    Ok(())
}

fn cmd_fivestage(opts: &Opts) -> Result<(), String> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use wdm_multistage::FiveStageNetwork;
    let net = frame(opts)?;
    let model = opts.model()?;
    let construction = opts.construction()?;
    let inner = (net.ports as f64).sqrt().sqrt().round() as u32;
    if inner.pow(4) != net.ports || inner < 2 {
        return Err(format!(
            "fivestage needs N = s⁴ for some s ≥ 2 (16, 81, 256, …); got N={}",
            net.ports
        ));
    }
    let mut five = FiveStageNetwork::square(net.ports, net.wavelengths, construction, model);
    println!(
        "5-stage {}: outer {}, inner {} per middle, {} crosspoints",
        net,
        five.outer_params(),
        five.inner_params(),
        five.crosspoints(model)
    );
    let steps = opts.u64("steps", 200)? as usize;
    let mut gen = AssignmentGen::new(net, model, opts.u64("seed", 42)?);
    let mut rng = StdRng::seed_from_u64(opts.u64("seed", 42)? ^ 5);
    let mut live = Vec::new();
    let (mut routed, mut blocked) = (0usize, 0usize);
    for _ in 0..steps {
        if !live.is_empty() && rng.gen_bool(0.35) {
            let i = rng.gen_range(0..live.len());
            five.disconnect(live.swap_remove(i))
                .map_err(|e| e.to_string())?;
        } else if let Some(req) = gen.next_request(five.assignment(), 0) {
            let src = req.source();
            match five.connect(&req) {
                Ok(()) => {
                    routed += 1;
                    live.push(src);
                }
                Err(RouteError::Blocked { .. }) => blocked += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    println!("churn: {routed} routed, {blocked} blocked over {steps} steps");
    if blocked > 0 {
        return Err("five-stage network blocked at its bounds!".into());
    }
    Ok(())
}

fn cmd_witness(opts: &Opts) -> Result<(), String> {
    use wdm_multistage::find_blocking_witness;
    let n = opts.u32("n", None)?;
    let r = opts.u32("r", None)?;
    let k = opts.u32("k", Some(1))?;
    let m = opts.u32("m", None)?;
    let construction = opts.construction()?;
    let model = opts.model()?;
    let x = opts.u32("x", Some(1))?;
    if x == 0 {
        return Err("--x must be at least 1".into());
    }
    let bound = theorem_bound(construction, n, r, k);
    let p = three_stage(opts, n, r, k, m)?;
    println!(
        "searching blocking witness for {p} (bound would be m ≥ {})…",
        bound.m
    );
    match find_blocking_witness(p, construction, model, x, 200, opts.u64("seed", 42)?) {
        Some(w) => {
            println!(
                "FOUND after {} established connections:",
                w.established.len()
            );
            for c in &w.established {
                println!("  {c}");
            }
            println!("  blocked: {}", w.blocked_request);
            println!("  replays: {}", w.replay(model));
            Ok(())
        }
        None => {
            println!("no witness found in 200 adversarial episodes (consistent with m ≥ bound).");
            Ok(())
        }
    }
}

fn cmd_scenario(opts: &Opts) -> Result<(), String> {
    use wdm_workload::app_mix::AppMix;
    let net = frame(opts)?;
    let model = opts.model()?;
    let scenario = match opts.0.get("name").map(String::as_str) {
        Some("video-conference") | None => AppMix::VideoConference { group_size: 4 },
        Some("video-on-demand") => AppMix::VideoOnDemand { servers: 2 },
        Some("e-commerce") => AppMix::ECommerce { multicast_pct: 20 },
        Some(other) => return Err(format!("unknown scenario {other:?}")),
    };
    let asg = scenario.generate(net, model, opts.u64("seed", 42)?);
    let mut xbar = WdmCrossbar::build(net, model);
    let outcome = xbar
        .route_verified(&asg)
        .map_err(|e| format!("blocked: {e}"))?;
    println!(
        "{} on {net} under {model}: {} connections, {} endpoints lit, delivered exactly: {}",
        scenario.label(),
        asg.len(),
        asg.used_output_endpoints(),
        outcome.delivered_exactly(&asg)
    );
    Ok(())
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    use wdm_workload::{RequestTrace, TraceEvent};
    if let Some(path) = opts.0.get("record") {
        let net = frame(opts)?;
        let model = opts.model()?;
        let steps = opts.u64("steps", 500)? as usize;
        let trace = RequestTrace::churn(net, model, steps, 35, opts.u64("seed", 42)?);
        std::fs::write(path, trace.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "recorded {} events ({} connects, peak {} concurrent) to {path}",
            trace.len(),
            trace.connect_count(),
            trace.peak_load()
        );
        return Ok(());
    }
    if let Some(path) = opts.0.get("replay") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let trace = RequestTrace::from_json(&json).map_err(|e| format!("parse {path}: {e}"))?;
        let n = opts.u32("n", None)?;
        let r = opts.u32("r", None)?;
        if n.checked_mul(r) != Some(trace.net.ports) {
            return Err(format!(
                "trace is for N={} but n·r = {}",
                trace.net.ports,
                n as u64 * r as u64
            ));
        }
        let construction = opts.construction()?;
        let bound = theorem_bound(construction, n, r, trace.net.wavelengths);
        let p = three_stage(opts, n, r, trace.net.wavelengths, bound.m)?;
        let mut net = ThreeStageNetwork::new(p, construction, trace.model);
        let (mut routed, mut blocked) = (0usize, 0usize);
        trace
            .replay(|event| -> Result<(), String> {
                match event {
                    TraceEvent::Connect(conn) => match net.connect(conn) {
                        Ok(_) => routed += 1,
                        Err(RouteError::Blocked { .. }) => blocked += 1,
                        Err(e) => return Err(e.to_string()),
                    },
                    TraceEvent::Disconnect(src) => {
                        let _ = net.disconnect(*src);
                    }
                }
                Ok(())
            })
            .map_err(|(i, e)| format!("event {i}: {e}"))?;
        println!(
            "replayed {} events on {p} [{construction}]: {routed} routed, {blocked} blocked (bound m={})",
            trace.len(),
            bound.m
        );
        return Ok(());
    }
    Err("trace needs --record <file> or --replay <file>".into())
}

fn cmd_dot(opts: &Opts) -> Result<(), String> {
    let net = frame(opts)?;
    let model = opts.model()?;
    let xbar = WdmCrossbar::build(net, model);
    let dot = xbar.netlist().to_dot(&format!("{model} crossbar {net}"));
    match opts.0.get("out") {
        Some(path) => {
            std::fs::write(path, &dot).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote {} nodes / {} edges to {path} (render: dot -Tsvg {path})",
                xbar.netlist().node_count(),
                xbar.netlist().edge_count()
            );
        }
        None => print!("{dot}"),
    }
    Ok(())
}

/// Run the concurrent admission engine over one dynamic trace on both
/// backends — the strictly-nonblocking crossbar and the three-stage
/// network at (or away from) the theorem bound — and report the paper's
/// operational metrics side by side.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    opts.reject_removed_flag()?;
    if opts.0.contains_key("listen") {
        return cmd_serve_net(opts);
    }
    use std::time::Duration;
    use wdm_fabric::CrossbarSession;
    use wdm_runtime::{
        Backend, EngineBuilder, Fault, FaultInjector, InjectionRecord, MetricsSnapshot,
        RuntimeConfig, RuntimeReport,
    };
    use wdm_workload::{ChaosSchedule, DynamicTraffic, FaultAction, TimedFault};

    let sc = opts.scenario()?;
    if sc.backend == BackendKind::Crossbar {
        return Err(
            "serve (without --listen) always runs the crossbar as the baseline; \
             pass --backend three-stage, three-stage-cas, awg-clos or graph to pick its rival"
                .into(),
        );
    }
    let (bound_m, bound_name) = sc.bound()?;
    let m = sc.middle_count()?;
    let model = sc.model;
    // The flat frame both legs' ports live in: r modules (graph nodes)
    // × n external ports each, k wavelengths.
    let flat = NetworkConfig::new(sc.n * sc.r, sc.k);
    // The graph rival has no middle stage: the fault domain
    // `--kill-middle`/chaos draws from is the node set itself.
    let is_graph = matches!(sc.backend, BackendKind::Graph { .. });
    let (m_like, kill_unit) = if is_graph {
        (sc.r, "graph nodes")
    } else {
        (m, "middle switches")
    };

    let rate = opts.f64("rate", 4.0)?;
    let horizon = opts.f64("horizon", 30.0)?;
    let seed = opts.u64("seed", 42)?;
    let workers = opts.u32("workers", Some(4))? as usize;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let config = RuntimeConfig {
        workers,
        deadline: Duration::from_millis(opts.u64("deadline-ms", 500)?.max(1)),
        snapshot_every: match opts.0.get("snapshot-ms") {
            Some(_) => Some(Duration::from_millis(opts.u64("snapshot-ms", 50)?.max(1))),
            None => None,
        },
        ..RuntimeConfig::default()
    };

    // Fault traffic: deterministic mid-run middle-switch kills, plus an
    // optional randomized chaos schedule with repairs.
    let kill_middles: std::collections::BTreeSet<u32> = match opts.0.get("kill-middle") {
        Some(list) => list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--kill-middle: {s:?} is not a middle-switch index"))
            })
            .collect::<Result<_, _>>()?,
        None => Default::default(),
    };
    if let Some(&j) = kill_middles.iter().find(|&&j| j >= m_like) {
        return Err(format!(
            "--kill-middle {j} is out of range for {m_like} {kill_unit}"
        ));
    }
    if kill_middles.len() as u32 >= m_like {
        return Err(format!(
            "--kill-middle would fail every one of the {kill_unit}"
        ));
    }
    let fault_rate = match opts.0.get("fault-rate") {
        Some(_) => Some(opts.f64("fault-rate", 1.0)?),
        None => None,
    };
    let mttr = opts.f64("mttr", 2.0)?;
    let mut fault_schedule: Vec<TimedFault> = kill_middles
        .iter()
        .map(|&j| TimedFault {
            time: horizon * 0.5,
            action: FaultAction::Fail(Fault::MiddleSwitch(j)),
        })
        .collect();
    if let Some(rate) = fault_rate {
        fault_schedule.extend(
            ChaosSchedule::new(m_like, sc.r, rate, mttr).generate(horizon, seed.rotate_left(17)),
        );
    }

    let mut events = DynamicTraffic::new(flat, model, rate, 1.0, 3, seed).generate(horizon);
    wdm_workload::close_trace(&mut events, horizon + 1.0);
    let offered_load = events.len();
    println!(
        "offered load: {offered_load} events (arrival rate {rate}/t over {horizon}t, seed {seed}) on {flat}, model {model}"
    );
    println!(
        "engine: {workers} worker shards, deadline {:?}\n",
        config.deadline
    );

    fn run<B: Backend>(
        backend: B,
        events: &[wdm_workload::TimedEvent],
        config: &RuntimeConfig,
    ) -> RuntimeReport<B> {
        let engine = EngineBuilder::from_config(config.clone()).start(backend);
        engine.run_events(events.iter().cloned());
        engine.drain()
    }

    let xbar = run(CrossbarSession::new(flat, model), &events, &config);

    // The three-stage leg interleaves fault injection with submission.
    // Every submit admits before it returns, so a kill lands on exactly
    // the traffic submitted before its time.
    let mut injector = FaultInjector::scripted(fault_schedule);
    let chaos = injector.pending() > 0;
    let rival = sc.build()?;
    let wire_label = rival.label();
    let engine = EngineBuilder::from_config(config.clone()).start(rival);
    let handle = engine.fault_handle();
    let mut fired: Vec<InjectionRecord> = Vec::new();
    for ev in &events {
        fired.extend(injector.fire_due(ev.time, &handle));
        let _ = engine.submit(ev.clone());
    }
    fired.extend(injector.fire_due(f64::INFINITY, &handle));
    let three = engine.drain();

    let mut t = TextTable::new([
        "backend",
        "offered",
        "admitted",
        "blocked",
        "P(block)",
        "retried",
        "expired",
        "p50 retry wait",
        "p99 retry wait",
        "conns/s",
    ]);
    let mut row = |label: &str, s: &MetricsSnapshot| {
        t.row([
            label.to_string(),
            s.offered.to_string(),
            s.admitted.to_string(),
            s.blocked.to_string(),
            format!("{:.4}", s.blocking_probability),
            s.retried.to_string(),
            s.expired.to_string(),
            format!("{:.1}µs", s.p50_admit_ns as f64 / 1e3),
            format!("{:.1}µs", s.p99_admit_ns as f64 / 1e3),
            format!("{:.0}", s.throughput()),
        ]);
    };
    let rival_label = match sc.backend {
        BackendKind::Graph { topology } => format!("graph {topology}"),
        _ => format!("{wire_label} m={m}"),
    };
    row("crossbar", &xbar.summary);
    row(&rival_label, &three.summary);
    println!("{t}");

    let loads: Vec<f64> = three
        .summary
        .middle_loads
        .iter()
        .map(|&l| l as f64)
        .collect();
    if is_graph {
        println!(
            "graph per-node route load at drain: {} ({bound_name})",
            wdm_analysis::sparkline(&loads),
        );
    } else {
        println!(
            "{} middle-stage occupancy at drain: {} ({bound_name} m ≥ {bound_m})",
            sc.backend.label(),
            wdm_analysis::sparkline(&loads),
        );
    }
    if chaos {
        println!();
        for rec in &fired {
            match rec.action {
                FaultAction::Fail(f) => {
                    let o = rec.outcome.unwrap_or_default();
                    println!(
                        "t={:6.2}  fail    {f}: {} connections hit, {} healed, {} lost",
                        rec.time, o.connections_hit, o.healed, o.heal_failed
                    );
                }
                FaultAction::Repair(f) => println!(
                    "t={:6.2}  repair  {f}{}",
                    rec.time,
                    if rec.repaired { "" } else { " (was not down)" }
                ),
            }
        }
        let s = &three.summary;
        println!(
            "faults: {} injected, {} repaired; {} connections hit, {} healed, {} lost \
             (p99 heal {:.1}µs); {} component-down refusals, {} orphaned departures",
            s.faults_injected,
            s.faults_repaired,
            s.connections_hit,
            s.healed,
            s.heal_failed,
            s.p99_heal_ns as f64 / 1e3,
            s.component_down,
            s.orphaned_departures
        );
    }
    for report in [&xbar.errors, &three.errors] {
        for e in report.iter().take(4) {
            eprintln!("note: {e}");
        }
    }

    if let Some(path) = opts.0.get("json") {
        let mut lines: Vec<String> = Vec::new();
        for (label, rep) in [
            ("crossbar", &xbar.snapshots),
            (wire_label, &three.snapshots),
        ] {
            for s in rep {
                lines.push(format!(
                    "{{\"backend\":\"{label}\",\"snapshot\":{}}}",
                    s.to_json()
                ));
            }
        }
        lines.push(format!(
            "{{\"backend\":\"crossbar\",\"summary\":{}}}",
            xbar.summary.to_json()
        ));
        lines.push(format!(
            "{{\"backend\":\"{wire_label}\",\"summary\":{}}}",
            three.summary.to_json()
        ));
        std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {} JSON records to {path}", lines.len());
    }

    if !xbar.consistency.is_empty() || !three.consistency.is_empty() {
        return Err(format!(
            "backend consistency check failed: {:?}",
            [&xbar.consistency[..], &three.consistency[..]].concat()
        ));
    }
    if xbar.summary.blocked > 0 {
        return Err("the crossbar backend blocked — it must never".into());
    }
    // Permanent kills shrink the effective middle stage; the sparing
    // corollary only promises zero blocking while the live count stays at
    // or above the bound, and randomized chaos (transient, repairing
    // faults) voids the guarantee during each outage window. Graph
    // topologies have no nonblocking theorem at all, so blocks there are
    // never an error.
    let live_m = m_like - kill_middles.len() as u32;
    let enforce = !is_graph && fault_rate.is_none() && live_m >= bound_m;
    if enforce && three.summary.blocked > 0 {
        return Err(format!(
            "{} hard blocks with {live_m} live middles ≥ bound {bound_m} — nonblocking \
             guarantee violated",
            three.summary.blocked
        ));
    }
    if is_graph {
        println!(
            "(graph backend: no nonblocking bound applies; {} blocks observed is honest \
             behaviour)",
            three.summary.blocked
        );
    } else if !enforce {
        println!(
            "(degraded regime: {live_m} live middles vs bound {bound_m}{}; {} blocks observed is honest behaviour)",
            if fault_rate.is_some() {
                ", randomized chaos on"
            } else {
                ""
            },
            three.summary.blocked
        );
    }
    Ok(())
}

/// `serve --listen ADDR`: front the admission engine with the wdm-net
/// epoll reactor. Runs until a client sends a `Drain` frame, then
/// prints the drained report; the exit code asserts a clean drain (and
/// zero blocks when `m` is at the bound), so CI can `wait` on it.
#[cfg(target_os = "linux")]
fn cmd_serve_net(opts: &Opts) -> Result<(), String> {
    use std::time::Duration;
    use wdm_net::{ReactorConfig, ReactorServer};
    use wdm_runtime::{Backend, EngineBuilder, RuntimeConfig};

    // Each architecture has its own nonblocking bound — the theorem
    // bound for switched middles, the private-pool bound for gratings,
    // none for arbitrary graph topologies — and `Scenario` picks it.
    let sc = opts.scenario()?;
    let (bound_m, _) = sc.bound()?;
    let m = sc.middle_count()?;
    let workers = opts.u32("workers", Some(4))? as usize;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let config = RuntimeConfig {
        workers,
        deadline: Duration::from_millis(opts.u64("deadline-ms", 500)?.max(1)),
        ..RuntimeConfig::default()
    };
    let listen = opts
        .0
        .get("listen")
        .ok_or("serve over TCP needs --listen <addr>")?
        .clone();
    // The backend is picked at runtime behind `dyn Backend`: the engine,
    // server, and wire path are identical for every fabric.
    let backend = sc.build()?;
    let wire_label = backend.label();
    let engine = EngineBuilder::from_config(config).start(backend);
    let Scenario { n, r, k, model, .. } = sc;
    let desc = match sc.backend {
        BackendKind::Graph { topology } => format!("{topology} n={n} k={k} [{model}]"),
        _ => format!(
            "{} [{}, {model}]",
            ThreeStageParams::new(n, m, r, k),
            sc.construction
        ),
    };
    let bound_str = match sc.backend {
        BackendKind::Graph { .. } => "no nonblocking bound".to_string(),
        _ => format!("nonblocking bound m ≥ {bound_m}"),
    };
    // Best-effort headroom for C10k-scale accept storms; the kernel
    // caps unprivileged raises at the hard limit.
    wdm_net::reactor::raise_nofile_limit(65_536);
    let server = ReactorServer::serve(engine, listen.as_str(), ReactorConfig::default())
        .map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = server.local_addr();
    println!(
        "serving {wire_label} {desc} on {addr} ({workers} worker shards, {bound_str}); \
         a client's Drain frame stops the server",
    );
    if let Some(path) = opts.0.get("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let metrics = server.metrics();
    let report = server.wait();
    let stats = metrics.snapshot();
    println!(
        "reactor: {} accepted, {} frames over {} wakeups, {} coalesced batches \
         (mean {:.1} events), {} shed, {} protocol errors",
        stats.accepted,
        stats.frames,
        stats.wakeups,
        stats.coalesced_batches,
        stats.coalesced_batch_mean,
        stats.shed,
        stats.protocol_errors,
    );
    // `--stats-file` publishes the reactor counters as one JSON line,
    // so a parent process that runs the server as a child can read
    // them back.
    if let Some(path) = opts.0.get("stats-file") {
        let json = format!(
            "{{\"accepted\":{},\"frames\":{},\"wakeups\":{},\
             \"coalesced_batches\":{},\"coalesced_events\":{},\
             \"coalesced_batch_mean\":{:.4},\"shed\":{},\"protocol_errors\":{}}}\n",
            stats.accepted,
            stats.frames,
            stats.wakeups,
            stats.coalesced_batches,
            stats.coalesced_events,
            stats.coalesced_batch_mean,
            stats.shed,
            stats.protocol_errors,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    let s = &report.summary;
    println!(
        "drained: offered {} admitted {} blocked {} expired {} departed {} (P(block) {:.4})",
        s.offered, s.admitted, s.blocked, s.expired, s.departed, s.blocking_probability
    );
    if !report.is_clean() {
        return Err(format!(
            "drain was not clean: {} worker panics, consistency {:?}, errors {:?}",
            report.worker_panics, report.consistency, report.errors
        ));
    }
    // Graph topologies have no nonblocking theorem; blocks there are
    // honest behaviour, never an error.
    let is_graph = matches!(sc.backend, BackendKind::Graph { .. });
    if !is_graph && m >= bound_m && s.blocked > 0 {
        return Err(format!(
            "{} hard blocks with m={m} at or above the bound {bound_m} — nonblocking theorem violated",
            s.blocked
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn cmd_serve_net(_opts: &Opts) -> Result<(), String> {
    Err("serve --listen needs Linux (epoll)".into())
}

/// `bench-net`: closed-loop load generator against a wdm-net server.
/// Streams a closed, source-partitioned trace through `--clients`
/// threads with a `--pipeline`-deep window each, and reports
/// admissions/sec plus request-latency percentiles.
fn cmd_bench_net(opts: &Opts) -> Result<(), String> {
    use std::collections::VecDeque;
    use std::time::Instant;
    use wdm_core::MulticastConnection;
    use wdm_net::{NetClient, Request, Response};
    use wdm_workload::{close_trace, partition_by_source, DynamicTraffic, TraceEvent};

    opts.reject_removed_flag()?;
    let Some(addr) = opts.0.get("connect").cloned() else {
        return Err(
            "bench-net needs --connect ADDR (a running `wdmcast serve --listen`); \
             to measure the served system run the benchmark/ package \
             (cargo run --release --manifest-path benchmark/Cargo.toml)"
                .into(),
        );
    };
    let n = opts.u32("n", None)?;
    let r = opts.u32("r", None)?;
    let k = opts.u32("k", Some(1))?;
    if n == 0 || r == 0 || k == 0 {
        return Err("--n, --r and -k must all be at least 1".into());
    }
    let model = opts.model()?;
    let clients = opts.u32("clients", Some(4))?.max(1) as usize;
    let window = opts.u32("pipeline", Some(32))?.max(1) as usize;
    let batch = opts.u32("batch", Some(1))?.max(1) as usize;
    let rate = opts.f64("rate", 6.0)?;
    let horizon = opts.f64("horizon", 20.0)?;
    let seed = opts.u64("seed", 42)?;
    let drain = match opts.0.get("drain").map(String::as_str) {
        None | Some("true") | Some("1") => true,
        Some("false") | Some("0") => false,
        Some(other) => return Err(format!("--drain must be true or false, got {other:?}")),
    };

    let flat = NetworkConfig::new(n * r, k);
    let mut events = DynamicTraffic::new(flat, model, rate, 1.0, 2, seed).generate(horizon);
    close_trace(&mut events, horizon + 1.0);
    let total_events = events.len();
    let lanes = partition_by_source(events, clients);
    println!(
        "bench-net: {total_events} events on {flat} ({model}), {clients} clients × \
         pipeline {window}{}, against {addr}",
        if batch > 1 {
            format!(" × batch {batch}")
        } else {
            String::new()
        }
    );

    /// One client's view of the run.
    #[derive(Default)]
    struct LaneResult {
        connect_acks: u64,
        rejects: u64,
        latencies_ms: Vec<f64>,
    }

    let started = Instant::now();
    let handles: Vec<_> = lanes
        .into_iter()
        .map(|lane| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<LaneResult, String> {
                let mut client =
                    NetClient::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
                let mut out = LaneResult::default();
                if batch > 1 {
                    // Batched mode: runs of consecutive connects travel as
                    // one v2 BatchConnect frame each; a disconnect flushes
                    // the run first so per-source ordering is preserved.
                    let flush = |out: &mut LaneResult,
                                 client: &mut NetClient,
                                 buf: &mut Vec<MulticastConnection>|
                     -> Result<(), String> {
                        if buf.is_empty() {
                            return Ok(());
                        }
                        let t0 = Instant::now();
                        let verdicts = client
                            .connect_batch(std::mem::take(buf))
                            .map_err(|e| format!("batch: {e}"))?;
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        for v in verdicts {
                            out.latencies_ms.push(ms);
                            match v {
                                Response::Ok => out.connect_acks += 1,
                                Response::Rejected { .. } => out.rejects += 1,
                                other => return Err(format!("unexpected batch item {other:?}")),
                            }
                        }
                        Ok(())
                    };
                    let mut buf: Vec<MulticastConnection> = Vec::with_capacity(batch);
                    for ev in &lane {
                        match &ev.event {
                            TraceEvent::Connect(c) => {
                                buf.push(c.clone());
                                if buf.len() >= batch {
                                    flush(&mut out, &mut client, &mut buf)?;
                                }
                            }
                            TraceEvent::Disconnect(src) => {
                                flush(&mut out, &mut client, &mut buf)?;
                                let t0 = Instant::now();
                                let resp = client
                                    .call(&Request::Disconnect(*src))
                                    .map_err(|e| format!("disconnect: {e}"))?;
                                out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                match resp {
                                    Response::Ok => {}
                                    Response::Rejected { .. } => out.rejects += 1,
                                    other => return Err(format!("unexpected response {other:?}")),
                                }
                            }
                        }
                    }
                    flush(&mut out, &mut client, &mut buf)?;
                    return Ok(out);
                }
                let mut outstanding: VecDeque<(u64, Instant, bool)> = VecDeque::new();
                let settle = |out: &mut LaneResult,
                              client: &mut NetClient,
                              (id, t0, is_connect): (u64, Instant, bool)|
                 -> Result<(), String> {
                    let resp = client.recv(id).map_err(|e| format!("recv: {e}"))?;
                    out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match resp {
                        Response::Ok if is_connect => out.connect_acks += 1,
                        Response::Ok => {}
                        Response::Rejected { .. } => out.rejects += 1,
                        other => return Err(format!("unexpected response {other:?}")),
                    }
                    Ok(())
                };
                for ev in &lane {
                    let req = Request::from(&ev.event);
                    let is_connect = matches!(ev.event, TraceEvent::Connect(_));
                    let id = client.send(&req).map_err(|e| format!("send: {e}"))?;
                    outstanding.push_back((id, Instant::now(), is_connect));
                    while outstanding.len() >= window {
                        let Some(oldest) = outstanding.pop_front() else {
                            break;
                        };
                        settle(&mut out, &mut client, oldest)?;
                    }
                }
                for pending in outstanding {
                    settle(&mut out, &mut client, pending)?;
                }
                Ok(out)
            })
        })
        .collect();
    let mut acks = 0u64;
    let mut rejects = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let lane = h.join().map_err(|_| "client thread panicked")??;
        acks += lane.connect_acks;
        rejects += lane.rejects;
        latencies.extend(lane.latencies_ms);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let pct = |q: f64| wdm_analysis::percentile(&latencies, q).unwrap_or(0.0);
    let mut t = TextTable::new([
        "clients",
        "requests",
        "connect acks",
        "rejects",
        "admissions/s",
        "p50 lat",
        "p95 lat",
        "p99 lat",
    ]);
    t.row([
        clients.to_string(),
        latencies.len().to_string(),
        acks.to_string(),
        rejects.to_string(),
        format!("{:.0}", acks as f64 / elapsed.max(1e-9)),
        format!("{:.2}ms", pct(0.50)),
        format!("{:.2}ms", pct(0.95)),
        format!("{:.2}ms", pct(0.99)),
    ]);
    println!("{t}");

    if drain {
        let mut control = NetClient::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        match control.drain().map_err(|e| format!("drain: {e}"))? {
            Response::DrainReport { clean, summary } => {
                println!(
                    "server drained: clean={clean}, admitted {} blocked {} (client acks {acks})",
                    summary.admitted, summary.blocked
                );
                if !clean {
                    return Err("server drain was not clean".into());
                }
                if summary.admitted != acks {
                    return Err(format!(
                        "server admitted {} but clients counted {acks} acks",
                        summary.admitted
                    ));
                }
            }
            other => return Err(format!("expected DrainReport, got {other:?}")),
        }
    }
    Ok(())
}

/// `sim`: deterministic simulation of the sharded admission engine.
/// One seed fixes the adversarial trace, the fault script, and every
/// scheduling decision; each run is judged against the serial oracle
/// (fault-free) or the conservation invariants (`--faulted`). Any
/// failure is delta-debugged to a minimal trace and reported with its
/// seed — and the process exits nonzero so CI sweeps fail loudly.
fn cmd_sim(opts: &Opts) -> Result<(), String> {
    // All cross-cutting policy — which knobs are contradictory, when
    // selection spreads, when the nonblocking oracle applies — lives in
    // Scenario, shared with the benches and the conformance tests.
    let sc = opts.scenario()?;
    let sc = sc
        .schedule(
            opts.u64("steps", 40)? as usize,
            opts.u32("shards", Some(4))? as usize,
        )
        .faulted(opts.boolean("faulted")?)
        .repack(opts.boolean("repack")?)
        .concurrent(sc.concurrent || opts.boolean("concurrent")?)
        .workload(opts.workload()?);
    let (bound, bound_name) = sc.bound()?;
    let m = sc.middle_count()?;
    let Scenario {
        backend: kind,
        n,
        r,
        k,
        steps,
        shards,
        faulted,
        repack,
        ..
    } = sc;
    let hotspot = match sc.workload {
        WorkloadSpec::Adversarial => String::new(),
        WorkloadSpec::Hotspot { hot, skew_pct } => format!(" hotspot={skew_pct}%→{hot}"),
    };
    match kind {
        BackendKind::Graph { topology } => println!(
            "sim: graph {topology} n={n} k={k} mc-every={} splitting={} \
             steps={steps} shards={shards}{}{hotspot} ({bound_name})",
            sc.graph.mc_every,
            sc.graph.splitting.label(),
            if faulted { " faulted" } else { "" },
        ),
        _ => println!(
            "sim: {} n={n} r={r} k={k}{} steps={steps} shards={shards}{}{}{}{hotspot} \
             ({bound_name} m ≥ {bound})",
            kind.label(),
            if kind == BackendKind::Crossbar {
                String::new()
            } else {
                format!(" m={m}")
            },
            if faulted { " faulted" } else { "" },
            if repack { " repack" } else { "" },
            if sc.concurrent { " concurrent" } else { "" },
        ),
    }

    let base = opts.u64("seed", if opts.0.contains_key("seeds") { 0 } else { 42 })?;
    if let Some(count) = opts.0.get("seeds") {
        let count: u64 = count
            .parse()
            .map_err(|_| format!("--seeds must be a count, got {count:?}"))?;
        let report = sc.sweep(base..base + count)?;
        println!(
            "swept {} seeds [{base}..{}): {} distinct schedules, {} failing",
            report.checked,
            base + count,
            report.distinct_schedules,
            report.failures.len()
        );
        for f in &report.failures {
            println!("\n{f}");
        }
        if let Some(first) = report.failures.first() {
            return Err(format!(
                "{} of {} seeds diverged; first offending seed: {}",
                report.failures.len(),
                report.checked,
                first.seed
            ));
        }
        return Ok(());
    }

    let verdict = sc.check_seed(base)?;
    if verdict.violations.is_empty() {
        println!(
            "seed {base}: OK ({} events, schedule fingerprint {:016x})",
            verdict.events, verdict.fingerprint
        );
        return Ok(());
    }
    // Shrink before reporting so the artifact is minimal and replayable.
    match sc.failing_seed(base)? {
        Some(failure) => println!("{failure}"),
        None => {
            for v in &verdict.violations {
                println!("  - {v}");
            }
        }
    }
    Err(format!("conformance divergence at seed {base}"))
}

fn cmd_fig10() -> Result<(), String> {
    let (msw, maw) = scenarios::fig10_contrast();
    println!(
        "Fig. 10 scenario on {} (middle-starved, m=1):",
        scenarios::fig10_params()
    );
    for out in [msw, maw] {
        println!(
            "  {:<14} final request {} ({} middle switches available)",
            out.construction.to_string() + ":",
            if out.blocked { "BLOCKED" } else { "routed" },
            out.available_middles
        );
    }
    println!("\nThe MSW-dominant construction pins the request to its source wavelength and\nblocks; MAW-dominant converts around the clash — the paper's motivation for\nanalyzing both (§3.3).");
    Ok(())
}
