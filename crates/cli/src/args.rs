//! Table-driven argument parsing (no external CLI dependency). Each
//! command declares every option once, as an `Opt` row that parses its
//! value straight into the command's spec; [`parse`] walks the rows and
//! [`usage`] prints them.

use std::str::FromStr;
use streamline_core::{Algorithm, CheckpointOptions, RankChaos, RunConfig};
use streamline_field::dataset::Seeding;
use streamline_iosim::ChaosParams;

/// Which dataset a command targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    Astro,
    Fusion,
    Thermal,
}

impl DatasetKind {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "astro" | "astrophysics" | "supernova" => Ok(DatasetKind::Astro),
            "fusion" | "tokamak" => Ok(DatasetKind::Fusion),
            "thermal" | "thermal-hydraulics" => Ok(DatasetKind::Thermal),
            other => Err(format!("unknown dataset '{other}' (astro|fusion|thermal)")),
        }
    }
}

/// Algorithm selection, including advisor-driven `auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    Fixed(Algorithm),
    Auto,
}

impl AlgoChoice {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(AlgoChoice::Fixed(Algorithm::StaticAllocation)),
            "lod" | "load-on-demand" => Ok(AlgoChoice::Fixed(Algorithm::LoadOnDemand)),
            "hybrid" => Ok(AlgoChoice::Fixed(Algorithm::HybridMasterSlave)),
            "steal" | "work-stealing" => Ok(AlgoChoice::Fixed(Algorithm::WorkStealing)),
            "auto" => Ok(AlgoChoice::Auto),
            other => Err(format!("unknown algorithm '{other}' (static|lod|hybrid|steal|auto)")),
        }
    }
}

fn parse_seeding(s: &str) -> Result<Seeding, String> {
    match s {
        "sparse" => Ok(Seeding::Sparse),
        "dense" => Ok(Seeding::Dense),
        other => Err(format!("unknown seeding '{other}' (sparse|dense)")),
    }
}

/// A parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    Run(Box<RunSpec>),
    /// Classify the problem a run with these dataset, seeding and seed
    /// flags would solve (§3.1) and ask the §6 advisor.
    Classify(Box<RunSpec>),
    Trace(TraceSpec),
    Ftle(FtleSpec),
    /// Validate an emitted trace JSON, Prometheus snapshot and/or checkpoint
    /// file — the CI smoke gate behind `run --trace` and `run --checkpoint`.
    ObsCheck(ObsCheckSpec),
    Info,
    Help,
}

/// Full parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    pub command: Command,
}

/// One cell of the §5 matrix plus its run modes, in the types `Run` takes.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub dataset: DatasetKind,
    pub seeding: Seeding,
    pub algorithm: AlgoChoice,
    /// `None`: the paper's seed count for the dataset and seeding.
    pub seeds: Option<usize>,
    /// Ranks, cache, steal, batch and rank-chaos knobs; `execute` sets the
    /// algorithm and step limits once the dataset is built.
    pub cfg: RunConfig,
    /// Inject store faults from the plan seeded by `chaos_seed`.
    pub chaos: bool,
    pub chaos_seed: u64,
    pub chaos_params: ChaosParams,
    /// Open-loop arrival epochs past the start set (0 = closed run), the
    /// virtual seconds between them and the seeds each delivers.
    pub ingest_epochs: usize,
    pub ingest_interval: f64,
    pub ingest_batch: usize,
    pub json: Option<String>,
    /// Write a virtual-time phase timeline as trace JSON to this path.
    pub trace: Option<String>,
    pub trace_bucket: f64,
    /// Write the run's metric registry as Prometheus text to this path.
    pub metrics: Option<String>,
    pub checkpoint: Option<CheckpointOptions>,
    /// Resume from this snapshot file, or the latest one in a directory.
    pub resume: Option<String>,
}

impl Default for RunSpec {
    fn default() -> Self {
        let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 64);
        cfg.cache_blocks = 64;
        RunSpec {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Auto,
            seeds: None,
            cfg,
            chaos: false,
            chaos_seed: 0x5EED,
            chaos_params: ChaosParams::default(),
            ingest_epochs: 0,
            ingest_interval: 2.0e-4,
            ingest_batch: 32,
            json: None,
            trace: None,
            trace_bucket: 0.05,
            metrics: None,
            checkpoint: None,
            resume: None,
        }
    }
}

impl RunSpec {
    fn rank_chaos(&mut self) -> &mut RankChaos {
        self.cfg.rank_chaos.get_or_insert_with(|| RankChaos::seeded(0x5EED))
    }

    fn checkpoint(&mut self) -> &mut CheckpointOptions {
        self.checkpoint.get_or_insert_with(|| CheckpointOptions::new("", 0.1))
    }

    /// Validate every knob group `Run` does not, with its typed error, and
    /// drop the snapshot options when `--checkpoint` was not given.
    fn finish(&mut self, given: &[&str]) -> Result<(), String> {
        let v = self.ingest_interval;
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("--ingest-interval must be positive and finite, got {v}"));
        }
        if self.ingest_epochs > 0 && self.ingest_batch == 0 {
            return Err("--ingest-batch must be >= 1".into());
        }
        // The trace bucket and snapshot interval are `Run`'s to validate.
        if !given.contains(&"checkpoint") {
            self.checkpoint = None;
        }
        self.cfg.steal.validate().map_err(|e| e.to_string())?;
        self.cfg.batch.validate().map_err(|e| e.to_string())?;
        self.chaos_params.validate().map_err(|e| e.to_string())?;
        self.cfg.rank_chaos.map_or(Ok(()), |rc| rc.validate()).map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone)]
pub struct TraceSpec {
    pub dataset: DatasetKind,
    pub seeds: usize,
    pub out: String,
    pub formats: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct FtleSpec {
    pub out: String,
    pub nx: usize,
    pub ny: usize,
    pub horizon: f64,
}

#[derive(Debug, Clone, Default)]
pub struct ObsCheckSpec {
    pub trace: Option<String>,
    pub metrics: Option<String>,
    /// Validate a checkpoint container (magic, section CRCs, metadata).
    pub ckpt: Option<String>,
}

/// What an option needs besides itself to mean anything; given without
/// it, the option is rejected instead of silently ignored.
enum Needs<S> {
    /// Another option of the same command.
    Flag(&'static str),
    /// A condition on the parsed spec, phrased as it reads after "only
    /// applies".
    When(&'static str, fn(&S) -> bool),
}

impl<S> Needs<S> {
    fn phrase(&self) -> String {
        match self {
            Needs::Flag(flag) => format!("with --{flag}"),
            Needs::When(phrase, _) => phrase.to_string(),
        }
    }
}

/// One option of one command.
struct Opt<S> {
    name: &'static str,
    /// Value placeholder in the help; `None` for a bare flag.
    metavar: Option<&'static str>,
    needs: Option<Needs<S>>,
    help: &'static str,
    /// Parse the value (`""` for a bare flag) straight into the spec.
    set: Setter<S>,
}

type Setter<S> = fn(&mut S, &str) -> Result<(), String>;

/// An option taking a value; `metavar` `""` declares a bare flag.
const fn opt<S>(
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: Setter<S>,
) -> Opt<S> {
    let metavar = if metavar.is_empty() { None } else { Some(metavar) };
    Opt { name, metavar, needs: None, help, set }
}

/// [`opt`] for an option that only applies when `needs` holds.
const fn gated<S>(
    needs: Needs<S>,
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: Setter<S>,
) -> Opt<S> {
    Opt { needs: Some(needs), ..opt(name, metavar, help, set) }
}

fn put<T: FromStr>(slot: &mut T, v: &str) -> Result<(), String> {
    *slot = v.parse().map_err(|_| format!("cannot parse '{v}'"))?;
    Ok(())
}

fn put_some<T: FromStr>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    *slot = Some(v.parse().map_err(|_| format!("cannot parse '{v}'"))?);
    Ok(())
}

/// `A<sep>B` parsed into two halves; `what` is the expected shape and the
/// two halves' names in errors.
fn pair<A: FromStr, B: FromStr>(v: &str, sep: char, what: [&str; 3]) -> Result<(A, B), String> {
    let (a, b) = v.split_once(sep).ok_or_else(|| format!("expected {}, got '{v}'", what[0]))?;
    let bad = |name: &str, s: &str| format!("cannot parse {name}'{}'", s.trim());
    Ok((
        a.trim().parse().map_err(|_| bad(what[1], a))?,
        b.trim().parse().map_err(|_| bad(what[2], b))?,
    ))
}

const STEAL: Needs<RunSpec> = Needs::When("to --algorithm steal", |s| {
    s.algorithm == AlgoChoice::Fixed(Algorithm::WorkStealing)
});
const INGEST: Needs<RunSpec> =
    Needs::When("with --ingest-epochs N (N > 0)", |s| s.ingest_epochs > 0);
const CHAOS: Needs<RunSpec> = Needs::Flag("chaos");
const RANK_CHAOS: Needs<RunSpec> = Needs::Flag("rank-chaos");
const TRACE: Needs<RunSpec> = Needs::Flag("trace");
const CHECKPOINT: Needs<RunSpec> = Needs::Flag("checkpoint");

#[rustfmt::skip]
const RUN_OPTS: &[Opt<RunSpec>] = &[
    opt("dataset", "astro|fusion|thermal", "Dataset (default thermal)",
        |s, v| DatasetKind::parse(v).map(|d| s.dataset = d)),
    opt("seeding", "sparse|dense", "Seed layout (default sparse)",
        |s, v| parse_seeding(v).map(|d| s.seeding = d)),
    opt("seeds", "N", "Seed count (default: the paper's)", |s, v| put_some(&mut s.seeds, v)),
    opt("cache", "BLOCKS", "Block cache per rank (default 64)",
        |s, v| put(&mut s.cfg.cache_blocks, v)),
    opt("algorithm", "static|lod|hybrid|steal|auto", "Driver; auto asks the §6 advisor (default)",
        |s, v| AlgoChoice::parse(v).map(|a| s.algorithm = a)),
    opt("procs", "N", "Simulated ranks (default 64)", |s, v| put(&mut s.cfg.n_procs, v)),
    opt("batch", "N|auto", "Batch-kernel width (default auto); results are the same at any",
        |s, v| match v {
            "auto" => Ok(()), // the default
            _ => put_some(&mut s.cfg.batch.lanes, v).map_err(|e| e + " (auto or an integer)"),
        }),
    gated(STEAL, "neighbors", "N", "Lifeline neighbours per rank (default 2)",
        |s, v| put(&mut s.cfg.steal.neighbor_degree, v)),
    gated(STEAL, "diffusion-period", "SECS", "Virtual seconds between diffusion ticks",
        |s, v| put(&mut s.cfg.steal.diffusion_period, v)),
    gated(STEAL, "steal-batch", "N", "Most streamlines per steal (default 8)",
        |s, v| put(&mut s.cfg.steal.steal_batch, v)),
    opt("chaos", "", "Inject seeded block-store faults", |s, _| { s.chaos = true; Ok(()) }),
    gated(CHAOS, "chaos-seed", "N", "Fault-plan seed (default 0x5EED)",
        |s, v| put(&mut s.chaos_seed, v)),
    gated(CHAOS, "chaos-fault-prob", "P", "Probability a block faults at all",
        |s, v| put(&mut s.chaos_params.fault_prob, v)),
    gated(CHAOS, "chaos-transient-prob", "P", "Share of faults that clear on retry",
        |s, v| put(&mut s.chaos_params.transient_prob, v)),
    gated(CHAOS, "chaos-corrupt-prob", "P", "Share of lasting faults that corrupt",
        |s, v| put(&mut s.chaos_params.corrupt_prob, v)),
    gated(CHAOS, "chaos-max-clears", "N", "Failed attempts before a transient clears",
        |s, v| put(&mut s.chaos_params.max_clears, v)),
    gated(CHAOS, "chaos-latency-prob", "P", "Probability a block gets added latency",
        |s, v| put(&mut s.chaos_params.latency_prob, v)),
    gated(CHAOS, "chaos-max-latency-us", "US", "Largest added latency",
        |s, v| put(&mut s.chaos_params.max_latency_us, v)),
    opt("rank-chaos", "", "Kill ranks from a seeded schedule (resilient mode)",
        |s, _| { s.rank_chaos(); Ok(()) }),
    gated(RANK_CHAOS, "rank-chaos-seed", "N", "Death-schedule seed (default 0x5EED)",
        |s, v| put(&mut s.rank_chaos().seed, v)),
    gated(RANK_CHAOS, "rank-kill-prob", "P", "Probability each rank dies",
        |s, v| put(&mut s.rank_chaos().kill_prob, v)),
    gated(RANK_CHAOS, "rank-window", "START,END", "Virtual-time window of the deaths",
        |s, v| pair(v, ',', ["START,END", "", ""]).map(|w| s.rank_chaos().window = w)),
    gated(RANK_CHAOS, "rank-kill", "RANK@TIME", "Pin exactly one death instead", |s, v| {
        pair(v, '@', ["RANK@TIME", "rank ", "time "]).map(|k| s.rank_chaos().kill = Some(k))
    }),
    gated(RANK_CHAOS, "rank-heartbeat", "SECS", "Heartbeat period",
        |s, v| put(&mut s.rank_chaos().heartbeat_period, v)),
    gated(RANK_CHAOS, "rank-suspect-timeout", "SECS", "Silence before a peer is suspected",
        |s, v| put(&mut s.rank_chaos().suspect_timeout, v)),
    opt("ingest-epochs", "N", "Arrival epochs past the start set (default 0: closed)",
        |s, v| put(&mut s.ingest_epochs, v)),
    gated(INGEST, "ingest-interval", "SECS", "Virtual seconds between epochs (default 2e-4)",
        |s, v| put(&mut s.ingest_interval, v)),
    gated(INGEST, "ingest-batch", "N", "Seeds per epoch (default 32)",
        |s, v| put(&mut s.ingest_batch, v)),
    opt("json", "FILE", "Write the report as JSON", |s, v| put_some(&mut s.json, v)),
    opt("trace", "FILE.json", "Write the virtual-time phase timeline",
        |s, v| put_some(&mut s.trace, v)),
    gated(TRACE, "trace-bucket", "SECS", "Timeline bucket width (default 0.05)",
        |s, v| put(&mut s.trace_bucket, v)),
    opt("metrics", "FILE.prom", "Write the metric registry as Prometheus text",
        |s, v| put_some(&mut s.metrics, v)),
    opt("checkpoint", "DIR", "Write periodic snapshots into DIR",
        |s, v| put(&mut s.checkpoint().dir, v)),
    opt("checkpoint-interval", "SECS",
        "Virtual seconds between snapshots (default 0.1); accepted without --checkpoint, so \
         reference, kill and resume runs can share one flag set",
        |s, v| put(&mut s.checkpoint().interval, v)),
    gated(CHECKPOINT, "kill-after-checkpoints", "N", "Abandon the run after N snapshots",
        |s, v| put_some(&mut s.checkpoint().kill_after, v)),
    opt("resume", "FILE|DIR", "Resume from a snapshot (the latest in DIR)",
        |s, v| put_some(&mut s.resume, v)),
];

/// `classify` takes the run table's first four rows: the problem flags and
/// the cache the advisor sizes one rank's memory by.
const CLASSIFY_OPTS: &[Opt<RunSpec>] = RUN_OPTS.split_at(4).0;

#[rustfmt::skip]
const TRACE_OPTS: &[Opt<TraceSpec>] = &[
    opt("dataset", "...", "As for run", |s, v| DatasetKind::parse(v).map(|d| s.dataset = d)),
    opt("seeds", "N", "Sparse seeds to trace (default 100)", |s, v| put(&mut s.seeds, v)),
    opt("out", "DIR", "Output directory (default streamline-out)", |s, v| put(&mut s.out, v)),
    opt("formats", "vtk,obj,csv,ppm", "Files to write (default vtk,ppm)",
        |s, v| { s.formats = v.split(',').map(|f| f.trim().to_string()).collect(); Ok(()) }),
];

const FTLE_OPTS: &[Opt<FtleSpec>] = &[
    opt("out", "FILE.ppm", "Output image (default ftle.ppm)", |s, v| put(&mut s.out, v)),
    opt("nx", "N", "Grid columns (default 240)", |s, v| put(&mut s.nx, v)),
    opt("ny", "N", "Grid rows (default 120)", |s, v| put(&mut s.ny, v)),
    opt("horizon", "T", "Integration time (default 10)", |s, v| put(&mut s.horizon, v)),
];

#[rustfmt::skip]
const OBS_CHECK_OPTS: &[Opt<ObsCheckSpec>] = &[
    opt("trace", "FILE.json", "Validate a run --trace file", |s, v| put_some(&mut s.trace, v)),
    opt("metrics", "FILE.prom", "Validate a run --metrics file",
        |s, v| put_some(&mut s.metrics, v)),
    opt("ckpt", "FILE.ckpt", "Validate a checkpoint file", |s, v| put_some(&mut s.ckpt, v)),
];

/// Walk `args` against `rows` into `spec` and return the options given.
/// Rejects an unknown option, a missing value, an option given twice
/// (the last value would otherwise win silently) and an option whose
/// [`Needs`] do not hold.
fn parse_opts<S>(
    args: &[String],
    rows: &[Opt<S>],
    spec: &mut S,
) -> Result<Vec<&'static str>, String> {
    let row = |a: &str| rows.iter().find(|r| a.strip_prefix("--") == Some(r.name));
    // Bare flags may stand anywhere, even between an option and its value.
    let (flags, pairs): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| row(a).is_some_and(|r| r.metavar.is_none()));
    let mut given = Vec::new();
    let mut it = flags.into_iter().chain(pairs);
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --option, got '{a}'"));
        };
        let Some(r) = row(a) else {
            let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
            return Err(format!("unknown option --{key} (allowed: {})", names.join(", ")));
        };
        if given.contains(&r.name) {
            return Err(format!("--{key} given twice"));
        }
        given.push(r.name);
        let value = match r.metavar {
            Some(_) => it.next().ok_or_else(|| format!("--{key} needs a value"))?,
            None => "",
        };
        (r.set)(spec, value).map_err(|e| format!("--{key}: {e}"))?;
    }
    for r in rows.iter().filter(|r| given.contains(&r.name)) {
        let holds = match &r.needs {
            None => true,
            Some(Needs::Flag(flag)) => given.contains(flag),
            Some(Needs::When(_, holds)) => holds(spec),
        };
        if let (false, Some(needs)) = (holds, &r.needs) {
            return Err(format!("--{} only applies {}", r.name, needs.phrase()));
        }
    }
    Ok(given)
}

fn run_spec(args: &[String], rows: &[Opt<RunSpec>]) -> Result<Box<RunSpec>, String> {
    let mut spec = RunSpec::default();
    let given = parse_opts(args, rows, &mut spec)?;
    spec.finish(&given)?;
    Ok(Box::new(spec))
}

fn parse_spec<S>(args: &[String], rows: &[Opt<S>], mut spec: S) -> Result<S, String> {
    parse_opts(args, rows, &mut spec)?;
    Ok(spec)
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let Some(cmd) = args.first() else {
        return Ok(Cli { command: Command::Help });
    };
    let rest = &args[1..];
    let command = match cmd.as_str() {
        "run" => Command::Run(run_spec(rest, RUN_OPTS)?),
        "classify" => Command::Classify(run_spec(rest, CLASSIFY_OPTS)?),
        "trace" => {
            let formats = vec!["vtk".into(), "ppm".into()];
            let defaults = TraceSpec {
                dataset: DatasetKind::Thermal,
                seeds: 100,
                out: "streamline-out".into(),
                formats,
            };
            Command::Trace(parse_spec(rest, TRACE_OPTS, defaults)?)
        }
        "ftle" => {
            let defaults = FtleSpec { out: "ftle.ppm".into(), nx: 240, ny: 120, horizon: 10.0 };
            Command::Ftle(parse_spec(rest, FTLE_OPTS, defaults)?)
        }
        "obs-check" => {
            if rest.is_empty() {
                return Err("obs-check needs --trace, --metrics and/or --ckpt".into());
            }
            Command::ObsCheck(parse_spec(rest, OBS_CHECK_OPTS, ObsCheckSpec::default())?)
        }
        "info" => Command::Info,
        "help" | "--help" | "-h" => Command::Help,
        other => {
            return Err(format!(
                "unknown command '{other}' (run|classify|trace|ftle|obs-check|info|help)"
            ))
        }
    };
    Ok(Cli { command })
}

/// The help text, generated from the option tables.
pub fn usage() -> String {
    let mut u = "slrepro — parallel streamline computation (Pugmire et al., SC 2009)\n\nUSAGE:\n"
        .to_string();
    section(&mut u, "run", RUN_OPTS);
    section(&mut u, "classify", CLASSIFY_OPTS);
    section(&mut u, "trace", TRACE_OPTS);
    section(&mut u, "ftle", FTLE_OPTS);
    section(&mut u, "obs-check", OBS_CHECK_OPTS);
    u + "  slrepro info\n"
}

/// Report a usage error with the help text; returns the exit code (64,
/// `EX_USAGE`).
pub fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n");
    eprintln!("{}", usage());
    64
}

fn section<S>(u: &mut String, cmd: &str, rows: &[Opt<S>]) {
    *u += &format!("  slrepro {cmd} [OPTIONS]\n");
    for r in rows {
        let flag = match r.metavar {
            Some(m) => format!("--{} {m}", r.name),
            None => format!("--{}", r.name),
        };
        let needs = r.needs.as_ref().map(|n| format!(" [{}]", n.phrase()));
        *u += &format!("    {flag:<30} {}{}\n", r.help, needs.unwrap_or_default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_core::{BatchParams, StealParams};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_spec(s: &str) -> RunSpec {
        match parse(&argv(s)).unwrap().command {
            Command::Run(spec) => *spec,
            other => panic!("{other:?}"),
        }
    }

    /// A non-default value for every option of every command, and (for
    /// `run`) the `Debug` text it must leave in the parsed spec.
    fn sample(name: &str) -> (&'static str, &'static str) {
        match name {
            "dataset" => ("astro", "dataset: Astro"),
            "seeding" => ("dense", "seeding: Dense"),
            "seeds" => ("12", "seeds: Some(12)"),
            "algorithm" => ("steal", "algorithm: Fixed(WorkStealing)"),
            "procs" => ("7", "n_procs: 7"),
            "cache" => ("9", "cache_blocks: 9"),
            "batch" => ("8", "lanes: Some(8)"),
            "neighbors" => ("3", "neighbor_degree: 3"),
            "diffusion-period" => ("0.004", "diffusion_period: 0.004"),
            "steal-batch" => ("5", "steal_batch: 5"),
            "chaos" => ("", "chaos: true"),
            "chaos-seed" => ("9", "chaos_seed: 9,"),
            "chaos-fault-prob" => ("0.9", "fault_prob: 0.9"),
            "chaos-transient-prob" => ("0.3", "transient_prob: 0.3"),
            "chaos-corrupt-prob" => ("0.2", "corrupt_prob: 0.2"),
            "chaos-max-clears" => ("7", "max_clears: 7"),
            "chaos-latency-prob" => ("0.4", "latency_prob: 0.4"),
            "chaos-max-latency-us" => ("777", "max_latency_us: 777"),
            "rank-chaos" => ("", "rank_chaos: Some("),
            "rank-chaos-seed" => ("11", "{ seed: 11,"),
            "rank-kill-prob" => ("0.25", "kill_prob: 0.25"),
            "rank-window" => ("0.1,0.4", "window: (0.1, 0.4)"),
            "rank-kill" => ("3@0.002", "kill: Some((3, 0.002))"),
            "rank-heartbeat" => ("0.07", "heartbeat_period: 0.07"),
            "rank-suspect-timeout" => ("0.9", "suspect_timeout: 0.9"),
            "ingest-epochs" => ("3", "ingest_epochs: 3"),
            "ingest-interval" => ("0.001", "ingest_interval: 0.001"),
            "ingest-batch" => ("8", "ingest_batch: 8"),
            "json" => ("r.json", "json: Some(\"r.json\")"),
            "trace" => ("t.json", "trace: Some(\"t.json\")"),
            "trace-bucket" => ("0.01", "trace_bucket: 0.01"),
            "metrics" => ("m.prom", "metrics: Some(\"m.prom\")"),
            "checkpoint" => ("ck", "dir: \"ck\""),
            "checkpoint-interval" => ("0.02", "interval: 0.02,"),
            "kill-after-checkpoints" => ("3", "kill_after: Some(3)"),
            "resume" => ("ck/ckpt-000003.ckpt", "resume: Some(\"ck/ckpt-000003.ckpt\")"),
            "out" => ("o", ""),
            "formats" => ("vtk,csv", ""),
            "nx" | "ny" => ("10", ""),
            "horizon" => ("2", ""),
            "ckpt" => ("c.ckpt", ""),
            other => panic!("no sample value for --{other}"),
        }
    }

    /// Arguments under which row `r` applies.
    fn context(r: &Opt<RunSpec>) -> String {
        match (&r.needs, r.name) {
            (Some(Needs::Flag(flag)), _) => format!("--{flag} {}", sample(flag).0),
            (Some(Needs::When("to --algorithm steal", _)), _) => "--algorithm steal".into(),
            (Some(Needs::When("with --ingest-epochs N (N > 0)", _)), _) => {
                "--ingest-epochs 2".into()
            }
            (Some(Needs::When(other, _)), _) => panic!("no arguments satisfy '{other}'"),
            // Accepted alone, but kept only with the snapshots it paces.
            (None, "checkpoint-interval") => "--checkpoint ck".into(),
            (None, _) => String::new(),
        }
    }

    /// Every row given twice is rejected, and `USAGE` lists it.
    fn rejects_twice_and_is_listed<S>(
        cmd: &str,
        rows: &[Opt<S>],
        context: impl Fn(&Opt<S>) -> String,
    ) {
        let usage = usage();
        for r in rows {
            let arg = format!("--{} {}", r.name, sample(r.name).0);
            let e = parse(&argv(&format!("{cmd} {} {arg} {arg}", context(r)))).unwrap_err();
            assert_eq!(e, format!("--{} given twice", r.name));
            let listed = match r.metavar {
                Some(m) => format!("--{} {m} ", r.name),
                None => format!("--{} ", r.name),
            };
            assert!(usage.contains(&listed), "USAGE lacks '{listed}'");
        }
    }

    /// Generated from the `run` table: every row's sample value lands in
    /// the parsed spec, every gated row is rejected without its gate by a
    /// message naming the gate, and every row is rejected twice and listed.
    #[test]
    fn every_run_option_round_trips_is_gated_and_listed() {
        for r in RUN_OPTS {
            let (value, shows) = sample(r.name);
            let arg = format!("--{} {value}", r.name);
            let base = format!("{:?}", run_spec(&format!("run {}", context(r))));
            let got = format!("{:?}", run_spec(&format!("run {} {arg}", context(r))));
            assert!(!base.contains(shows), "--{}: the default already shows '{shows}'", r.name);
            assert!(got.contains(shows), "--{} {value} did not land: {got}", r.name);
            if let Some(needs) = &r.needs {
                let e = parse(&argv(&format!("run {arg}"))).unwrap_err();
                assert_eq!(e, format!("--{} only applies {}", r.name, needs.phrase()));
            }
        }
        rejects_twice_and_is_listed("run", RUN_OPTS, context);
        assert_eq!(RUN_OPTS.len(), 36);
    }

    #[test]
    fn every_other_option_is_rejected_twice_and_listed() {
        rejects_twice_and_is_listed("classify", CLASSIFY_OPTS, |_| String::new());
        rejects_twice_and_is_listed("trace", TRACE_OPTS, |_| String::new());
        rejects_twice_and_is_listed("ftle", FTLE_OPTS, |_| String::new());
        rejects_twice_and_is_listed("obs-check", OBS_CHECK_OPTS, |_| String::new());
    }

    #[test]
    fn run_defaults() {
        let s = run_spec("run");
        assert_eq!(s.dataset, DatasetKind::Thermal);
        assert_eq!(s.seeding, Seeding::Sparse);
        assert_eq!(s.algorithm, AlgoChoice::Auto);
        assert_eq!(s.cfg.n_procs, 64);
        assert_eq!(s.seeds, None);
        assert_eq!(s.cfg.cache_blocks, 64);
        assert_eq!(s.cfg.steal, StealParams::default());
        assert_eq!(s.cfg.batch, BatchParams::default());
        assert!(!s.chaos);
        assert_eq!(s.chaos_seed, 0x5EED);
        assert_eq!(s.chaos_params, ChaosParams::default());
        assert_eq!(s.cfg.rank_chaos, None);
        assert_eq!((s.ingest_epochs, s.ingest_interval, s.ingest_batch), (0, 2.0e-4, 32));
        assert_eq!(s.json, None);
        assert_eq!(s.trace, None);
        assert_eq!(s.trace_bucket, 0.05);
        assert_eq!(s.metrics, None);
        assert!(s.checkpoint.is_none());
        assert_eq!(s.resume, None);
        // Snapshot defaults, once snapshots are asked for.
        let c = run_spec("run --checkpoint ck").checkpoint.unwrap();
        assert_eq!((c.interval, c.kill_after), (0.1, None));
    }

    #[test]
    fn unknown_option_rejected() {
        let e = parse(&argv("run --bogus 3")).unwrap_err();
        assert!(e.contains("unknown option --bogus"), "{e}");
        // The termination detector is no longer a choice.
        let e = parse(&argv("run --detector frontier")).unwrap_err();
        assert!(e.contains("unknown option --detector"), "{e}");
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse(&argv("run --procs")).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn bad_integer_rejected() {
        let e = parse(&argv("run --procs many")).unwrap_err();
        assert!(e.contains("cannot parse"), "{e}");
    }

    #[test]
    fn trace_formats_split() {
        match parse(&argv("trace --formats vtk,obj,csv")).unwrap().command {
            Command::Trace(t) => assert_eq!(t.formats, vec!["vtk", "obj", "csv"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_knob_round_trips_on_run() {
        assert_eq!(run_spec("run --batch 16").cfg.batch, BatchParams { lanes: Some(16) });
        assert_eq!(run_spec("run --batch auto").cfg.batch, BatchParams { lanes: None });
    }

    #[test]
    fn invalid_batch_values_are_typed_errors_not_panics() {
        let e = parse(&argv("run --batch 0")).unwrap_err();
        assert!(e.contains("batch size must be >= 1"), "{e}");
        let e = parse(&argv("run --batch lots")).unwrap_err();
        assert!(e.contains("cannot parse"), "{e}");
    }

    #[test]
    fn obs_check_needs_an_input() {
        assert!(parse(&argv("obs-check")).is_err());
        match parse(&argv("obs-check --trace t.json")).unwrap().command {
            Command::ObsCheck(o) => {
                assert_eq!(o.trace.as_deref(), Some("t.json"));
                assert_eq!(o.metrics, None);
                assert_eq!(o.ckpt, None);
            }
            other => panic!("{other:?}"),
        }
        // A checkpoint alone is a valid input.
        match parse(&argv("obs-check --ckpt c.ckpt")).unwrap().command {
            Command::ObsCheck(o) => {
                assert_eq!(o.trace, None);
                assert_eq!(o.metrics, None);
                assert_eq!(o.ckpt.as_deref(), Some("c.ckpt"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn steal_algorithm_alias_keeps_default_knobs() {
        let s = run_spec("run --algorithm work-stealing");
        assert_eq!(s.algorithm, AlgoChoice::Fixed(Algorithm::WorkStealing));
        assert_eq!(s.cfg.steal, StealParams::default());
    }

    #[test]
    fn steal_knobs_without_steal_algorithm_rejected() {
        // With a different fixed algorithm, and with the default (auto).
        let e = parse(&argv("run --algorithm lod --steal-batch 4")).unwrap_err();
        assert!(e.contains("only applies to --algorithm steal"), "{e}");
        let e = parse(&argv("run --neighbors 3")).unwrap_err();
        assert!(e.contains("only applies to --algorithm steal"), "{e}");
    }

    #[test]
    fn invalid_steal_knob_values_are_typed_errors_not_panics() {
        let e = parse(&argv("run --algorithm steal --neighbors 0")).unwrap_err();
        assert!(e.contains("neighbor degree"), "{e}");
        let e = parse(&argv("run --algorithm steal --steal-batch 0")).unwrap_err();
        assert!(e.contains("steal batch"), "{e}");
        let e = parse(&argv("run --algorithm steal --diffusion-period -1")).unwrap_err();
        assert!(e.contains("diffusion period"), "{e}");
        let e = parse(&argv("run --algorithm steal --diffusion-period nan")).unwrap_err();
        assert!(e.contains("diffusion period"), "{e}");
        // Unparseable values fail in the generic option parser.
        let e = parse(&argv("run --algorithm steal --neighbors many")).unwrap_err();
        assert!(e.contains("cannot parse"), "{e}");
    }

    #[test]
    fn run_chaos_flags() {
        let s = run_spec("run --algorithm steal --chaos --chaos-seed 7");
        assert!(s.chaos);
        assert_eq!(s.chaos_seed, 7);
        // Flag position must not matter relative to key-value options.
        let s = run_spec("run --chaos --algorithm lod");
        assert!(s.chaos);
        assert_eq!(s.algorithm, AlgoChoice::Fixed(Algorithm::LoadOnDemand));
        // A bare flag between an option and its value is still a flag.
        let s = run_spec("run --json --chaos r.json");
        assert!(s.chaos);
        assert_eq!(s.json.as_deref(), Some("r.json"));
    }

    #[test]
    fn chaos_param_knobs_round_trip_and_validate() {
        let s = run_spec("run --chaos --chaos-fault-prob 0.9 --chaos-max-clears 7");
        assert!(s.chaos);
        assert_eq!(s.chaos_params.fault_prob, 0.9);
        assert_eq!(s.chaos_params.max_clears, 7);
        // Untouched knobs keep their defaults.
        assert_eq!(s.chaos_params.latency_prob, ChaosParams::default().latency_prob);
        // Out-of-range values are typed errors naming the knob, not panics.
        let e = parse(&argv("run --chaos --chaos-fault-prob 1.5")).unwrap_err();
        assert!(e.contains("fault_prob"), "{e}");
        let e = parse(&argv("run --chaos --chaos-transient-prob -0.1")).unwrap_err();
        assert!(e.contains("transient_prob"), "{e}");
        let e = parse(&argv("run --chaos --chaos-max-clears 0")).unwrap_err();
        assert!(e.contains("max_clears"), "{e}");
        // Knobs without --chaos are rejected, not silently ignored.
        let e = parse(&argv("run --chaos-fault-prob 0.5")).unwrap_err();
        assert!(e.contains("only applies with --chaos"), "{e}");
    }

    #[test]
    fn rank_chaos_flags_round_trip() {
        let rc = run_spec("run --rank-chaos").cfg.rank_chaos.expect("flag turns rank chaos on");
        assert_eq!(rc, RankChaos::seeded(0x5EED));
        let rc = run_spec(
            "run --rank-chaos --rank-chaos-seed 9 --rank-kill-prob 0.25 --rank-window 0.1,0.4 \
             --rank-heartbeat 0.05 --rank-suspect-timeout 0.5",
        )
        .cfg
        .rank_chaos
        .unwrap();
        assert_eq!(rc.seed, 9);
        assert_eq!(rc.kill_prob, 0.25);
        assert_eq!(rc.window, (0.1, 0.4));
        assert_eq!(rc.heartbeat_period, 0.05);
        assert_eq!(rc.suspect_timeout, 0.5);
        // A pinned kill; flag position free relative to key-value options.
        let rc = run_spec("run --rank-kill 3@0.002 --rank-chaos").cfg.rank_chaos.unwrap();
        assert_eq!(rc.kill, Some((3, 0.002)));
    }

    #[test]
    fn invalid_rank_chaos_values_are_typed_errors_not_panics() {
        let e = parse(&argv("run --rank-chaos --rank-kill-prob 2")).unwrap_err();
        assert!(e.contains("kill_prob"), "{e}");
        let e = parse(&argv("run --rank-chaos --rank-window 0.5,0.1")).unwrap_err();
        assert!(e.contains("window"), "{e}");
        let e = parse(&argv("run --rank-chaos --rank-window 0.5")).unwrap_err();
        assert!(e.contains("START,END"), "{e}");
        let e = parse(&argv("run --rank-chaos --rank-kill 3")).unwrap_err();
        assert!(e.contains("RANK@TIME"), "{e}");
        let e = parse(&argv("run --rank-chaos --rank-kill 3@-1")).unwrap_err();
        assert!(e.contains("window"), "{e}");
        let e = parse(&argv("run --rank-chaos --rank-heartbeat 0")).unwrap_err();
        assert!(e.contains("heartbeat"), "{e}");
        // Knobs without the mode flag are rejected, not silently ignored.
        let e = parse(&argv("run --rank-kill 1@0.5")).unwrap_err();
        assert!(e.contains("only applies with --rank-chaos"), "{e}");
    }

    #[test]
    fn ingest_flags_round_trip_and_validate() {
        let s = run_spec("run --ingest-epochs 3 --ingest-interval 0.001 --ingest-batch 8");
        assert_eq!((s.ingest_epochs, s.ingest_interval, s.ingest_batch), (3, 0.001, 8));
        // Ingest knobs without epochs are rejected, not silently ignored.
        let e = parse(&argv("run --ingest-interval 0.1")).unwrap_err();
        assert!(e.contains("only applies with --ingest-epochs"), "{e}");
        let e = parse(&argv("run --ingest-batch 8")).unwrap_err();
        assert!(e.contains("only applies with --ingest-epochs"), "{e}");
        // Degenerate values are typed errors.
        let e = parse(&argv("run --ingest-epochs 2 --ingest-interval 0")).unwrap_err();
        assert!(e.contains("positive and finite"), "{e}");
        let e = parse(&argv("run --ingest-epochs 2 --ingest-batch 0")).unwrap_err();
        assert!(e.contains("--ingest-batch"), "{e}");
    }

    #[test]
    fn checkpoint_flags_are_gated_and_kept_only_with_snapshots() {
        // A kill count without snapshots is rejected, not silently ignored.
        let e = parse(&argv("run --kill-after-checkpoints 2")).unwrap_err();
        assert!(e.contains("only applies with --checkpoint"), "{e}");
        let c = run_spec("run --checkpoint ck --kill-after-checkpoints 2").checkpoint.unwrap();
        assert_eq!(c.dir, std::path::Path::new("ck"));
        assert_eq!(c.kill_after, Some(2));
        // The interval alone is accepted (one flag set serves reference,
        // kill and resume runs) and takes no snapshots.
        assert!(run_spec("run --checkpoint-interval 0.02").checkpoint.is_none());
    }

    #[test]
    fn dataset_aliases() {
        assert_eq!(DatasetKind::parse("supernova").unwrap(), DatasetKind::Astro);
        assert_eq!(DatasetKind::parse("tokamak").unwrap(), DatasetKind::Fusion);
        assert!(DatasetKind::parse("xyz").is_err());
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(&[]).unwrap().command, Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap().command, Command::Help));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&argv("frobnicate")).is_err());
    }

    /// Every command `USAGE` advertises parses as a known command, and the
    /// unknown-command hint lists exactly those commands plus `help`, so
    /// the help text cannot name a deleted command again.
    #[test]
    fn every_usage_command_is_known() {
        let usage = usage();
        let mut cmds: Vec<&str> = usage
            .lines()
            .filter_map(|l| l.strip_prefix("  slrepro "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert!(cmds.contains(&"run") && cmds.contains(&"info"), "{cmds:?}");
        for cmd in &cmds {
            if let Err(e) = parse(&argv(cmd)) {
                assert!(!e.starts_with("unknown command"), "USAGE names '{cmd}': {e}");
            }
        }
        cmds.push("help");
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.ends_with(&format!("({})", cmds.join("|"))), "{e}");
    }
}
