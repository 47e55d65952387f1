//! Hand-rolled argument parsing (no external CLI dependency).

use std::collections::BTreeMap;
use streamline_core::{Algorithm, BatchParams, DetectorKind, RankChaos, StealParams};
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

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    // The knob-group structs are boxed so that this variant does not
    // dwarf the others (clippy's `large_enum_variant`).
    Run {
        dataset: DatasetKind,
        seeding: Seeding,
        algorithm: AlgoChoice,
        procs: usize,
        seeds: Option<usize>,
        cache: usize,
        /// Tuning knobs of the work-stealing driver (`--neighbors`,
        /// `--diffusion-period`, `--steal-batch`); defaults elsewhere.
        steal: Box<StealParams>,
        /// Batch-kernel width (`--batch auto|N`); results are identical at
        /// any width, this only tunes throughput.
        batch: BatchParams,
        /// Inject store faults from a seeded plan (degraded-mode run).
        chaos: bool,
        /// Seed for the chaos fault plan.
        chaos_seed: u64,
        /// Block-fault plan knobs (`--chaos-fault-prob` and friends),
        /// validated at parse so a driver never sees an illegal probability.
        chaos_params: Box<ChaosParams>,
        /// Kill simulated ranks from a seeded schedule and run every driver
        /// in resilient mode (`--rank-chaos` plus the `--rank-*` knobs).
        rank_chaos: Option<Box<RankChaos>>,
        /// Open-loop streaming ingestion: number of arrival epochs past the
        /// start-time base set (`--ingest-epochs`; 0 = closed run).
        ingest_epochs: usize,
        /// Virtual seconds between arrival epochs (`--ingest-interval`).
        ingest_interval: f64,
        /// Seeds delivered per arrival epoch (`--ingest-batch`).
        ingest_batch: usize,
        /// Termination detector (`--detector closed-set|frontier`).
        detector: DetectorKind,
        json: Option<String>,
        /// Write a virtual-time phase timeline (idle/io/compute/comm per
        /// rank) as trace JSON to this path.
        trace: Option<String>,
        /// Bucket width of the timeline, in virtual seconds.
        trace_bucket: f64,
        /// Write the run's metric registry as Prometheus text to this path.
        metrics: Option<String>,
        /// Write periodic snapshots (`ckpt-NNNNNN.ckpt`) into this directory.
        checkpoint: Option<String>,
        /// Virtual seconds between snapshots.
        checkpoint_interval: f64,
        /// Abandon the run after writing this many snapshots — the kill half
        /// of the crash/restart smoke test.
        kill_after_checkpoints: Option<u64>,
        /// Resume a previous run from this snapshot file (or the latest
        /// `ckpt-*.ckpt` if a directory is given) instead of starting fresh.
        resume: Option<String>,
    },
    Classify {
        dataset: DatasetKind,
        seeding: Seeding,
        seeds: Option<usize>,
    },
    Trace {
        dataset: DatasetKind,
        seeds: usize,
        out: String,
        formats: Vec<String>,
    },
    Ftle {
        out: String,
        nx: usize,
        ny: usize,
        horizon: f64,
    },
    /// Validate an emitted trace JSON, Prometheus snapshot and/or checkpoint
    /// file — the CI smoke gate behind `run --trace` and `run --checkpoint`.
    ObsCheck {
        trace: Option<String>,
        metrics: Option<String>,
        /// Validate a checkpoint container (magic, section CRCs, metadata).
        ckpt: Option<String>,
    },
    Info,
    Help,
}

/// Full parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub command: Command,
}

fn parse_seeding(s: &str) -> Result<Seeding, String> {
    match s {
        "sparse" => Ok(Seeding::Sparse),
        "dense" => Ok(Seeding::Dense),
        other => Err(format!("unknown seeding '{other}' (sparse|dense)")),
    }
}

fn parse_detector(s: &str) -> Result<DetectorKind, String> {
    match s {
        "closed-set" | "closed" => Ok(DetectorKind::ClosedSet),
        "frontier" => Ok(DetectorKind::Frontier),
        other => Err(format!("unknown detector '{other}' (closed-set|frontier)")),
    }
}

/// Split `--key value` pairs; rejects unknown keys against `allowed` and a
/// key given twice (the last value would otherwise win silently).
fn options(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --option, got '{a}'"));
        };
        if !allowed.contains(&key) {
            return Err(format!("unknown option --{key} (allowed: {})", allowed.join(", ")));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if out.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

/// Remove the bare flag `flag` from `args`, reporting whether it was there;
/// like an option, it may be given at most once.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<bool, String> {
    let before = args.len();
    args.retain(|a| a != flag);
    match before - args.len() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("{flag} given twice")),
    }
}

fn get_parse<T: std::str::FromStr>(
    opts: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

/// `--batch auto|N` → [`BatchParams`], with the typed width validation.
fn parse_batch(opts: &BTreeMap<String, String>) -> Result<BatchParams, String> {
    let batch = match opts.get("batch").map(|s| s.as_str()) {
        None | Some("auto") => BatchParams { lanes: None },
        Some(v) => BatchParams {
            lanes: Some(
                v.parse()
                    .map_err(|_| format!("--batch: cannot parse '{v}' (auto or an integer)"))?,
            ),
        },
    };
    batch.validate().map_err(|e| e.to_string())?;
    Ok(batch)
}

/// `--chaos-*` knobs → [`ChaosParams`], rejected with the typed
/// [`ChaosConfigError`](streamline_iosim::ChaosConfigError) messages before
/// a fault plan can panic on them.
fn parse_chaos_params(opts: &BTreeMap<String, String>) -> Result<ChaosParams, String> {
    let d = ChaosParams::default();
    let params = ChaosParams {
        fault_prob: get_parse(opts, "chaos-fault-prob", d.fault_prob)?,
        transient_prob: get_parse(opts, "chaos-transient-prob", d.transient_prob)?,
        corrupt_prob: get_parse(opts, "chaos-corrupt-prob", d.corrupt_prob)?,
        max_clears: get_parse(opts, "chaos-max-clears", d.max_clears)?,
        latency_prob: get_parse(opts, "chaos-latency-prob", d.latency_prob)?,
        max_latency_us: get_parse(opts, "chaos-max-latency-us", d.max_latency_us)?,
    };
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

/// `--rank-*` knobs → [`RankChaos`]: `--rank-window START,END` bounds the
/// random kill times and `--rank-kill RANK@TIME` pins exactly one death.
/// Validated with the same typed errors as the block-fault chaos config.
fn parse_rank_chaos(opts: &BTreeMap<String, String>) -> Result<RankChaos, String> {
    let mut rc = RankChaos::seeded(get_parse(opts, "rank-chaos-seed", 0x5EED)?);
    rc.kill_prob = get_parse(opts, "rank-kill-prob", rc.kill_prob)?;
    rc.heartbeat_period = get_parse(opts, "rank-heartbeat", rc.heartbeat_period)?;
    rc.suspect_timeout = get_parse(opts, "rank-suspect-timeout", rc.suspect_timeout)?;
    if let Some(v) = opts.get("rank-window") {
        let (a, b) = v
            .split_once(',')
            .ok_or_else(|| format!("--rank-window: expected START,END, got '{v}'"))?;
        let num = |s: &str| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("--rank-window: cannot parse '{}'", s.trim()))
        };
        rc.window = (num(a)?, num(b)?);
    }
    if let Some(v) = opts.get("rank-kill") {
        let (r, t) = v
            .split_once('@')
            .ok_or_else(|| format!("--rank-kill: expected RANK@TIME, got '{v}'"))?;
        let rank = r
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("--rank-kill: cannot parse rank '{}'", r.trim()))?;
        let time = t
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("--rank-kill: cannot parse time '{}'", t.trim()))?;
        rc.kill = Some((rank, time));
    }
    rc.validate().map_err(|e| e.to_string())?;
    Ok(rc)
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let Some(cmd) = args.first() else {
        return Ok(Cli { command: Command::Help });
    };
    let rest = &args[1..];
    let command = match cmd.as_str() {
        "run" => {
            // `--chaos` and `--rank-chaos` are bare flags; peel them off
            // before the key-value pass.
            let mut kv: Vec<String> = rest.to_vec();
            let chaos = take_flag(&mut kv, "--chaos")?;
            let rank_chaos_on = take_flag(&mut kv, "--rank-chaos")?;
            let o = options(
                &kv,
                &[
                    "dataset",
                    "seeding",
                    "algorithm",
                    "procs",
                    "seeds",
                    "cache",
                    "batch",
                    "neighbors",
                    "diffusion-period",
                    "steal-batch",
                    "chaos-seed",
                    "chaos-fault-prob",
                    "chaos-transient-prob",
                    "chaos-corrupt-prob",
                    "chaos-max-clears",
                    "chaos-latency-prob",
                    "chaos-max-latency-us",
                    "rank-chaos-seed",
                    "rank-kill-prob",
                    "rank-window",
                    "rank-kill",
                    "rank-heartbeat",
                    "rank-suspect-timeout",
                    "ingest-epochs",
                    "ingest-interval",
                    "ingest-batch",
                    "detector",
                    "json",
                    "trace",
                    "trace-bucket",
                    "metrics",
                    "checkpoint",
                    "checkpoint-interval",
                    "kill-after-checkpoints",
                    "resume",
                ],
            )?;
            // Chaos knobs without the matching mode flag are a silent no-op
            // waiting to happen; reject them up front like the steal knobs.
            if !chaos {
                for knob in [
                    "chaos-fault-prob",
                    "chaos-transient-prob",
                    "chaos-corrupt-prob",
                    "chaos-max-clears",
                    "chaos-latency-prob",
                    "chaos-max-latency-us",
                ] {
                    if o.contains_key(knob) {
                        return Err(format!("--{knob} only applies with --chaos"));
                    }
                }
            }
            if !rank_chaos_on {
                for knob in [
                    "rank-chaos-seed",
                    "rank-kill-prob",
                    "rank-window",
                    "rank-kill",
                    "rank-heartbeat",
                    "rank-suspect-timeout",
                ] {
                    if o.contains_key(knob) {
                        return Err(format!("--{knob} only applies with --rank-chaos"));
                    }
                }
            }
            let algorithm =
                AlgoChoice::parse(o.get("algorithm").map(|s| s.as_str()).unwrap_or("auto"))?;
            // Steal knobs only make sense on the work-stealing driver; reject
            // the combination up front rather than silently ignoring it.
            if algorithm != AlgoChoice::Fixed(Algorithm::WorkStealing) {
                for knob in ["neighbors", "diffusion-period", "steal-batch"] {
                    if o.contains_key(knob) {
                        let got = match algorithm {
                            AlgoChoice::Fixed(a) => a.label(),
                            AlgoChoice::Auto => "auto",
                        };
                        return Err(format!(
                            "--{knob} only applies to --algorithm steal (got {got})"
                        ));
                    }
                }
            }
            let ingest_epochs: usize = get_parse(&o, "ingest-epochs", 0)?;
            // Ingest knobs without any arrival epochs would be a silent
            // no-op; reject like the chaos and steal knobs.
            if ingest_epochs == 0 {
                for knob in ["ingest-interval", "ingest-batch"] {
                    if o.contains_key(knob) {
                        return Err(format!(
                            "--{knob} only applies with --ingest-epochs N (N > 0)"
                        ));
                    }
                }
            }
            let ingest_interval: f64 = get_parse(&o, "ingest-interval", 2.0e-4)?;
            if !(ingest_interval > 0.0 && ingest_interval.is_finite()) {
                return Err(format!(
                    "--ingest-interval must be positive and finite, got {ingest_interval}"
                ));
            }
            let ingest_batch: usize = get_parse(&o, "ingest-batch", 32)?;
            if ingest_epochs > 0 && ingest_batch == 0 {
                return Err("--ingest-batch must be >= 1".into());
            }
            let trace_bucket: f64 = get_parse(&o, "trace-bucket", 0.05)?;
            if !(trace_bucket > 0.0 && trace_bucket.is_finite()) {
                return Err(format!(
                    "--trace-bucket must be positive and finite, got {trace_bucket}"
                ));
            }
            let checkpoint_interval: f64 = get_parse(&o, "checkpoint-interval", 0.1)?;
            if !(checkpoint_interval > 0.0 && checkpoint_interval.is_finite()) {
                return Err(format!(
                    "--checkpoint-interval must be positive and finite, got {checkpoint_interval}"
                ));
            }
            // Like the knobs above: a kill count without snapshots would be
            // silently ignored.
            if o.contains_key("kill-after-checkpoints") && !o.contains_key("checkpoint") {
                return Err("--kill-after-checkpoints only applies with --checkpoint DIR".into());
            }
            let detector =
                parse_detector(o.get("detector").map(|s| s.as_str()).unwrap_or("closed-set"))?;
            let defaults = StealParams::default();
            let steal = StealParams {
                neighbor_degree: get_parse(&o, "neighbors", defaults.neighbor_degree)?,
                diffusion_period: get_parse(&o, "diffusion-period", defaults.diffusion_period)?,
                steal_batch: get_parse(&o, "steal-batch", defaults.steal_batch)?,
            };
            steal.validate().map_err(|e| e.to_string())?;
            Command::Run {
                dataset: DatasetKind::parse(
                    o.get("dataset").map(|s| s.as_str()).unwrap_or("thermal"),
                )?,
                seeding: parse_seeding(o.get("seeding").map(|s| s.as_str()).unwrap_or("sparse"))?,
                algorithm,
                procs: get_parse(&o, "procs", 64)?,
                seeds: o
                    .get("seeds")
                    .map(|v| v.parse().map_err(|_| "--seeds: bad integer".to_string()))
                    .transpose()?,
                cache: get_parse(&o, "cache", 64)?,
                steal: Box::new(steal),
                batch: parse_batch(&o)?,
                chaos,
                chaos_seed: get_parse(&o, "chaos-seed", 0x5EED)?,
                chaos_params: Box::new(parse_chaos_params(&o)?),
                rank_chaos: if rank_chaos_on {
                    Some(Box::new(parse_rank_chaos(&o)?))
                } else {
                    None
                },
                ingest_epochs,
                ingest_interval,
                ingest_batch,
                detector,
                json: o.get("json").cloned(),
                trace: o.get("trace").cloned(),
                trace_bucket,
                metrics: o.get("metrics").cloned(),
                checkpoint: o.get("checkpoint").cloned(),
                checkpoint_interval,
                kill_after_checkpoints: o
                    .get("kill-after-checkpoints")
                    .map(|v| {
                        v.parse().map_err(|_| "--kill-after-checkpoints: bad integer".to_string())
                    })
                    .transpose()?,
                resume: o.get("resume").cloned(),
            }
        }
        "classify" => {
            let o = options(rest, &["dataset", "seeding", "seeds"])?;
            Command::Classify {
                dataset: DatasetKind::parse(
                    o.get("dataset").map(|s| s.as_str()).unwrap_or("thermal"),
                )?,
                seeding: parse_seeding(o.get("seeding").map(|s| s.as_str()).unwrap_or("sparse"))?,
                seeds: o
                    .get("seeds")
                    .map(|v| v.parse().map_err(|_| "--seeds: bad integer".to_string()))
                    .transpose()?,
            }
        }
        "trace" => {
            let o = options(rest, &["dataset", "seeds", "out", "formats"])?;
            Command::Trace {
                dataset: DatasetKind::parse(
                    o.get("dataset").map(|s| s.as_str()).unwrap_or("thermal"),
                )?,
                seeds: get_parse(&o, "seeds", 100)?,
                out: o.get("out").cloned().unwrap_or_else(|| "streamline-out".into()),
                formats: o
                    .get("formats")
                    .map(|s| s.split(',').map(|f| f.trim().to_string()).collect())
                    .unwrap_or_else(|| vec!["vtk".into(), "ppm".into()]),
            }
        }
        "ftle" => {
            let o = options(rest, &["out", "nx", "ny", "horizon"])?;
            Command::Ftle {
                out: o.get("out").cloned().unwrap_or_else(|| "ftle.ppm".into()),
                nx: get_parse(&o, "nx", 240)?,
                ny: get_parse(&o, "ny", 120)?,
                horizon: get_parse(&o, "horizon", 10.0)?,
            }
        }
        "obs-check" => {
            let o = options(rest, &["trace", "metrics", "ckpt"])?;
            if o.is_empty() {
                return Err("obs-check needs --trace, --metrics and/or --ckpt".into());
            }
            Command::ObsCheck {
                trace: o.get("trace").cloned(),
                metrics: o.get("metrics").cloned(),
                ckpt: o.get("ckpt").cloned(),
            }
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

pub const USAGE: &str = "\
slrepro — parallel streamline computation (Pugmire et al., SC 2009)

USAGE:
  slrepro run      [--dataset astro|fusion|thermal] [--seeding sparse|dense]
                   [--algorithm static|lod|hybrid|steal|auto] [--procs N] [--seeds N]
                   [--cache BLOCKS] [--batch N|auto] [--neighbors N]
                   [--diffusion-period SECS]
                   [--steal-batch N] [--chaos] [--chaos-seed N]
                   [--chaos-fault-prob P] [--chaos-transient-prob P]
                   [--chaos-corrupt-prob P] [--chaos-max-clears N]
                   [--chaos-latency-prob P] [--chaos-max-latency-us US]
                   [--rank-chaos] [--rank-chaos-seed N] [--rank-kill-prob P]
                   [--rank-window START,END] [--rank-kill RANK@TIME]
                   [--rank-heartbeat SECS] [--rank-suspect-timeout SECS]
                   [--ingest-epochs N] [--ingest-interval SECS] [--ingest-batch N]
                   [--detector closed-set|frontier]
                   [--json FILE] [--trace FILE.json]
                   [--trace-bucket SECS] [--metrics FILE.prom]
                   [--checkpoint DIR] [--checkpoint-interval SECS]
                   [--kill-after-checkpoints N] [--resume FILE|DIR]
  slrepro classify [--dataset ...] [--seeding ...] [--seeds N]
  slrepro trace    [--dataset ...] [--seeds N] [--out DIR] [--formats vtk,obj,csv,ppm]
  slrepro ftle     [--out FILE.ppm] [--nx N] [--ny N] [--horizon T]
  slrepro obs-check [--trace FILE.json] [--metrics FILE.prom] [--ckpt FILE.ckpt]
  slrepro info
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_defaults() {
        let cli = parse(&argv("run")).unwrap();
        match cli.command {
            Command::Run {
                dataset,
                seeding,
                algorithm,
                procs,
                seeds,
                cache,
                steal,
                batch,
                chaos,
                chaos_seed,
                chaos_params,
                rank_chaos,
                ingest_epochs,
                ingest_interval,
                ingest_batch,
                detector,
                json,
                trace,
                trace_bucket,
                metrics,
                checkpoint,
                checkpoint_interval,
                kill_after_checkpoints,
                resume,
            } => {
                assert_eq!(ingest_epochs, 0);
                assert_eq!(ingest_interval, 2.0e-4);
                assert_eq!(ingest_batch, 32);
                assert_eq!(detector, DetectorKind::ClosedSet);
                assert_eq!(dataset, DatasetKind::Thermal);
                assert_eq!(seeding, Seeding::Sparse);
                assert_eq!(algorithm, AlgoChoice::Auto);
                assert_eq!(procs, 64);
                assert_eq!(seeds, None);
                assert_eq!(cache, 64);
                assert_eq!(*steal, StealParams::default());
                assert_eq!(batch, BatchParams::default());
                assert!(!chaos);
                assert_eq!(chaos_seed, 0x5EED);
                assert_eq!(*chaos_params, ChaosParams::default());
                assert_eq!(rank_chaos, None);
                assert_eq!(json, None);
                assert_eq!(trace, None);
                assert_eq!(trace_bucket, 0.05);
                assert_eq!(metrics, None);
                assert_eq!(checkpoint, None);
                assert_eq!(checkpoint_interval, 0.1);
                assert_eq!(kill_after_checkpoints, None);
                assert_eq!(resume, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_full_options() {
        let cli = parse(&argv(
            "run --dataset astro --seeding dense --algorithm hybrid --procs 128 --seeds 5000 --cache 32 --batch 8 --json r.json --trace t.json --trace-bucket 0.01 --metrics m.prom --checkpoint ck --checkpoint-interval 0.02 --kill-after-checkpoints 3 --resume ck/ckpt-000003.ckpt",
        ))
        .unwrap();
        match cli.command {
            Command::Run {
                dataset,
                seeding,
                algorithm,
                procs,
                seeds,
                cache,
                steal,
                batch,
                chaos,
                chaos_seed,
                chaos_params,
                rank_chaos,
                ingest_epochs,
                ingest_interval,
                ingest_batch,
                detector,
                json,
                trace,
                trace_bucket,
                metrics,
                checkpoint,
                checkpoint_interval,
                kill_after_checkpoints,
                resume,
            } => {
                assert_eq!(ingest_epochs, 0);
                assert_eq!(ingest_interval, 2.0e-4);
                assert_eq!(ingest_batch, 32);
                assert_eq!(detector, DetectorKind::ClosedSet);
                assert_eq!(dataset, DatasetKind::Astro);
                assert_eq!(seeding, Seeding::Dense);
                assert_eq!(algorithm, AlgoChoice::Fixed(Algorithm::HybridMasterSlave));
                assert_eq!(procs, 128);
                assert_eq!(seeds, Some(5000));
                assert_eq!(cache, 32);
                assert_eq!(*steal, StealParams::default());
                assert_eq!(batch, BatchParams { lanes: Some(8) });
                assert!(!chaos);
                assert_eq!(chaos_seed, 0x5EED);
                assert_eq!(*chaos_params, ChaosParams::default());
                assert_eq!(rank_chaos, None);
                assert_eq!(json.as_deref(), Some("r.json"));
                assert_eq!(trace.as_deref(), Some("t.json"));
                assert_eq!(trace_bucket, 0.01);
                assert_eq!(metrics.as_deref(), Some("m.prom"));
                assert_eq!(checkpoint.as_deref(), Some("ck"));
                assert_eq!(checkpoint_interval, 0.02);
                assert_eq!(kill_after_checkpoints, Some(3));
                assert_eq!(resume.as_deref(), Some("ck/ckpt-000003.ckpt"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_option_rejected() {
        let e = parse(&argv("run --bogus 3")).unwrap_err();
        assert!(e.contains("unknown option --bogus"), "{e}");
    }

    #[test]
    fn repeated_option_rejected() {
        let e = parse(&argv("run --seeds 10 --seeds 20")).unwrap_err();
        assert_eq!(e, "--seeds given twice");
        let e = parse(&argv("run --rank-chaos --rank-kill 1@0.1 --rank-kill 2@0.2")).unwrap_err();
        assert_eq!(e, "--rank-kill given twice");
        let e = parse(&argv("run --chaos --seeds 4 --chaos")).unwrap_err();
        assert_eq!(e, "--chaos given twice");
        let e = parse(&argv("trace --out a --out b")).unwrap_err();
        assert_eq!(e, "--out given twice");
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
        let cli = parse(&argv("trace --formats vtk,obj,csv")).unwrap();
        match cli.command {
            Command::Trace { formats, .. } => {
                assert_eq!(formats, vec!["vtk", "obj", "csv"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_knob_round_trips_on_run() {
        match parse(&argv("run --batch 16")).unwrap().command {
            Command::Run { batch, .. } => assert_eq!(batch, BatchParams { lanes: Some(16) }),
            other => panic!("{other:?}"),
        }
        match parse(&argv("run --batch auto")).unwrap().command {
            Command::Run { batch, .. } => assert_eq!(batch, BatchParams { lanes: None }),
            other => panic!("{other:?}"),
        }
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
            Command::ObsCheck { trace, metrics, ckpt } => {
                assert_eq!(trace.as_deref(), Some("t.json"));
                assert_eq!(metrics, None);
                assert_eq!(ckpt, None);
            }
            other => panic!("{other:?}"),
        }
        // A checkpoint alone is a valid input.
        match parse(&argv("obs-check --ckpt c.ckpt")).unwrap().command {
            Command::ObsCheck { trace, metrics, ckpt } => {
                assert_eq!(trace, None);
                assert_eq!(metrics, None);
                assert_eq!(ckpt.as_deref(), Some("c.ckpt"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn steal_algorithm_and_knobs_round_trip() {
        let cli = parse(&argv(
            "run --algorithm steal --neighbors 3 --diffusion-period 0.002 --steal-batch 4",
        ))
        .unwrap();
        match cli.command {
            Command::Run { algorithm, steal, .. } => {
                assert_eq!(algorithm, AlgoChoice::Fixed(Algorithm::WorkStealing));
                assert_eq!(steal.neighbor_degree, 3);
                assert_eq!(steal.diffusion_period, 0.002);
                assert_eq!(steal.steal_batch, 4);
            }
            other => panic!("{other:?}"),
        }
        // Alias and defaults.
        match parse(&argv("run --algorithm work-stealing")).unwrap().command {
            Command::Run { algorithm, steal, .. } => {
                assert_eq!(algorithm, AlgoChoice::Fixed(Algorithm::WorkStealing));
                assert_eq!(*steal, StealParams::default());
            }
            other => panic!("{other:?}"),
        }
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
        match parse(&argv("run --algorithm steal --chaos --chaos-seed 7")).unwrap().command {
            Command::Run { chaos, chaos_seed, .. } => {
                assert!(chaos);
                assert_eq!(chaos_seed, 7);
            }
            other => panic!("{other:?}"),
        }
        // Flag position must not matter relative to key-value options.
        match parse(&argv("run --chaos --algorithm lod")).unwrap().command {
            Command::Run { chaos, algorithm, .. } => {
                assert!(chaos);
                assert_eq!(algorithm, AlgoChoice::Fixed(Algorithm::LoadOnDemand));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chaos_param_knobs_round_trip_and_validate() {
        match parse(&argv("run --chaos --chaos-fault-prob 0.9 --chaos-max-clears 7"))
            .unwrap()
            .command
        {
            Command::Run { chaos, chaos_params, .. } => {
                assert!(chaos);
                assert_eq!(chaos_params.fault_prob, 0.9);
                assert_eq!(chaos_params.max_clears, 7);
                // Untouched knobs keep their defaults.
                assert_eq!(chaos_params.latency_prob, ChaosParams::default().latency_prob);
            }
            other => panic!("{other:?}"),
        }
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
        match parse(&argv("run --rank-chaos")).unwrap().command {
            Command::Run { rank_chaos, .. } => {
                let rc = rank_chaos.expect("flag turns rank chaos on");
                assert_eq!(rc.seed, 0x5EED);
                assert_eq!(rc.kill, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "run --rank-chaos --rank-chaos-seed 9 --rank-kill-prob 0.25 --rank-window 0.1,0.4 \
             --rank-heartbeat 0.05 --rank-suspect-timeout 0.5",
        ))
        .unwrap()
        .command
        {
            Command::Run { rank_chaos, .. } => {
                let rc = rank_chaos.unwrap();
                assert_eq!(rc.seed, 9);
                assert_eq!(rc.kill_prob, 0.25);
                assert_eq!(rc.window, (0.1, 0.4));
                assert_eq!(rc.heartbeat_period, 0.05);
                assert_eq!(rc.suspect_timeout, 0.5);
            }
            other => panic!("{other:?}"),
        }
        // A pinned kill; flag position free relative to key-value options.
        match parse(&argv("run --rank-kill 3@0.002 --rank-chaos")).unwrap().command {
            Command::Run { rank_chaos, .. } => {
                assert_eq!(rank_chaos.unwrap().kill, Some((3, 0.002)));
            }
            other => panic!("{other:?}"),
        }
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
        match parse(&argv("run")).unwrap().command {
            Command::Run { ingest_epochs, ingest_interval, ingest_batch, detector, .. } => {
                assert_eq!(ingest_epochs, 0);
                assert_eq!(ingest_interval, 2.0e-4);
                assert_eq!(ingest_batch, 32);
                assert_eq!(detector, DetectorKind::ClosedSet);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "run --ingest-epochs 3 --ingest-interval 0.001 --ingest-batch 8 --detector frontier",
        ))
        .unwrap()
        .command
        {
            Command::Run { ingest_epochs, ingest_interval, ingest_batch, detector, .. } => {
                assert_eq!(ingest_epochs, 3);
                assert_eq!(ingest_interval, 0.001);
                assert_eq!(ingest_batch, 8);
                assert_eq!(detector, DetectorKind::Frontier);
            }
            other => panic!("{other:?}"),
        }
        // The detector knob stands alone (it is invisible on closed runs).
        match parse(&argv("run --detector closed")).unwrap().command {
            Command::Run { detector, .. } => assert_eq!(detector, DetectorKind::ClosedSet),
            other => panic!("{other:?}"),
        }
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
        let e = parse(&argv("run --detector bogus")).unwrap_err();
        assert!(e.contains("unknown detector"), "{e}");
    }

    #[test]
    fn trace_and_checkpoint_values_are_typed_errors_not_panics() {
        for bad in ["0", "-1", "nan", "inf"] {
            let e = parse(&argv(&format!("run --trace t.json --trace-bucket {bad}"))).unwrap_err();
            assert!(e.contains("--trace-bucket must be positive and finite"), "{bad}: {e}");
            let e = parse(&argv(&format!("run --checkpoint ck --checkpoint-interval {bad}")))
                .unwrap_err();
            assert!(e.contains("--checkpoint-interval must be positive and finite"), "{bad}: {e}");
        }
        // A kill count without snapshots is rejected, not silently ignored.
        let e = parse(&argv("run --kill-after-checkpoints 2")).unwrap_err();
        assert!(e.contains("only applies with --checkpoint"), "{e}");
        match parse(&argv("run --checkpoint ck --kill-after-checkpoints 2")).unwrap().command {
            Command::Run { checkpoint, kill_after_checkpoints, .. } => {
                assert_eq!(checkpoint.as_deref(), Some("ck"));
                assert_eq!(kill_after_checkpoints, Some(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dataset_aliases() {
        assert_eq!(DatasetKind::parse("supernova").unwrap(), DatasetKind::Astro);
        assert_eq!(DatasetKind::parse("tokamak").unwrap(), DatasetKind::Fusion);
        assert!(DatasetKind::parse("xyz").is_err());
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
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
        let mut cmds: Vec<&str> = USAGE
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
