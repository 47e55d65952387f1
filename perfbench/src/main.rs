//! The repository benchmark: one run of one workload, measured end to end
//! (`--trace 0`) or attributed to layers (`--trace 1`).
//!
//! ```text
//! perfbench --workload <batch-sparse|batch-dense|serve-zipf|cluster-zipf|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`. Every run checks its answers; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero when
//! a correctness gate failed. `--workload all` runs every workload, each in
//! its own process. The line before the result records the host.

mod batch;
mod probe;
mod serving;

use probe::Metrics;
use std::process::{Command, ExitCode};

/// What one workload run measured and whether its answers were right.
pub struct RunResult {
    pub correct: bool,
    /// Operations attempted: seeds per driver run, or requests sent.
    pub attempted: u64,
    /// Operations that did not complete normally.
    pub failed: u64,
    pub metrics: Metrics,
}

const WORKLOADS: [&str; 4] = ["batch-sparse", "batch-dense", "serve-zipf", "cluster-zipf"];

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("streamlines_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports. A layer a workload does
/// not run reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = [
        ("field.block_build_s", "s"),
        ("field.sampler_hit_rate", "ratio"),
        ("iosim.store_build_s", "s"),
        ("iosim.loads", "count"),
        ("iosim.load_wait_s", "s"),
        ("integrate.replay_s", "s"),
        ("integrate.ns_per_step", "ns"),
        ("integrate.steps", "count"),
        ("integrate.batch_occupancy", "ratio"),
        ("serve.submit_us_p50", "us"),
        ("serve.service_latency_p50_ms", "ms"),
        ("serve.generator_lag_p99_ms", "ms"),
        ("serve.queue_depth_max", "count"),
        ("serve.cache_hit_rate", "ratio"),
        ("serve.batched_lanes", "count"),
        ("serve.steps", "count"),
        ("cluster.handoffs", "count"),
        ("cluster.handoff_bytes", "B"),
        ("cluster.hot_local_hits", "count"),
        ("cluster.replica_imbalance", "ratio"),
        ("cluster.cache_hit_rate", "ratio"),
        ("bench.trace_overhead_frac", "ratio"),
    ];
    let per_driver = [
        ("core", "host_s", "s"),
        ("core", "overhead_s", "s"),
        ("core", "msgs", "count"),
        ("core", "bytes_sent", "B"),
        ("core", "blocks_loaded", "count"),
        ("core", "block_efficiency", "ratio"),
        ("core", "batch_occupancy", "ratio"),
        ("core", "pingpong_streamlines", "count"),
        ("core", "share.io", "ratio"),
        ("core", "share.comm", "ratio"),
        ("core", "share.compute", "ratio"),
        ("core", "share.idle", "ratio"),
        ("desim", "events", "count"),
        ("desim", "events_per_s", "1/s"),
        ("desim", "sim_wall_s", "sim_s"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (driver, _) in batch::DRIVERS {
        for (layer, metric, unit) in per_driver {
            out.push((format!("{layer}.{driver}.{metric}"), unit));
        }
    }
    out
}

/// `measured` over the whole catalog, unmeasured names at 0. Panics on a
/// name or unit the catalog does not list — a bug in this benchmark.
fn complete(measured: &Metrics, catalog: &[(String, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in catalog {
        out.set(name.as_str(), 0.0, unit);
    }
    for (name, value, unit) in measured.iter() {
        assert!(
            catalog.iter().any(|(n, u)| n == name && *u == unit),
            "metric {name} [{unit}] is not in the catalog"
        );
        out.set(name, value, unit);
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> RunResult {
    match name {
        "batch-sparse" => batch::run(&batch::SPARSE, seed, traced),
        "batch-dense" => batch::run(&batch::DENSE, seed, traced),
        "serve-zipf" => serving::run(&serving::SINGLE, seed, seconds, traced),
        "cluster-zipf" => serving::run(&serving::CLUSTER, seed, seconds, traced),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// CPU model, the SIMD kernel the field layer dispatched to, core count
/// and compiler: what a number from this run must be read against.
fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, model)| model.trim());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    format!(
        "{{\"host\": {{\"cpu\": {}, \"simd_isa\": {}, \"nproc\": {nproc}, \"rustc\": {}}}}}",
        json_str(cpu),
        json_str(streamline_field::simd_isa()),
        json_str(&rustc)
    )
}

/// Every workload, each in its own process; their metric tables go to
/// standard error. Fails when any workload fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for name in WORKLOADS {
        eprintln!("[perfbench] === {name} ===");
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let passed = match out {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                o.status.success()
            }
            Err(e) => {
                eprintln!("[perfbench] could not start {name}: {e}");
                false
            }
        };
        eprintln!("[perfbench] {name}: {}", if passed { "passed" } else { "FAILED" });
        ok &= passed;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let result = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    let metrics = if args.trace {
        complete(&result.metrics, &per_layer())
    } else {
        let mut measured = result.metrics;
        measured.set("peak_rss_mb", probe::peak_rss_mb(), "MB");
        let catalog: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        assert_eq!(measured.iter().count(), catalog.len(), "every end-to-end metric is measured");
        complete(&measured, &catalog)
    };
    for (name, value, unit) in metrics.iter() {
        eprintln!("[perfbench] {:<32} {value:>16.6} {unit}", name);
    }
    println!("{}", host_fingerprint());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.to_json()
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("[perfbench] {}: correctness gate FAILED", args.workload);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = spec.find(&format!("\"{section}\"")).expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let mut want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let mut got = names("end_to_end");
        want.sort();
        got.sort();
        assert_eq!(got, want);
        let mut want: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let mut got = names("per_layer");
        want.sort();
        got.sort();
        assert_eq!(got, want);
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
