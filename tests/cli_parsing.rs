//! CLI behaviour through the library interface (parsing + cheap commands).

use streamline_cli::args::parse;
use streamline_cli::commands::execute;
use streamline_repro::iosim::testutil::TempDir;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn info_and_help_have_zero_exit() {
    assert_eq!(execute(parse(&argv("info")).unwrap().command), 0);
    assert_eq!(execute(parse(&argv("help")).unwrap().command), 0);
}

#[test]
fn classify_runs_on_every_dataset_alias() {
    for ds in ["astro", "supernova", "fusion", "tokamak", "thermal"] {
        let cli = parse(&argv(&format!("classify --dataset {ds} --seeds 50"))).unwrap();
        assert_eq!(execute(cli.command), 0, "{ds}");
    }
}

#[test]
fn run_writes_json_report() {
    let dir = TempDir::new("slrepro-test");
    let path = dir.join("report.json");
    let cli = parse(&argv(&format!(
        "run --dataset thermal --algorithm lod --procs 4 --seeds 24 --cache 8 --json {}",
        path.display()
    )))
    .unwrap();
    assert_eq!(execute(cli.command), 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v["terminated"], 24);
    assert_eq!(v["algorithm"], "LoadOnDemand");
}

#[test]
fn trace_produces_requested_formats() {
    let tmp = TempDir::new("slrepro-trace");
    let dir = tmp.join("out");
    let cli = parse(&argv(&format!(
        "trace --dataset thermal --seeds 8 --out {} --formats vtk,csv",
        dir.display()
    )))
    .unwrap();
    assert_eq!(execute(cli.command), 0);
    assert!(dir.join("thermal-hydraulics.vtk").exists());
    assert!(dir.join("thermal-hydraulics.csv").exists());
    assert!(!dir.join("thermal-hydraulics.obj").exists());
}

#[test]
fn bad_input_is_rejected_not_panicking() {
    assert!(parse(&argv("run --procs NaN")).is_err());
    assert!(parse(&argv("trace --seeds -3")).is_err());
    assert!(parse(&argv("nonsense")).is_err());
}

#[test]
fn steal_run_round_trips_through_json_report() {
    let dir = TempDir::new("slrepro-steal");
    let path = dir.join("report.json");
    let cli = parse(&argv(&format!(
        "run --dataset thermal --algorithm steal --procs 4 --seeds 24 --cache 8 \
         --neighbors 2 --diffusion-period 0.005 --steal-batch 4 --json {}",
        path.display()
    )))
    .unwrap();
    assert_eq!(execute(cli.command), 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v["terminated"], 24);
    assert_eq!(v["algorithm"], "WorkStealing");
    // The scheduling diagnostics made it into the report JSON.
    assert!(v["pingpong_streamlines"].as_u64().is_some(), "{text}");
    assert!(v["balance_msgs"].as_u64().unwrap() > 0, "{text}");
    assert!(v["balance_bytes"].as_u64().unwrap() > 0, "{text}");
}

#[test]
fn steal_knob_misuse_is_a_parse_error_not_a_panic() {
    // Knobs without the steal driver.
    assert!(parse(&argv("run --algorithm static --neighbors 2")).is_err());
    assert!(parse(&argv("run --algorithm hybrid --diffusion-period 0.01")).is_err());
    assert!(parse(&argv("run --steal-batch 8")).is_err());
    // Invalid knob values with the right driver.
    assert!(parse(&argv("run --algorithm steal --neighbors 0")).is_err());
    assert!(parse(&argv("run --algorithm steal --steal-batch 0")).is_err());
    assert!(parse(&argv("run --algorithm steal --diffusion-period 0")).is_err());
    assert!(parse(&argv("run --algorithm steal --diffusion-period inf")).is_err());
}

#[test]
fn steal_chaos_run_completes_with_exact_accounting() {
    let dir = TempDir::new("slrepro-steal-chaos");
    let path = dir.join("report.json");
    let cli = parse(&argv(&format!(
        "run --dataset thermal --algorithm steal --procs 4 --seeds 24 --cache 8 \
         --chaos --chaos-seed 7 --json {}",
        path.display()
    )))
    .unwrap();
    assert_eq!(execute(cli.command), 0);
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    // Masterless: every seed retires on some rank even when the plan bites.
    assert_eq!(v["terminated"], 24);
}

#[test]
fn steal_trace_emits_schedule_series_that_obs_check_accepts() {
    let dir = TempDir::new("slrepro-steal-trace");
    let path = dir.join("trace.json");
    let cli = parse(&argv(&format!(
        "run --dataset thermal --algorithm steal --procs 4 --seeds 24 --cache 8 --trace {}",
        path.display()
    )))
    .unwrap();
    assert_eq!(execute(cli.command), 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let sched = &v["schedule"];
    assert!(sched["participation"].as_array().is_some(), "{text}");
    assert!(sched["pingpong_cumulative"].as_array().is_some(), "{text}");
    assert!(sched["shares"]["comm"].as_f64().is_some(), "{text}");
    // The emitted file passes the observability gate.
    assert_eq!(
        execute(parse(&argv(&format!("obs-check --trace {}", path.display()))).unwrap().command),
        0
    );
}

#[test]
fn run_flag_conflicts_are_usage_errors() {
    let run =
        |s: &str| execute(parse(&argv(&format!("run --seeds 8 --procs 2 {s}"))).unwrap().command);
    assert_eq!(run("--trace t.json --checkpoint ck"), 64);
    assert_eq!(run("--trace t.json --resume ck"), 64);
    assert_eq!(run("--checkpoint ck --resume ck"), 64);
}

/// `--chaos` is a store choice, so it composes with every run mode: a
/// traced chaos run emits a valid trace, and a chaos run killed after two
/// snapshots resumes to the uninterrupted chaos run's report byte for byte.
#[test]
fn chaos_composes_with_trace_checkpoint_and_resume() {
    let dir = TempDir::new("slrepro-chaos-modes");
    let run = |s: String| {
        let base = "run --dataset thermal --algorithm lod --procs 4 --seeds 24 --cache 8 \
                    --chaos --chaos-seed 7";
        execute(parse(&argv(&format!("{base} {s}"))).unwrap().command)
    };
    let trace = dir.join("trace.json");
    assert_eq!(run(format!("--trace {}", trace.display())), 0);
    let check = format!("obs-check --trace {}", trace.display());
    assert_eq!(execute(parse(&argv(&check)).unwrap().command), 0);

    let reference = dir.join("ref.json");
    assert_eq!(run(format!("--json {}", reference.display())), 0);
    let ckpts = dir.join("ckpts");
    let kill = format!(
        "--checkpoint {} --checkpoint-interval 0.001 --kill-after-checkpoints 2",
        ckpts.display()
    );
    assert_eq!(run(kill), 0);
    let resumed = dir.join("resumed.json");
    assert_eq!(run(format!("--resume {} --json {}", ckpts.display(), resumed.display())), 0);
    assert_eq!(std::fs::read(&resumed).unwrap(), std::fs::read(&reference).unwrap());
}
