//! Command implementations behind the `slrepro` binary.

use crate::args::{AlgoChoice, Command, DatasetKind, FtleSpec, ObsCheckSpec, RunSpec, TraceSpec};
use std::sync::Arc;
use streamline_core::{
    classify, latest_checkpoint, recommend, summarize, FlowKnowledge, ProblemProfile,
    Recommendation,
};
use streamline_core::{Run, RunConfig, RunError, RunOutput, SeedSource};
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_field::seeds::SeedSet;
use streamline_field::unsteady::UnsteadyDoubleGyre;
use streamline_integrate::{advect, Dopri5, StepLimits, Streamline, StreamlineId};
use streamline_iosim::{BlockStore, FaultPlan, FaultStore, FieldStore};
use streamline_math::Vec3;
use streamline_output::{csv, obj, ppm, vtk};
use streamline_pathline::ftle::ftle_grid;

fn build_dataset(kind: DatasetKind) -> Dataset {
    // CLI default: the paper's 512-block topology at laptop cell counts.
    let cfg = DatasetConfig::default();
    match kind {
        DatasetKind::Astro => Dataset::astrophysics(cfg),
        DatasetKind::Fusion => Dataset::fusion(cfg),
        DatasetKind::Thermal => Dataset::thermal_hydraulics(cfg),
    }
}

fn limits_for(kind: DatasetKind, seeding: Seeding) -> StepLimits {
    let mut l = StepLimits::default();
    match kind {
        DatasetKind::Astro => {
            l.h0 = 1e-3;
            l.h_max = 0.02;
            l.max_steps = 2_500;
            l.min_speed = 1e-4;
        }
        DatasetKind::Fusion => {
            l.h0 = 1e-2;
            l.h_max = 0.08;
            l.max_steps = 1_500;
        }
        DatasetKind::Thermal => {
            l.h0 = 1e-3;
            l.h_max = 0.01;
            l.max_steps = if seeding == Seeding::Dense { 2_500 } else { 1_000 };
            l.max_arc_length = if seeding == Seeding::Dense { 3.0 } else { 10.0 };
        }
    }
    l
}

/// The dataset, seed count and seed set `spec`'s problem flags name, as
/// `classify` and `run` both build them.
fn problem(spec: &RunSpec) -> (Dataset, usize, SeedSet) {
    let ds = build_dataset(spec.dataset);
    let n = spec.seeds.unwrap_or_else(|| ds.paper_seed_count(spec.seeding));
    let set = ds.seeds_with_count(spec.seeding, n);
    (ds, n, set)
}

/// The §3.1 profile of a problem under `cfg`'s memory model (its cache
/// size), and the §6 advisor's pick for it with the flow unknown — what
/// both `classify` and `run --algorithm auto` ask.
fn advise(ds: &Dataset, set: &SeedSet, cfg: &RunConfig) -> (ProblemProfile, Recommendation) {
    let profile = classify(ds, set, cfg);
    (profile, recommend(&profile, FlowKnowledge::Unknown))
}

/// Execute a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", crate::args::usage());
            0
        }
        Command::Info => {
            println!("datasets (512 blocks each at default config):");
            for kind in [DatasetKind::Astro, DatasetKind::Fusion, DatasetKind::Thermal] {
                let ds = build_dataset(kind);
                println!(
                    "  {:<20} blocks {:?}x{:?} cells, domain {:?} -> {:?}, paper seeds {} sparse / {} dense",
                    ds.name,
                    ds.decomp.blocks_per_axis,
                    ds.decomp.cells_per_block,
                    ds.decomp.domain.min.to_array(),
                    ds.decomp.domain.max.to_array(),
                    ds.paper_seed_count(Seeding::Sparse),
                    ds.paper_seed_count(Seeding::Dense),
                );
            }
            println!(
                "\nalgorithms: static (§4.1), lod (§4.2), hybrid (§4.3), \
                 steal (decentralized work stealing), auto (§6 advisor)"
            );
            0
        }
        Command::Classify(spec) => {
            let (ds, n, set) = problem(&spec);
            let (profile, rec) = advise(&ds, &set, &spec.cfg);
            println!(
                "problem: {} / {} / {} seeds\n  data: {:.1} GB ({} blocks)\n  fits in one rank's cache: {}\n  seed set small: {}\n  seed extent fraction: {:.3} (dense: {})\n  seeded block fraction: {:.3}",
                ds.name,
                spec.seeding.label(),
                n,
                profile.data_bytes / 1e9,
                ds.decomp.num_blocks(),
                profile.fits_in_memory,
                profile.seed_set_small,
                profile.seed_extent_fraction,
                profile.seeds_dense,
                profile.seeded_block_fraction,
            );
            println!("\nadvisor (§6, flow unknown): {} — {}", rec.algorithm.label(), rec.rationale);
            0
        }
        Command::Run(spec) => run(*spec),
        Command::ObsCheck(ObsCheckSpec { trace, metrics, ckpt }) => {
            let mut code = 0;
            let checks = [
                trace.map(|p| check_trace(&p)),
                metrics.map(|p| check_metrics(&p)),
                ckpt.map(|p| check_ckpt(&p)),
            ];
            for result in checks.into_iter().flatten() {
                match result {
                    Ok(line) => println!("{line}"),
                    Err(e) => code = fail(e),
                }
            }
            code
        }
        Command::Trace(TraceSpec { dataset, seeds, out, formats }) => {
            let ds = build_dataset(dataset);
            let set = ds.seeds_with_count(Seeding::Sparse, seeds);
            let limits = limits_for(dataset, Seeding::Sparse);
            let field = &ds.field;
            let domain = ds.decomp.domain;
            let mut sample = |p: Vec3| Some(field.eval(p));
            let region = move |p: Vec3| domain.contains(p);
            let streams: Vec<Streamline> = set
                .points
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let mut sl = Streamline::new(StreamlineId(i as u32), p, limits.h0);
                    advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
                    sl
                })
                .collect();
            let dir = std::path::Path::new(&out);
            if let Err(e) = std::fs::create_dir_all(dir) {
                return fail(format!("cannot create {out}: {e}"));
            }
            for fmt in &formats {
                let path = dir.join(format!("{}.{fmt}", ds.name));
                let res = match fmt.as_str() {
                    "vtk" => vtk::write_polylines_file(&path, &streams),
                    "obj" => obj::write_lines_file(&path, &streams),
                    "csv" => csv::write_summary_file(&path, &streams),
                    "ppm" => {
                        let d = ds.decomp.domain;
                        let mut canvas = ppm::Canvas::new(
                            800,
                            (800.0 * d.size().y / d.size().x).round().max(64.0) as usize,
                            (d.min.x, d.min.y),
                            (d.max.x, d.max.y),
                            ppm::Projection::DropZ,
                        );
                        for (i, s) in streams.iter().enumerate() {
                            canvas.draw_streamline(s, ppm::palette(i));
                        }
                        canvas.write_ppm_file(&path)
                    }
                    other => return fail(format!("unknown format '{other}' (vtk|obj|csv|ppm)")),
                };
                match res {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => return fail(format!("error writing {}: {e}", path.display())),
                }
            }
            0
        }
        Command::Ftle(FtleSpec { out, nx, ny, horizon }) => {
            let field = UnsteadyDoubleGyre::standard();
            let limits =
                StepLimits { h0: 1e-2, h_max: 0.1, max_steps: 100_000, ..Default::default() };
            eprintln!("computing {nx}x{ny} FTLE of the unsteady double gyre ...");
            let f = ftle_grid(&field, [0.0, 0.0], [2.0, 1.0], 0.0, nx, ny, 0.0, horizon, &limits);
            // Grayscale render.
            let mut canvas =
                ppm::Canvas::new(nx, ny, (0.0, 0.0), (2.0, 1.0), ppm::Projection::DropZ);
            let max = f.max_value().max(1e-9);
            for j in 0..ny {
                for i in 0..nx {
                    let v = f.get(i, j);
                    if v.is_finite() {
                        let g = ((v.max(0.0) / max) * 255.0) as u8;
                        let p = Vec3::new(
                            i as f64 / (nx - 1) as f64 * 2.0,
                            j as f64 / (ny - 1) as f64,
                            0.0,
                        );
                        canvas.plot(p, [g, g, g]);
                    }
                }
            }
            match canvas.write_ppm_file(std::path::Path::new(&out)) {
                Ok(()) => {
                    eprintln!("wrote {out} (max FTLE {:.3})", max);
                    0
                }
                Err(e) => fail(format!("error writing {out}: {e}")),
            }
        }
    }
}

/// `slrepro run`: one cell of the §5 matrix, with its run modes.
fn run(spec: RunSpec) -> i32 {
    let (ds, n, set) = problem(&spec);
    // Open-loop schedule: `--ingest-epochs` batches of dense-layout seeds
    // arriving every `--ingest-interval` virtual seconds (none: a closed
    // run). The schedule is a pure function of the flags, so a resume under
    // the same flags rebuilds it bit-exactly.
    let (n_epochs, batch) = (spec.ingest_epochs, spec.ingest_batch);
    let extra = ds.seeds_with_count(Seeding::Dense, n_epochs * batch);
    let epochs: Vec<(f64, Vec<Vec3>)> = (0..n_epochs)
        .map(|e| {
            let at = (e + 1) as f64 * spec.ingest_interval;
            (at, extra.points[e * batch..(e + 1) * batch].to_vec())
        })
        .collect();
    let source =
        SeedSource::new(&set, epochs).expect("flag validation guarantees a well-formed schedule");
    let mut cfg = spec.cfg;
    cfg.limits = limits_for(spec.dataset, spec.seeding);
    cfg.algorithm = match spec.algorithm {
        AlgoChoice::Fixed(a) => a,
        AlgoChoice::Auto => {
            let (_, rec) = advise(&ds, &set, &cfg);
            eprintln!("advisor picked {}: {}", rec.algorithm.label(), rec.rationale);
            rec.algorithm
        }
    };
    eprintln!(
        "running {} on {} / {} ({n} seeds, {} ranks) ...",
        cfg.algorithm.label(),
        ds.name,
        spec.seeding.label(),
        cfg.n_procs
    );
    if !source.is_closed() {
        eprintln!(
            "open-loop: {n_epochs} arrival epochs of {batch} seeds every {}s ({} seeds total)",
            spec.ingest_interval,
            source.total_seeds(),
        );
    }
    if let Some(rc) = &cfg.rank_chaos {
        match rc.kill {
            Some((rank, time)) => eprintln!("rank-chaos: pinned kill of rank {rank} at t={time}s"),
            None => eprintln!(
                "rank-chaos: seed {:#x}, kill prob {}, window [{}, {}]s",
                rc.seed, rc.kill_prob, rc.window.0, rc.window.1
            ),
        }
    }
    let fault_store = spec.chaos.then(|| {
        let seed = spec.chaos_seed;
        let plan = FaultPlan::random(seed, ds.decomp.num_blocks(), &spec.chaos_params)
            .expect("chaos params validated at the CLI boundary");
        eprintln!(
            "chaos: {} faulty blocks from seed {seed:#x} ({} permanently lost)",
            plan.len(),
            plan.unavailable_blocks().len(),
        );
        let inner: Arc<dyn BlockStore> = Arc::new(FieldStore::new(ds.clone()));
        Arc::new(FaultStore::new(inner, plan))
    });
    let mut run = Run::new(&ds, &cfg, source);
    if let Some(fs) = &fault_store {
        run = run.store(fs.clone());
    }
    if spec.trace.is_some() {
        run = run.trace(spec.trace_bucket);
    }
    let checkpoint_dir = spec.checkpoint.as_ref().map(|c| c.dir.display().to_string());
    if let Some(opts) = spec.checkpoint {
        run = run.checkpoint(opts);
    }
    if let Some(from) = &spec.resume {
        let mut path = std::path::PathBuf::from(from);
        if path.is_dir() {
            path = match latest_checkpoint(&path) {
                Ok(Some(p)) => p,
                Ok(None) => return fail(format!("error: no ckpt-*.ckpt files in {from}")),
                Err(e) => return fail(format!("error scanning {from}: {e}")),
            };
        }
        eprintln!("resuming from {} ...", path.display());
        run = run.resume(path);
    }
    let RunOutput {
        report,
        finished,
        timeline,
        pingpong_times,
        checkpoints,
        checkpoint_bytes,
        oracle,
    } = match run.go() {
        Ok(out) => out,
        Err(e @ RunError::Unsupported { .. }) => {
            eprintln!("error: {e}");
            return 64;
        }
        Err(RunError::BadValue { setting, value }) => {
            return crate::args::usage_error(&bad_value(setting, value))
        }
        Err(RunError::Ckpt(e)) => match &spec.resume {
            Some(from) => return fail(format!("cannot resume from {from}: {e}")),
            None => return fail(format!("checkpoint error: {e}")),
        },
        Err(RunError::Killed { checkpoints, bytes_written }) => {
            // The kill half of the crash/restart smoke test: abandoning
            // after N snapshots is the requested outcome, not a failure.
            let latest = checkpoints.last().map(|p| p.display().to_string());
            eprintln!(
                "wrote {} snapshots ({bytes_written} bytes), latest {}",
                checkpoints.len(),
                latest.unwrap_or_default()
            );
            eprintln!(
                "run abandoned after {} snapshots as requested; continue with: \
                     slrepro run ... --resume {}",
                checkpoints.len(),
                checkpoint_dir.unwrap_or_default()
            );
            return 0;
        }
    };
    if let Some(last) = checkpoints.last() {
        eprintln!(
            "wrote {} snapshots ({checkpoint_bytes} bytes), latest {}",
            checkpoints.len(),
            last.display()
        );
    }
    if let Some(fs) = &fault_store {
        eprintln!(
            "chaos: injected {} faults; {} retries, {} load failures, {} streamlines \
             terminated unavailable",
            fs.counters().faults_injected(),
            report.load_retries,
            report.load_failures,
            report.unavailable_terminations,
        );
    }
    println!("{}", report.summary());
    if report.outcome.completed() {
        print!("{}", summarize(&finished));
    }
    println!(
        "  compute {:.3}s  idle {:.3}s  imbalance {:.2}  steps {}  events {}",
        report.compute_time,
        report.idle_time,
        report.load_imbalance(),
        report.total_steps,
        report.events,
    );
    if report.ingest_epochs > 1 {
        println!(
            "  ingest    epochs {}  frontier-confirmed {}  lag mean {:.4}s  max {:.4}s",
            report.ingest_epochs,
            report.ingest_frontier_epochs,
            report.ingest_lag_mean,
            report.ingest_lag_max,
        );
    }
    if !report.rank_deaths.is_empty() {
        println!(
            "  rank-chaos  deaths {:?}  lost {}  reassigned {}  detection mean {:.4}s \
             max {:.4}s  dropped events {}",
            report.rank_deaths,
            report.rank_lost_streamlines,
            report.reassigned_streamlines,
            report.detection_latency_mean,
            report.detection_latency_max,
            report.dropped_events,
        );
    }
    if let Some(path) = &spec.json {
        if !write_out(path, serde_json::to_string_pretty(&report)) {
            return 1;
        }
    }
    if let (Some(path), Some(timeline)) = (&spec.trace, timeline) {
        let mut tf = timeline.to_trace("virtual");
        tf.schedule = Some(
            streamline_obs::ScheduleTrace::from_timeline(&timeline, &pingpong_times)
                .with_rank_deaths(&timeline, &report.rank_deaths)
                .with_ingest(
                    &timeline,
                    &report.ingest_epoch_arrivals,
                    &report.ingest_epoch_completions,
                ),
        );
        if let Err(e) = tf.validate() {
            return fail(format!("internal error: emitted trace is invalid: {e}"));
        }
        if !write_out(path, serde_json::to_string_pretty(&tf).map(|s| s + "\n")) {
            return 1;
        }
    }
    if let Some(path) = &spec.metrics {
        use streamline_obs::names::{
            CKPT_RESTORES_TOTAL, CKPT_SNAPSHOTS_TOTAL, CKPT_WRITE_BYTES_TOTAL,
        };
        let registry = report.to_registry();
        registry.set_counter(CKPT_SNAPSHOTS_TOTAL, checkpoints.len() as u64);
        registry.set_counter(CKPT_WRITE_BYTES_TOTAL, checkpoint_bytes);
        registry.set_counter(CKPT_RESTORES_TOTAL, u64::from(spec.resume.is_some()));
        oracle.record(&registry);
        if !write_out(path, Ok(registry.render_prometheus())) {
            return 1;
        }
    }
    if report.outcome.completed() {
        0
    } else {
        2
    }
}

/// A setting `Run` refused, named as the flag that set it (`trace bucket`
/// is `--trace-bucket`).
fn bad_value(setting: &str, value: f64) -> String {
    format!("--{} must be positive and finite, got {value}", setting.replace(' ', "-"))
}

/// Say `msg` on stderr; exit code 1.
fn fail(msg: String) -> i32 {
    eprintln!("{msg}");
    1
}

/// Write serialized `text` to `path`, saying on stderr what happened;
/// false on failure.
fn write_out(path: &str, text: Result<String, serde_json::Error>) -> bool {
    let res = text
        .map_err(|e| format!("serialization error: {e}"))
        .and_then(|t| std::fs::write(path, t).map_err(|e| format!("error writing {path}: {e}")));
    match &res {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("{e}"),
    }
    res.is_ok()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn check_trace(path: &str) -> Result<String, String> {
    let tf: streamline_obs::TraceFile =
        serde_json::from_str(&read(path)?).map_err(|e| format!("{path}: not trace JSON: {e}"))?;
    tf.validate().map_err(|e| format!("{path}: invalid trace: {e}"))?;
    let t = &tf.totals;
    Ok(format!(
        "{path}: valid {} trace, {} ranks, {} buckets of {}s \
         (compute {:.3}s io {:.3}s comm {:.3}s idle {:.3}s)",
        tf.clock,
        tf.n_ranks,
        tf.ranks.first().map(|r| r.buckets.len()).unwrap_or(0),
        tf.bucket_width,
        t.compute,
        t.io,
        t.comm,
        t.idle,
    ))
}

fn check_metrics(path: &str) -> Result<String, String> {
    let samples = streamline_obs::prom::parse_text(&read(path)?)
        .map_err(|e| format!("{path}: invalid Prometheus text: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{path}: no metric samples"));
    }
    check_oracle_books(&samples).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: valid Prometheus text, {} samples", samples.len()))
}

/// A run's segment oracle accounts for every lane the ranks committed:
/// each was a helper segment (a hit or a wait) or computed inline. A
/// resumed run's lane count includes the lanes committed before its
/// snapshot, which its oracle never saw, so it is not checked.
fn check_oracle_books(samples: &std::collections::BTreeMap<String, f64>) -> Result<(), String> {
    use streamline_obs::names::{
        CKPT_RESTORES_TOTAL, HOST_ORACLE_HITS_TOTAL, HOST_ORACLE_INLINE_SEGMENTS_TOTAL,
        HOST_ORACLE_WAITS_TOTAL, RUN_BATCHED_LANES_TOTAL,
    };
    let get = |name: &str| samples.get(name).copied();
    if get(CKPT_RESTORES_TOTAL).is_some_and(|n| n > 0.0) {
        return Ok(());
    }
    let (Some(hits), Some(waits), Some(inline), Some(lanes)) = (
        get(HOST_ORACLE_HITS_TOTAL),
        get(HOST_ORACLE_WAITS_TOTAL),
        get(HOST_ORACLE_INLINE_SEGMENTS_TOTAL),
        get(RUN_BATCHED_LANES_TOTAL),
    ) else {
        return Ok(());
    };
    if hits + waits + inline != lanes {
        return Err(format!(
            "oracle books {hits} hits + {waits} waits + {inline} inline segments, \
             but the ranks committed {lanes} lanes"
        ));
    }
    Ok(())
}

fn check_ckpt(path: &str) -> Result<String, String> {
    let summary = streamline_ckpt::validate(std::path::Path::new(path))
        .map_err(|e| format!("{path}: invalid checkpoint: {e}"))?;
    let m = &summary.meta;
    Ok(format!(
        "{path}: valid {} checkpoint #{} ({} on {}, {} ranks, {} seeds, \
         taken at t={:.6}s), {} sections, {} bytes, all CRCs good",
        m.kind,
        m.snapshot_seq,
        m.algorithm,
        m.dataset,
        m.n_procs,
        m.n_seeds,
        m.taken_at,
        summary.sections.len(),
        summary.file_bytes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_core::Algorithm;

    /// Parse `args` as the binary would; paths may hold spaces.
    fn cmd(args: &[&str]) -> Command {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        crate::args::parse(&args).unwrap().command
    }

    fn obs_check(flag: &str, path: &str) -> i32 {
        execute(cmd(&["obs-check", flag, path]))
    }

    /// The algorithm `command` (`run` or `classify`) would have the advisor
    /// pick from `flags`.
    fn pick(command: &str, flags: &str) -> Algorithm {
        let args = format!("{command} {flags}");
        let (Command::Run(spec) | Command::Classify(spec)) =
            cmd(&args.split_whitespace().collect::<Vec<_>>())
        else {
            unreachable!("{command} is a run or classify command")
        };
        let (ds, _, set) = problem(&spec);
        advise(&ds, &set, &spec.cfg).1.algorithm
    }

    /// `classify` and `run --algorithm auto` read the same flags, `--cache`
    /// and its default included, so they recommend the same driver.
    #[test]
    fn classify_and_auto_run_pick_the_same_algorithm() {
        for flags in [
            "",
            "--dataset thermal --seeds 50",
            "--dataset thermal --seeds 50 --cache 512",
            "--dataset astro --seeding dense --seeds 400 --cache 8",
            "--dataset fusion --seeds 2000 --cache 600",
        ] {
            assert_eq!(pick("classify", flags), pick("run", flags), "flags '{flags}'");
        }
        // The whole dataset fits a 512-block cache: load on demand.
        assert_eq!(
            pick("classify", "--dataset thermal --seeds 50 --cache 512"),
            Algorithm::LoadOnDemand
        );
    }

    /// `Run` validates the trace bucket and snapshot interval; the CLI names
    /// the flag in its usage error.
    #[test]
    fn run_refusals_name_the_flag() {
        let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
        let seeds = ds.seeds_with_count(Seeding::Sparse, 4);
        let cfg = RunConfig::new(Algorithm::LoadOnDemand, 2);
        let refused = [
            Run::new(&ds, &cfg, &seeds).trace(0.0).go(),
            Run::new(&ds, &cfg, &seeds)
                .checkpoint(streamline_core::CheckpointOptions::new("ck", f64::NAN))
                .go(),
        ];
        let texts: Vec<String> = refused
            .into_iter()
            .map(|r| match r {
                Err(RunError::BadValue { setting, value }) => bad_value(setting, value),
                _ => panic!("expected a refused value"),
            })
            .collect();
        assert_eq!(
            texts,
            [
                "--trace-bucket must be positive and finite, got 0",
                "--checkpoint-interval must be positive and finite, got NaN"
            ]
        );
    }

    #[test]
    fn limits_vary_by_dataset() {
        let a = limits_for(DatasetKind::Astro, Seeding::Sparse);
        let t = limits_for(DatasetKind::Thermal, Seeding::Dense);
        assert!(a.h_max > t.h_max);
        assert!(t.max_arc_length < f64::INFINITY);
    }

    #[test]
    fn datasets_build() {
        for kind in [DatasetKind::Astro, DatasetKind::Fusion, DatasetKind::Thermal] {
            let ds = build_dataset(kind);
            assert_eq!(ds.decomp.num_blocks(), 512);
        }
    }

    #[test]
    fn help_and_info_succeed() {
        assert_eq!(execute(cmd(&["help"])), 0);
        assert_eq!(execute(cmd(&["info"])), 0);
    }

    /// A small thermal run on four ranks, plus `extra` flags.
    fn small_run(algorithm: &str, extra: &[&str]) -> Command {
        let base =
            ["run", "--algorithm", algorithm, "--procs", "4", "--seeds", "32", "--cache", "16"];
        cmd(&[&base[..], extra].concat())
    }

    #[test]
    fn run_small_completes() {
        assert_eq!(execute(small_run("lod", &[])), 0);
    }

    #[test]
    fn run_kill_and_resume_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("slrepro-ckpt-{}", std::process::id()));
        let ckpt_dir = dir.join("ckpts").to_string_lossy().into_owned();
        let interval = ["--checkpoint-interval", "0.0002"];
        // Kill after two snapshots: exit 0 (the requested outcome),
        // checkpoints on disk.
        let kill = [&interval[..], &["--checkpoint", &ckpt_dir, "--kill-after-checkpoints", "2"]];
        assert_eq!(execute(small_run("hybrid", &kill.concat())), 0);
        let latest = streamline_core::latest_checkpoint(std::path::Path::new(&ckpt_dir))
            .unwrap()
            .expect("kill wrote snapshots");
        // The snapshot passes obs-check --ckpt.
        let check = obs_check("--ckpt", &latest.to_string_lossy());
        assert_eq!(check, 0, "obs-check must accept what run --checkpoint emits");
        // Resume from the directory (latest snapshot) and complete.
        let resume = [&interval[..], &["--resume", &ckpt_dir]].concat();
        assert_eq!(execute(small_run("hybrid", &resume)), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_trace_emits_files_that_obs_check_accepts() {
        let dir = std::env::temp_dir().join(format!("slrepro-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let code = execute(small_run("lod", &["--trace", &trace_path, "--metrics", &metrics_path]));
        assert_eq!(code, 0);
        let check =
            execute(cmd(&["obs-check", "--trace", &trace_path, "--metrics", &metrics_path]));
        assert_eq!(check, 0, "obs-check must accept what run emits");
        // The oracle's host-side books are exported, and obs-check holds
        // them to the lanes the ranks committed.
        use streamline_obs::names::*;
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        let samples = streamline_obs::prom::parse_text(&prom).unwrap();
        for name in [
            HOST_ORACLE_HELPER_SEGMENTS_TOTAL,
            HOST_ORACLE_INLINE_SEGMENTS_TOTAL,
            HOST_ORACLE_HITS_TOTAL,
            HOST_ORACLE_WAITS_TOTAL,
            HOST_ORACLE_WASTED_SEGMENTS_TOTAL,
            HOST_ORACLE_BATCH_OCCUPANCY,
            HOST_ORACLE_PEAK_OUTSTANDING_BYTES,
        ] {
            assert!(samples.contains_key(name), "{name} missing from {prom}");
        }
        let inline = format!("{HOST_ORACLE_INLINE_SEGMENTS_TOTAL} ");
        let line = prom.lines().find(|l| l.starts_with(&inline)).expect("inline count line");
        let n: u64 = line[inline.len()..].trim().parse().unwrap();
        let tampered = prom.replace(line, &format!("{inline}{}", n + 1));
        std::fs::write(&metrics_path, tampered).unwrap();
        assert_eq!(obs_check("--metrics", &metrics_path), 1, "a lane off the books is caught");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_rank_chaos_reports_faults_and_validates_obs() {
        let dir = std::env::temp_dir().join(format!("slrepro-rankchaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let flags = ["--rank-chaos", "--rank-kill", "3@0.0001", "--trace", &trace_path];
        let code = execute(small_run("lod", &[&flags[..], &["--metrics", &metrics_path]].concat()));
        assert_eq!(code, 0, "a killed slave rank must not fail the run");
        // The death shows up in the Prometheus export and the trace still
        // passes obs-check.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("streamline_faults_rank_deaths_total 1"), "{prom}");
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace_text.contains("rank_deaths"), "trace carries the death series");
        let check =
            execute(cmd(&["obs-check", "--trace", &trace_path, "--metrics", &metrics_path]));
        assert_eq!(check, 0, "obs-check must accept what a rank-chaos run emits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An open-loop run: two arrival epochs of eight seeds, plus `extra`.
    fn open_run(extra: &[&str]) -> Command {
        let ingest = ["--ingest-epochs", "2", "--ingest-interval", "0.0002", "--ingest-batch", "8"];
        small_run("lod", &[&ingest[..], extra].concat())
    }

    #[test]
    fn open_loop_run_emits_frontier_obs_that_obs_check_accepts() {
        let dir = std::env::temp_dir().join(format!("slrepro-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let code = execute(open_run(&["--trace", &trace_path, "--metrics", &metrics_path]));
        assert_eq!(code, 0, "an open-loop run must complete");
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("streamline_run_ingest_epochs 3"), "{prom}");
        assert!(prom.contains("streamline_run_frontier_epochs 3"), "{prom}");
        assert!(prom.contains("streamline_run_frontier_lag_mean_seconds"), "{prom}");
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            trace_text.contains("ingest_epochs_cumulative"),
            "trace carries the ingest staircase"
        );
        assert!(
            trace_text.contains("frontier_epochs_cumulative"),
            "trace carries the frontier staircase"
        );
        let check =
            execute(cmd(&["obs-check", "--trace", &trace_path, "--metrics", &metrics_path]));
        assert_eq!(check, 0, "obs-check must accept what an open-loop run emits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_loop_kill_and_resume_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("slrepro-openckpt-{}", std::process::id()));
        let ckpt_dir = dir.join("ckpts").to_string_lossy().into_owned();
        let interval = ["--checkpoint-interval", "0.0002"];
        let kill = [&interval[..], &["--checkpoint", &ckpt_dir, "--kill-after-checkpoints", "2"]];
        assert_eq!(execute(open_run(&kill.concat())), 0);
        let latest = streamline_core::latest_checkpoint(std::path::Path::new(&ckpt_dir))
            .unwrap()
            .expect("kill wrote snapshots");
        let check = obs_check("--ckpt", &latest.to_string_lossy());
        assert_eq!(check, 0, "obs-check must accept an open-loop snapshot");
        // Resume with the same ingest flags and complete.
        assert_eq!(execute(open_run(&[&interval[..], &["--resume", &ckpt_dir]].concat())), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_check_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("slrepro-obsbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json").to_string_lossy().into_owned();
        std::fs::write(&bad, "{\"schema\": \"nope\"}").unwrap();
        assert_eq!(obs_check("--trace", &bad), 1);
        assert_eq!(obs_check("--metrics", "/nonexistent/x"), 1);
        // A truncated/garbage checkpoint is rejected, never a panic.
        let bad_ckpt = dir.join("bad.ckpt").to_string_lossy().into_owned();
        std::fs::write(&bad_ckpt, b"not a checkpoint").unwrap();
        assert_eq!(obs_check("--ckpt", &bad_ckpt), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
