//! Command implementations behind the `slrepro` binary.

use crate::args::{AlgoChoice, Command, DatasetKind};
use streamline_core::{classify, recommend, summarize, Algorithm, FlowKnowledge, Run, RunConfig};
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_field::unsteady::UnsteadyDoubleGyre;
use streamline_integrate::{advect, Dopri5, StepLimits, Streamline, StreamlineId};
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

/// Execute a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", crate::args::USAGE);
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
        Command::Classify { dataset, seeding, seeds } => {
            let ds = build_dataset(dataset);
            let n = seeds.unwrap_or_else(|| ds.paper_seed_count(seeding));
            let set = ds.seeds_with_count(seeding, n);
            let cfg = RunConfig::new(Algorithm::HybridMasterSlave, 64);
            let profile = classify(&ds, &set, &cfg);
            println!(
                "problem: {} / {} / {} seeds\n  data: {:.1} GB ({} blocks)\n  fits in one rank's cache: {}\n  seed set small: {}\n  seed extent fraction: {:.3} (dense: {})\n  seeded block fraction: {:.3}",
                ds.name,
                seeding.label(),
                n,
                profile.data_bytes / 1e9,
                ds.decomp.num_blocks(),
                profile.fits_in_memory,
                profile.seed_set_small,
                profile.seed_extent_fraction,
                profile.seeds_dense,
                profile.seeded_block_fraction,
            );
            let rec = recommend(&profile, FlowKnowledge::Unknown);
            println!("\nadvisor (§6, flow unknown): {} — {}", rec.algorithm.label(), rec.rationale);
            0
        }
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
            use std::sync::Arc;
            use streamline_core::{
                latest_checkpoint, CheckpointOptions, RunError, RunOutput, SeedSource,
            };
            use streamline_iosim::{BlockStore, FaultPlan, FaultStore, FieldStore};
            // Parsing already validates the knobs; re-check here so
            // programmatic construction cannot smuggle bad values past the
            // typed error into a driver panic.
            if let Err(e) = steal.validate() {
                eprintln!("error: {e}");
                return 64;
            }
            if let Err(e) = batch.validate() {
                eprintln!("error: {e}");
                return 64;
            }
            if let Err(e) = chaos_params.validate() {
                eprintln!("error: {e}");
                return 64;
            }
            if let Some(rc) = &rank_chaos {
                if let Err(e) = rc.validate() {
                    eprintln!("error: {e}");
                    return 64;
                }
            }
            let ds = build_dataset(dataset);
            let n = seeds.unwrap_or_else(|| ds.paper_seed_count(seeding));
            let set = ds.seeds_with_count(seeding, n);
            // Open-loop schedule: `--ingest-epochs` batches of dense-layout
            // seeds arriving every `--ingest-interval` virtual seconds (none:
            // a closed run). The schedule is a pure function of the flags,
            // so a resume under the same flags rebuilds it bit-exactly.
            let extra = ds.seeds_with_count(Seeding::Dense, ingest_epochs * ingest_batch);
            let epochs: Vec<(f64, Vec<Vec3>)> = (0..ingest_epochs)
                .map(|e| {
                    let at = (e + 1) as f64 * ingest_interval;
                    (at, extra.points[e * ingest_batch..(e + 1) * ingest_batch].to_vec())
                })
                .collect();
            let source = SeedSource::new(&set, epochs)
                .expect("flag validation guarantees a well-formed schedule");
            let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, procs);
            cfg.limits = limits_for(dataset, seeding);
            cfg.cache_blocks = cache;
            cfg.steal = *steal;
            cfg.batch = batch;
            cfg.rank_chaos = rank_chaos.map(|rc| *rc);
            cfg.detector = detector;
            cfg.algorithm = match algorithm {
                AlgoChoice::Fixed(a) => a,
                AlgoChoice::Auto => {
                    let rec = recommend(&classify(&ds, &set, &cfg), FlowKnowledge::Unknown);
                    eprintln!("advisor picked {}: {}", rec.algorithm.label(), rec.rationale);
                    rec.algorithm
                }
            };
            eprintln!(
                "running {} on {} / {} ({} seeds, {} ranks) ...",
                cfg.algorithm.label(),
                ds.name,
                seeding.label(),
                n,
                procs
            );
            if !source.is_closed() {
                eprintln!(
                    "open-loop: {} arrival epochs of {ingest_batch} seeds every \
                     {ingest_interval}s ({} seeds total), {:?} detector",
                    ingest_epochs,
                    source.total_seeds(),
                    cfg.detector,
                );
            }
            if let Some(rc) = &cfg.rank_chaos {
                match rc.kill {
                    Some((rank, time)) => {
                        eprintln!("rank-chaos: pinned kill of rank {rank} at t={time}s")
                    }
                    None => eprintln!(
                        "rank-chaos: seed {:#x}, kill prob {}, window [{}, {}]s",
                        rc.seed, rc.kill_prob, rc.window.0, rc.window.1
                    ),
                }
            }
            let fault_store = chaos.then(|| {
                let plan = FaultPlan::random(chaos_seed, ds.decomp.num_blocks(), &chaos_params)
                    .expect("chaos params validated at the CLI boundary");
                eprintln!(
                    "chaos: {} faulty blocks from seed {chaos_seed:#x} ({} permanently lost)",
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
            if trace.is_some() {
                run = run.trace(trace_bucket);
            }
            if let Some(dir) = &checkpoint {
                run = run.checkpoint(CheckpointOptions {
                    kill_after: kill_after_checkpoints,
                    ..CheckpointOptions::new(dir, checkpoint_interval)
                });
            }
            if let Some(from) = &resume {
                let given = std::path::PathBuf::from(from);
                let path = if given.is_dir() {
                    match latest_checkpoint(&given) {
                        Ok(Some(p)) => p,
                        Ok(None) => {
                            eprintln!("error: no ckpt-*.ckpt files in {from}");
                            return 1;
                        }
                        Err(e) => {
                            eprintln!("error scanning {from}: {e}");
                            return 1;
                        }
                    }
                } else {
                    given
                };
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
            } = match run.go() {
                Ok(out) => out,
                Err(e @ (RunError::Unsupported { .. } | RunError::BadValue { .. })) => {
                    eprintln!("error: {e}");
                    return 64;
                }
                Err(RunError::Ckpt(e)) => {
                    match &resume {
                        Some(from) => eprintln!("cannot resume from {from}: {e}"),
                        None => eprintln!("checkpoint error: {e}"),
                    }
                    return 1;
                }
                Err(RunError::Killed { checkpoints, bytes_written }) => {
                    // The kill half of the crash/restart smoke test:
                    // abandoning after N snapshots is the requested outcome,
                    // not a failure.
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
                        checkpoint.unwrap_or_default()
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
                let c = fs.counters();
                eprintln!(
                    "chaos: injected {} faults; {} retries, {} load failures, {} streamlines \
                     terminated unavailable",
                    c.faults_injected(),
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
            if let Some(path) = json {
                match serde_json::to_string_pretty(&report) {
                    Ok(s) => {
                        if let Err(e) = std::fs::write(&path, s) {
                            eprintln!("error writing {path}: {e}");
                            return 1;
                        }
                        eprintln!("wrote {path}");
                    }
                    Err(e) => {
                        eprintln!("serialization error: {e}");
                        return 1;
                    }
                }
            }
            if let (Some(path), Some(timeline)) = (trace, timeline) {
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
                    eprintln!("internal error: emitted trace is invalid: {e}");
                    return 1;
                }
                match serde_json::to_string_pretty(&tf) {
                    Ok(s) => {
                        if let Err(e) = std::fs::write(&path, s + "\n") {
                            eprintln!("error writing {path}: {e}");
                            return 1;
                        }
                        eprintln!("wrote {path}");
                    }
                    Err(e) => {
                        eprintln!("serialization error: {e}");
                        return 1;
                    }
                }
            }
            if let Some(path) = metrics {
                let registry = report.to_registry();
                registry.set_counter(
                    streamline_obs::names::CKPT_SNAPSHOTS_TOTAL,
                    checkpoints.len() as u64,
                );
                registry
                    .set_counter(streamline_obs::names::CKPT_WRITE_BYTES_TOTAL, checkpoint_bytes);
                registry.set_counter(
                    streamline_obs::names::CKPT_RESTORES_TOTAL,
                    u64::from(resume.is_some()),
                );
                let text = registry.render_prometheus();
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("error writing {path}: {e}");
                    return 1;
                }
                eprintln!("wrote {path}");
            }
            if report.outcome.completed() {
                0
            } else {
                2
            }
        }
        Command::ObsCheck { trace, metrics, ckpt } => {
            let mut ok = true;
            if let Some(path) = trace {
                match std::fs::read_to_string(&path) {
                    Ok(text) => match serde_json::from_str::<streamline_obs::TraceFile>(&text) {
                        Ok(tf) => match tf.validate() {
                            Ok(()) => {
                                let t = &tf.totals;
                                println!(
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
                                );
                            }
                            Err(e) => {
                                eprintln!("{path}: invalid trace: {e}");
                                ok = false;
                            }
                        },
                        Err(e) => {
                            eprintln!("{path}: not trace JSON: {e}");
                            ok = false;
                        }
                    },
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        ok = false;
                    }
                }
            }
            if let Some(path) = metrics {
                match std::fs::read_to_string(&path) {
                    Ok(text) => match streamline_obs::prom::parse_text(&text) {
                        Ok(samples) if samples.is_empty() => {
                            eprintln!("{path}: no metric samples");
                            ok = false;
                        }
                        Ok(samples) => {
                            println!("{path}: valid Prometheus text, {} samples", samples.len());
                        }
                        Err(e) => {
                            eprintln!("{path}: invalid Prometheus text: {e}");
                            ok = false;
                        }
                    },
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        ok = false;
                    }
                }
            }
            if let Some(path) = ckpt {
                match streamline_ckpt::validate(std::path::Path::new(&path)) {
                    Ok(summary) => {
                        let m = &summary.meta;
                        println!(
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
                        );
                    }
                    Err(e) => {
                        eprintln!("{path}: invalid checkpoint: {e}");
                        ok = false;
                    }
                }
            }
            if ok {
                0
            } else {
                1
            }
        }
        Command::Trace { dataset, seeds, out, formats } => {
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
                eprintln!("cannot create {out}: {e}");
                return 1;
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
                    other => {
                        eprintln!("unknown format '{other}' (vtk|obj|csv|ppm)");
                        return 1;
                    }
                };
                match res {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing {}: {e}", path.display());
                        return 1;
                    }
                }
            }
            0
        }
        Command::Ftle { out, nx, ny, horizon } => {
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
                Err(e) => {
                    eprintln!("error writing {out}: {e}");
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_core::BatchParams;

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
        assert_eq!(execute(Command::Help), 0);
        assert_eq!(execute(Command::Info), 0);
    }

    #[test]
    fn run_small_completes() {
        let code = execute(Command::Run {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Fixed(Algorithm::LoadOnDemand),
            procs: 4,
            seeds: Some(32),
            cache: 16,
            steal: Box::default(),
            batch: BatchParams::default(),
            chaos: false,
            chaos_seed: 0,
            chaos_params: Box::default(),
            rank_chaos: None,
            ingest_epochs: 0,
            ingest_interval: 2.0e-4,
            ingest_batch: 32,
            detector: streamline_core::DetectorKind::ClosedSet,
            json: None,
            trace: None,
            trace_bucket: 0.05,
            metrics: None,
            checkpoint: None,
            checkpoint_interval: 0.1,
            kill_after_checkpoints: None,
            resume: None,
        });
        assert_eq!(code, 0);
    }

    fn ckpt_run_cmd(
        checkpoint: Option<String>,
        kill_after_checkpoints: Option<u64>,
        resume: Option<String>,
    ) -> Command {
        Command::Run {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Fixed(Algorithm::HybridMasterSlave),
            procs: 4,
            seeds: Some(32),
            cache: 16,
            steal: Box::default(),
            batch: BatchParams::default(),
            chaos: false,
            chaos_seed: 0,
            chaos_params: Box::default(),
            rank_chaos: None,
            ingest_epochs: 0,
            ingest_interval: 2.0e-4,
            ingest_batch: 32,
            detector: streamline_core::DetectorKind::ClosedSet,
            json: None,
            trace: None,
            trace_bucket: 0.05,
            metrics: None,
            checkpoint,
            checkpoint_interval: 2.0e-4,
            kill_after_checkpoints,
            resume,
        }
    }

    #[test]
    fn run_kill_and_resume_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("slrepro-ckpt-{}", std::process::id()));
        let ckpt_dir = dir.join("ckpts").to_string_lossy().into_owned();
        // Kill after two snapshots: exit 0 (the requested outcome),
        // checkpoints on disk.
        assert_eq!(execute(ckpt_run_cmd(Some(ckpt_dir.clone()), Some(2), None)), 0);
        let latest = streamline_core::latest_checkpoint(std::path::Path::new(&ckpt_dir))
            .unwrap()
            .expect("kill wrote snapshots");
        // The snapshot passes obs-check --ckpt.
        let check = execute(Command::ObsCheck {
            trace: None,
            metrics: None,
            ckpt: Some(latest.to_string_lossy().into_owned()),
        });
        assert_eq!(check, 0, "obs-check must accept what run --checkpoint emits");
        // Resume from the directory (latest snapshot) and complete.
        assert_eq!(execute(ckpt_run_cmd(None, None, Some(ckpt_dir))), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_trace_emits_files_that_obs_check_accepts() {
        let dir = std::env::temp_dir().join(format!("slrepro-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let code = execute(Command::Run {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Fixed(Algorithm::LoadOnDemand),
            procs: 4,
            seeds: Some(32),
            cache: 16,
            steal: Box::default(),
            batch: BatchParams::default(),
            chaos: false,
            chaos_seed: 0,
            chaos_params: Box::default(),
            rank_chaos: None,
            ingest_epochs: 0,
            ingest_interval: 2.0e-4,
            ingest_batch: 32,
            detector: streamline_core::DetectorKind::ClosedSet,
            json: None,
            trace: Some(trace_path.clone()),
            trace_bucket: 0.05,
            metrics: Some(metrics_path.clone()),
            checkpoint: None,
            checkpoint_interval: 0.1,
            kill_after_checkpoints: None,
            resume: None,
        });
        assert_eq!(code, 0);
        let check = execute(Command::ObsCheck {
            trace: Some(trace_path),
            metrics: Some(metrics_path),
            ckpt: None,
        });
        assert_eq!(check, 0, "obs-check must accept what run emits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_rank_chaos_reports_faults_and_validates_obs() {
        let dir = std::env::temp_dir().join(format!("slrepro-rankchaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let code = execute(Command::Run {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Fixed(Algorithm::LoadOnDemand),
            procs: 4,
            seeds: Some(32),
            cache: 16,
            steal: Box::default(),
            batch: BatchParams::default(),
            chaos: false,
            chaos_seed: 0,
            chaos_params: Box::default(),
            rank_chaos: Some(Box::new(streamline_core::RankChaos::one_kill(3, 1.0e-4))),
            ingest_epochs: 0,
            ingest_interval: 2.0e-4,
            ingest_batch: 32,
            detector: streamline_core::DetectorKind::ClosedSet,
            json: None,
            trace: Some(trace_path.clone()),
            trace_bucket: 0.05,
            metrics: Some(metrics_path.clone()),
            checkpoint: None,
            checkpoint_interval: 0.1,
            kill_after_checkpoints: None,
            resume: None,
        });
        assert_eq!(code, 0, "a killed slave rank must not fail the run");
        // The death shows up in the Prometheus export and the trace still
        // passes obs-check.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("streamline_faults_rank_deaths_total 1"), "{prom}");
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace_text.contains("rank_deaths"), "trace carries the death series");
        let check = execute(Command::ObsCheck {
            trace: Some(trace_path),
            metrics: Some(metrics_path),
            ckpt: None,
        });
        assert_eq!(check, 0, "obs-check must accept what a rank-chaos run emits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn open_run_cmd(
        trace: Option<String>,
        metrics: Option<String>,
        checkpoint: Option<String>,
        kill_after_checkpoints: Option<u64>,
        resume: Option<String>,
    ) -> Command {
        Command::Run {
            dataset: DatasetKind::Thermal,
            seeding: Seeding::Sparse,
            algorithm: AlgoChoice::Fixed(Algorithm::LoadOnDemand),
            procs: 4,
            seeds: Some(32),
            cache: 16,
            steal: Box::default(),
            batch: BatchParams::default(),
            chaos: false,
            chaos_seed: 0,
            chaos_params: Box::default(),
            rank_chaos: None,
            ingest_epochs: 2,
            ingest_interval: 2.0e-4,
            ingest_batch: 8,
            detector: streamline_core::DetectorKind::Frontier,
            json: None,
            trace,
            trace_bucket: 0.05,
            metrics,
            checkpoint,
            checkpoint_interval: 2.0e-4,
            kill_after_checkpoints,
            resume,
        }
    }

    #[test]
    fn open_loop_run_emits_frontier_obs_that_obs_check_accepts() {
        let dir = std::env::temp_dir().join(format!("slrepro-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        let metrics_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let code = execute(open_run_cmd(
            Some(trace_path.clone()),
            Some(metrics_path.clone()),
            None,
            None,
            None,
        ));
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
        let check = execute(Command::ObsCheck {
            trace: Some(trace_path),
            metrics: Some(metrics_path),
            ckpt: None,
        });
        assert_eq!(check, 0, "obs-check must accept what an open-loop run emits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_loop_kill_and_resume_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("slrepro-openckpt-{}", std::process::id()));
        let ckpt_dir = dir.join("ckpts").to_string_lossy().into_owned();
        assert_eq!(execute(open_run_cmd(None, None, Some(ckpt_dir.clone()), Some(2), None)), 0);
        let latest = streamline_core::latest_checkpoint(std::path::Path::new(&ckpt_dir))
            .unwrap()
            .expect("kill wrote snapshots");
        let check = execute(Command::ObsCheck {
            trace: None,
            metrics: None,
            ckpt: Some(latest.to_string_lossy().into_owned()),
        });
        assert_eq!(check, 0, "obs-check must accept an open-loop snapshot");
        // Resume with the same ingest flags and complete.
        assert_eq!(execute(open_run_cmd(None, None, None, None, Some(ckpt_dir))), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_check_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("slrepro-obsbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json").to_string_lossy().into_owned();
        std::fs::write(&bad, "{\"schema\": \"nope\"}").unwrap();
        assert_eq!(
            execute(Command::ObsCheck { trace: Some(bad.clone()), metrics: None, ckpt: None }),
            1
        );
        assert_eq!(
            execute(Command::ObsCheck {
                trace: None,
                metrics: Some("/nonexistent/x".into()),
                ckpt: None
            }),
            1
        );
        // A truncated/garbage checkpoint is rejected, never a panic.
        let bad_ckpt = dir.join("bad.ckpt").to_string_lossy().into_owned();
        std::fs::write(&bad_ckpt, b"not a checkpoint").unwrap();
        assert_eq!(
            execute(Command::ObsCheck { trace: None, metrics: None, ckpt: Some(bad_ckpt) }),
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
