//! Checkpoint/restart exercised end-to-end through the facade crate: a run
//! of each algorithm is killed mid-flight, resumed from its latest snapshot,
//! and must reproduce the uninterrupted run's streamlines and report byte
//! for byte. Property tests cover the container itself: snapshots of
//! arbitrary mid-run states re-serialize byte-identically, and corrupted
//! files are rejected with typed errors, never a panic.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use streamline_repro::ckpt::{CkptError, CkptFile, CkptWriter};
use streamline_repro::core::{
    latest_checkpoint, Algorithm, CheckpointOptions, MemoryBudget, Run, RunConfig, RunError,
    RunOutput, SeedSource,
};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::field::seeds::SeedSet;
use streamline_repro::field::BlockId;
use streamline_repro::iosim::{BlockStore, FaultPlan, FaultStore, FieldStore};

fn fixture(algorithm: Algorithm) -> (Dataset, SeedSet, RunConfig) {
    let mut dcfg = DatasetConfig::tiny();
    dcfg.blocks_per_axis = [2, 2, 2];
    dcfg.cells_per_block = [6, 6, 6];
    let ds = Dataset::thermal_hydraulics(dcfg);
    let seeds = ds.seeds_with_count(Seeding::Sparse, 27);
    let mut cfg = RunConfig::new(algorithm, 4);
    cfg.limits.max_steps = 300;
    cfg.memory = MemoryBudget::unlimited();
    (ds, seeds, cfg)
}

fn store(ds: &Dataset) -> Arc<dyn BlockStore> {
    Arc::new(FieldStore::new(ds.clone()))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Checkpoint `run` under `opts` and return the snapshots it wrote, whether
/// `kill_after` abandoned it or it ran to completion first.
fn snapshots(run: Run<'_>, opts: CheckpointOptions) -> Vec<PathBuf> {
    match run.checkpoint(opts).go() {
        Ok(out) => out.checkpoints,
        Err(RunError::Killed { checkpoints, .. }) => checkpoints,
        Err(e) => panic!("checkpointed run failed: {e}"),
    }
}

/// [`snapshots`] of a run that `kill_after` must abandon.
fn killed(run: Run<'_>, opts: CheckpointOptions) -> Vec<PathBuf> {
    match run.checkpoint(opts).go() {
        Err(RunError::Killed { checkpoints, .. }) => checkpoints,
        other => panic!("kill_after must abandon the run, got {other:?}"),
    }
}

/// The crash/resume invariant, via the facade: for every algorithm, a run
/// killed after its first snapshot and resumed from the latest checkpoint
/// finishes with byte-equal streamlines and a byte-equal report.
#[test]
fn killed_runs_resume_bit_identically_via_the_facade() {
    for algorithm in Algorithm::ALL {
        let (ds, seeds, cfg) = fixture(algorithm);
        let RunOutput { report: ref_report, finished: ref_lines, .. } =
            Run::new(&ds, &cfg, &seeds).store(store(&ds)).go().unwrap();

        let dir = tempdir(&format!("facade-{}", algorithm.label()));
        let opts =
            CheckpointOptions { kill_after: Some(2), ..CheckpointOptions::new(&dir, 2.0e-4) };
        killed(Run::new(&ds, &cfg, &seeds).store(store(&ds)), opts);

        let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
        let RunOutput { report: res_report, finished: res_lines, .. } =
            Run::new(&ds, &cfg, &seeds).store(store(&ds)).resume(&latest).go().expect("resume");
        assert_eq!(res_lines, ref_lines, "{algorithm:?}: streamlines diverged");
        assert_eq!(
            serde_json::to_string(&res_report).unwrap(),
            serde_json::to_string(&ref_report).unwrap(),
            "{algorithm:?}: report not reconciled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The chaos variant: a fault-injecting store (transient load failures on a
/// seeded plan) must not break the invariant — the fault schedule position
/// is part of the snapshot — on every algorithm, for a closed seed set and
/// for an open source whose second arrival epoch is still undelivered at
/// the cut.
#[test]
fn killed_runs_resume_bit_identically_under_chaos_faults() {
    for algorithm in Algorithm::ALL {
        let (ds, seeds, mut cfg) = fixture(algorithm);
        cfg.cache_blocks = 2;
        let more = ds.seeds_with_count(Seeding::Dense, 10);
        let open = SeedSource::new(
            &seeds,
            vec![(1.0e-4, more.points[..5].to_vec()), (5.0e-4, more.points[5..].to_vec())],
        )
        .unwrap();
        for source in [SeedSource::closed(&seeds), open] {
            let what = format!("{algorithm:?}/{} epochs", source.n_epochs());
            let faulty = |ds: &Dataset| -> Arc<dyn BlockStore> {
                Arc::new(FaultStore::new(
                    store(ds),
                    FaultPlan::new().transient(BlockId(2), 2).transient(BlockId(6), 1),
                ))
            };
            let RunOutput { report: ref_report, finished: ref_lines, .. } =
                Run::new(&ds, &cfg, source.clone()).store(faulty(&ds)).go().unwrap();
            assert!(ref_report.load_retries > 0, "{what}: fixture must exercise retries");

            let dir = tempdir(&format!("facade-chaos-{algorithm:?}-{}", source.n_epochs()));
            let opts =
                CheckpointOptions { kill_after: Some(1), ..CheckpointOptions::new(&dir, 2.0e-4) };
            killed(Run::new(&ds, &cfg, source.clone()).store(faulty(&ds)), opts);
            let latest = latest_checkpoint(&dir).unwrap().expect("snapshot on disk");
            let RunOutput { report: res_report, finished: res_lines, .. } =
                Run::new(&ds, &cfg, source.clone())
                    .store(faulty(&ds))
                    .resume(&latest)
                    .go()
                    .expect("resume over fault store");
            assert_eq!(res_lines, ref_lines, "{what}");
            assert_eq!(
                serde_json::to_string(&res_report).unwrap(),
                serde_json::to_string(&ref_report).unwrap(),
                "{what}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// One real mid-run snapshot, shared by the corruption properties below so
/// each proptest case doesn't pay for a fresh simulation.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (ds, seeds, cfg) = fixture(Algorithm::HybridMasterSlave);
        let dir = tempdir("prop-src");
        let opts =
            CheckpointOptions { kill_after: Some(2), ..CheckpointOptions::new(&dir, 2.0e-4) };
        let checkpoints = snapshots(Run::new(&ds, &cfg, &seeds).store(store(&ds)), opts);
        let bytes = std::fs::read(checkpoints.last().expect("snapshots written")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A deterministic corrupt-CRC case with a precise verdict: flipping one
/// payload byte must surface as `CrcMismatch` from the resume path.
#[test]
fn a_flipped_payload_byte_is_a_crc_mismatch_not_a_panic() {
    let (ds, seeds, cfg) = fixture(Algorithm::HybridMasterSlave);
    let mut bad = snapshot_bytes().to_vec();
    let last = bad.len() - 1; // final payload byte of the last section
    bad[last] ^= 0xFF;
    let dir = tempdir("crc");
    let path = dir.join("ckpt-000001.ckpt");
    std::fs::write(&path, &bad).unwrap();
    let err = Run::new(&ds, &cfg, &seeds)
        .store(store(&ds))
        .resume(&path)
        .go()
        .expect_err("corrupt snapshot must be rejected");
    assert!(matches!(err, RunError::Ckpt(CkptError::CrcMismatch { .. })), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Snapshots of arbitrary mid-run states (any algorithm, any kill
    /// point, any seed count) parse and re-serialize byte-identically.
    #[test]
    fn snapshots_of_arbitrary_midrun_states_reserialize_byte_identically(
        algo_ix in 0usize..3,
        kill in 1u64..=3,
        n_seeds in 8usize..=27,
    ) {
        let algorithm = Algorithm::ALL[algo_ix];
        let (ds, _, cfg) = fixture(algorithm);
        let seeds = ds.seeds_with_count(Seeding::Sparse, n_seeds);
        let dir = tempdir(&format!("prop-rt-{algo_ix}-{kill}-{n_seeds}"));
        let opts = CheckpointOptions {
            kill_after: Some(kill),
            ..CheckpointOptions::new(&dir, 2.0e-4)
        };
        let checkpoints = snapshots(Run::new(&ds, &cfg, &seeds).store(store(&ds)), opts);
        prop_assert!(!checkpoints.is_empty());
        for path in &checkpoints {
            let bytes = std::fs::read(path).unwrap();
            let parsed = CkptFile::parse(&bytes).expect("snapshot parses");
            let tags: Vec<String> = parsed.tags().map(str::to_owned).collect();
            let mut w = CkptWriter::new();
            for tag in &tags {
                w.section(tag, parsed.section(tag).expect("tag just listed"));
            }
            prop_assert_eq!(w.finish(), bytes, "re-serialization of {:?} differs", path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte of a snapshot is never a panic: parsing (and
    /// header decoding) either fails with a typed error or yields a file
    /// whose sections no longer include the original payloads.
    #[test]
    fn any_single_byte_flip_is_rejected_or_detected_never_a_panic(
        pos in 0usize..1_048_576,
        flip in 1u8..=255,
    ) {
        let good = snapshot_bytes();
        let i = pos % good.len();
        let mut bad = good.to_vec();
        bad[i] ^= flip;
        match CkptFile::parse(&bad) {
            // A flip in a tag or length field can still frame-parse; the
            // META decode must then be a typed error or an unchanged META
            // section — either way, no panic and no silent payload change.
            Ok(file) => { let _ = file.meta(); }
            Err(e) => {
                prop_assert!(
                    matches!(
                        e,
                        CkptError::BadMagic
                            | CkptError::Truncated { .. }
                            | CkptError::BadTag { .. }
                            | CkptError::CrcMismatch { .. }
                    ),
                    "unexpected error class: {:?}", e
                );
            }
        }
    }

    /// Truncating a snapshot anywhere is never a panic: either a typed
    /// error, or — when the cut lands exactly on a section boundary — a
    /// clean parse that visibly lost sections.
    #[test]
    fn any_truncation_is_a_typed_error_or_visibly_lossy(pos in 0usize..1_048_576) {
        let good = snapshot_bytes();
        let n_sections = CkptFile::parse(good).unwrap().tags().count();
        let keep = pos % good.len(); // 0..len-1: always a strict prefix
        match CkptFile::parse(&good[..keep]) {
            Ok(file) => prop_assert!(
                file.tags().count() < n_sections,
                "a strict prefix must lose at least one section"
            ),
            Err(e) => prop_assert!(
                matches!(e, CkptError::BadMagic | CkptError::Truncated { .. }),
                "unexpected error class: {:?}", e
            ),
        }
    }
}
