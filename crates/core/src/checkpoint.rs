//! Checkpoint/restart for the simulated drivers.
//!
//! A checkpoint is a crash-consistent, between-events cut of a run: the
//! scheduler state (clocks, metrics, undelivered events), every rank's
//! algorithm state (§4.1 static per-rank state and in-flight hand-offs,
//! §4.2 seed queues and LRU residency, §4.3 master assignment tables and
//! slave workloads), the partial trajectories, and — when the store injects
//! faults — the fault schedule position. Resuming from a checkpoint
//! completes **bit-identically** to the uninterrupted run: same streamline
//! geometry, same report, same virtual wall clock.
//!
//! The container format (magic, CRC-framed sections, typed errors) lives in
//! [`streamline_ckpt`]; this module defines the payloads and the write and
//! restore halves that [`crate::Run`] drives.

use crate::config::RunConfig;
use crate::driver::AnyProc;
use crate::ingest::SeedSource;
use crate::msg::Msg;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use streamline_ckpt::{write_atomic, CkptError, CkptFile, CkptWriter, Meta, KIND_RUN};
use streamline_desim::{
    CheckpointControl, Event, PendingEvent, ProcMetrics, SimReport, SimState, Simulation,
};
use streamline_field::dataset::Dataset;
use streamline_integrate::StepLimits;
use streamline_iosim::{BlockStore, FaultState};

/// Section tag: run spec (config + bit-exact step limits).
pub const SPEC_TAG: &str = "SPEC";
/// Section tag: scheduler state (clocks, metrics, pending events).
pub const SIM_TAG: &str = "SIMS";
/// Section tag: per-rank algorithm snapshots.
pub const RANK_TAG: &str = "RANK";
/// Section tag: fault-injection schedule position (optional).
pub const FAULT_TAG: &str = "FALT";

/// [`StepLimits`] + tolerances encoded as IEEE-754 bit patterns. The
/// defaults contain `f64::INFINITY`, which the JSON layer cannot round-trip
/// (non-finite → null); bits always can.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LimitsBits {
    pub max_steps: u64,
    pub max_arc_length: u64,
    pub max_time: u64,
    pub min_speed: u64,
    pub h0: u64,
    pub h_min: u64,
    pub h_max: u64,
    pub tol_abs: u64,
    pub tol_rel: u64,
}

impl LimitsBits {
    pub fn of(l: &StepLimits) -> Self {
        LimitsBits {
            max_steps: l.max_steps,
            max_arc_length: l.max_arc_length.to_bits(),
            max_time: l.max_time.to_bits(),
            min_speed: l.min_speed.to_bits(),
            h0: l.h0.to_bits(),
            h_min: l.h_min.to_bits(),
            h_max: l.h_max.to_bits(),
            tol_abs: l.tol.abs.to_bits(),
            tol_rel: l.tol.rel.to_bits(),
        }
    }
}

/// The ingest schedule of an open-loop run, encoded bit-exactly: each
/// epoch's arrival time as IEEE-754 bits plus its seed count. A resume must
/// rebuild the identical [`SeedSource`] schedule or it is rejected — the
/// undelivered arrival events ride the SIMS cut and replaying them against
/// a different schedule would silently diverge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestSpec {
    /// Arrival time of each epoch as `f64::to_bits` (epoch 0 is t = 0).
    pub arrival_bits: Vec<u64>,
    /// Seeds per epoch.
    pub epoch_totals: Vec<u64>,
}

impl IngestSpec {
    pub fn of(source: &SeedSource) -> Self {
        IngestSpec {
            arrival_bits: source.epoch_arrivals().iter().map(|t| t.to_bits()).collect(),
            epoch_totals: source.epoch_totals(),
        }
    }
}

/// The SPEC section: everything a resume must agree on. `RunConfig`'s serde
/// representation skips `limits` (non-finite defaults), so the bit-encoded
/// [`LimitsBits`] rides alongside. Open-loop runs also record their ingest
/// schedule; closed runs write `"ingest":null`, and a SPEC section without
/// the key (written before ingestion existed) still reads as closed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpecSection {
    pub config: RunConfig,
    pub limits: LimitsBits,
    #[serde(default)]
    pub ingest: Option<IngestSpec>,
}

impl SpecSection {
    /// The SPEC of a run of `cfg` over `source` (`ingest` only when the
    /// source is open).
    pub fn new(cfg: &RunConfig, source: &SeedSource) -> Self {
        SpecSection {
            config: *cfg,
            limits: LimitsBits::of(&cfg.limits),
            ingest: (!source.is_closed()).then(|| IngestSpec::of(source)),
        }
    }
}

/// Serializable [`Event`] image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventDto {
    Start,
    Message { from: usize, msg: Msg },
    Wake(u64),
}

impl EventDto {
    fn of(ev: &Event<Msg>) -> Self {
        match ev {
            Event::Start => EventDto::Start,
            Event::Message { from, msg } => EventDto::Message { from: *from, msg: msg.clone() },
            Event::Wake(token) => EventDto::Wake(*token),
        }
    }

    fn into_event(self) -> Event<Msg> {
        match self {
            EventDto::Start => Event::Start,
            EventDto::Message { from, msg } => Event::Message { from, msg },
            EventDto::Wake(token) => Event::Wake(token),
        }
    }
}

/// Serializable [`PendingEvent`] image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingDto {
    pub time: f64,
    pub seq: u64,
    pub to: usize,
    pub recv_cost: f64,
    pub recv_bytes: u64,
    pub ev: EventDto,
}

/// The SIMS section: a serializable [`SimState`] cut.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimStateDto {
    pub clocks: Vec<f64>,
    pub metrics: Vec<ProcMetrics>,
    pub next_seq: u64,
    pub events: u64,
    /// Rank deaths applied before the cut, `(rank, virtual time)` in
    /// application order.
    pub dead: Vec<(usize, f64)>,
    /// Events dropped (dead target or dead sender) before the cut.
    pub dropped_events: u64,
    pub pending: Vec<PendingDto>,
}

impl SimStateDto {
    fn of(state: &SimState<Msg>) -> Self {
        SimStateDto {
            clocks: state.clocks.clone(),
            metrics: state.metrics.clone(),
            next_seq: state.next_seq,
            events: state.events,
            dead: state.dead.clone(),
            dropped_events: state.dropped_events,
            pending: state
                .pending
                .iter()
                .map(|p| PendingDto {
                    time: p.time,
                    seq: p.seq,
                    to: p.to,
                    recv_cost: p.recv_cost,
                    recv_bytes: p.recv_bytes,
                    ev: EventDto::of(&p.ev),
                })
                .collect(),
        }
    }

    fn into_state(self) -> SimState<Msg> {
        SimState {
            clocks: self.clocks,
            metrics: self.metrics,
            next_seq: self.next_seq,
            events: self.events,
            dead: self.dead,
            dropped_events: self.dropped_events,
            pending: self
                .pending
                .into_iter()
                .map(|p| PendingEvent {
                    time: p.time,
                    seq: p.seq,
                    to: p.to,
                    recv_cost: p.recv_cost,
                    recv_bytes: p.recv_bytes,
                    ev: p.ev.into_event(),
                })
                .collect(),
        }
    }
}

/// The RANK section: one entry per rank, in rank order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RankSnapshot {
    Static(crate::static_alloc::StaticSnapshot),
    Lod(crate::load_on_demand::LodSnapshot),
    Master(crate::hybrid::MasterSnapshot),
    Slave(crate::hybrid::SlaveSnapshot),
    Steal(crate::steal::StealSnapshot),
}

fn snapshot_rank(p: &AnyProc) -> RankSnapshot {
    match p {
        AnyProc::Static(p) => RankSnapshot::Static(p.snapshot()),
        AnyProc::Lod(p) => RankSnapshot::Lod(p.snapshot()),
        AnyProc::Master(p) => RankSnapshot::Master(p.snapshot()),
        AnyProc::Slave(p) => RankSnapshot::Slave(p.snapshot()),
        AnyProc::Steal(p) => RankSnapshot::Steal(p.snapshot()),
    }
}

fn restore_rank(rank: usize, p: &mut AnyProc, snap: &RankSnapshot) -> Result<(), CkptError> {
    let store_err =
        |e| CkptError::Mismatch(format!("rank {rank}: resident block reload failed: {e}"));
    match (p, snap) {
        (AnyProc::Static(p), RankSnapshot::Static(s)) => p.restore(s).map_err(store_err),
        (AnyProc::Lod(p), RankSnapshot::Lod(s)) => p.restore(s).map_err(store_err),
        (AnyProc::Master(p), RankSnapshot::Master(s)) => {
            p.restore(s);
            Ok(())
        }
        (AnyProc::Slave(p), RankSnapshot::Slave(s)) => p.restore(s).map_err(store_err),
        (AnyProc::Steal(p), RankSnapshot::Steal(s)) => p.restore(s).map_err(store_err),
        _ => Err(CkptError::Mismatch(format!(
            "rank {rank}: snapshot kind does not match the rebuilt rank — \
             the checkpoint belongs to a different configuration"
        ))),
    }
}

/// Encode one full run checkpoint into the container format.
#[allow(clippy::too_many_arguments)]
pub fn encode_run_checkpoint(
    dataset: &Dataset,
    cfg: &RunConfig,
    source: &SeedSource,
    state: &SimState<Msg>,
    procs: &[AnyProc],
    store: &Arc<dyn BlockStore>,
    snapshot_seq: u64,
    interval: f64,
) -> Vec<u8> {
    let mut meta = Meta::new(KIND_RUN);
    meta.algorithm = cfg.algorithm.label().to_string();
    meta.n_procs = cfg.n_procs;
    meta.n_seeds = source.total_seeds();
    meta.dataset = dataset.name.to_string();
    meta.seeding = source.label.clone();
    meta.cache_blocks = cfg.cache_blocks;
    meta.interval = interval;
    meta.snapshot_seq = snapshot_seq;
    meta.taken_at = state.pending.first().map(|p| p.time).unwrap_or(0.0);

    let mut w = CkptWriter::new();
    w.section_value(streamline_ckpt::META_TAG, &meta);
    w.section_value(SPEC_TAG, &SpecSection::new(cfg, source));
    w.section_value(SIM_TAG, &SimStateDto::of(state));
    let ranks: Vec<RankSnapshot> = procs.iter().map(snapshot_rank).collect();
    w.section_value(RANK_TAG, &ranks);
    if let Some(fs) = store.fault_state() {
        w.section_value(FAULT_TAG, &fs);
    }
    w.finish()
}

/// Where and how often to checkpoint a simulated run.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory receiving `ckpt-NNNNNN.ckpt` files (created if absent).
    pub dir: PathBuf,
    /// Virtual seconds between snapshots (must be positive and finite).
    pub interval: f64,
    /// Abandon the run right after writing this many snapshots — the
    /// kill-mid-run half of the crash/restart tests. `None` runs to
    /// completion.
    pub kill_after: Option<u64>,
}

impl CheckpointOptions {
    pub fn new(dir: impl Into<PathBuf>, interval: f64) -> Self {
        CheckpointOptions { dir: dir.into(), interval, kill_after: None }
    }
}

/// The snapshot files a checkpointed run wrote, in order, and their total
/// size.
#[derive(Debug, Default)]
pub(crate) struct Written {
    pub paths: Vec<PathBuf>,
    pub bytes: u64,
}

/// Drive `sim` with periodic checkpoints: before the first event at or
/// past each `opts.interval` boundary of virtual time, a
/// `ckpt-NNNNNN.ckpt` snapshot is written atomically to `opts.dir`. The
/// report is `None` when `opts.kill_after` abandoned the run. An open
/// source's arrival schedule is already in the event queue, so a cut
/// taken mid-stream carries every undelivered ingest event.
pub(crate) fn drive(
    sim: Simulation<Msg, AnyProc>,
    opts: &CheckpointOptions,
    dataset: &Dataset,
    cfg: &RunConfig,
    source: &SeedSource,
    store: &Arc<dyn BlockStore>,
) -> Result<(Option<SimReport>, Vec<AnyProc>, Written), CkptError> {
    std::fs::create_dir_all(&opts.dir)?;
    let mut written = Written::default();
    let mut io_err: Option<CkptError> = None;
    let mut seq = 0u64;
    let mut hook = |state: &SimState<Msg>, procs: &[AnyProc]| {
        seq += 1;
        let bytes =
            encode_run_checkpoint(dataset, cfg, source, state, procs, store, seq, opts.interval);
        let path = opts.dir.join(format!("ckpt-{seq:06}.ckpt"));
        match write_atomic(&path, &bytes) {
            Ok(()) => {
                written.bytes += bytes.len() as u64;
                written.paths.push(path);
            }
            Err(e) => {
                io_err = Some(e);
                return CheckpointControl::Stop;
            }
        }
        if opts.kill_after.is_some_and(|n| seq >= n) {
            CheckpointControl::Stop
        } else {
            CheckpointControl::Continue
        }
    };
    let (report, procs) = sim.run_checkpointed(opts.interval, &mut hook);
    match io_err {
        Some(e) => Err(e),
        None => Ok((report, procs, written)),
    }
}

/// Verify `meta`/SPEC against the rebuilt run inputs; any disagreement is a
/// typed [`CkptError::Mismatch`], never a silent divergence.
fn verify_spec(
    file: &CkptFile,
    dataset: &Dataset,
    cfg: &RunConfig,
    source: &SeedSource,
) -> Result<Meta, CkptError> {
    let meta = file.meta()?;
    if meta.kind != KIND_RUN {
        return Err(CkptError::Mismatch(format!(
            "expected a {KIND_RUN} checkpoint, found kind {:?}",
            meta.kind
        )));
    }
    let checks = [
        ("algorithm", meta.algorithm.clone(), cfg.algorithm.label().to_string()),
        ("n_procs", meta.n_procs.to_string(), cfg.n_procs.to_string()),
        ("dataset", meta.dataset.clone(), dataset.name.to_string()),
        ("seeding", meta.seeding.clone(), source.label.clone()),
        ("n_seeds", meta.n_seeds.to_string(), source.total_seeds().to_string()),
    ];
    for (what, stored, current) in checks {
        if stored != current {
            return Err(CkptError::Mismatch(format!(
                "{what} mismatch: checkpoint has {stored:?}, this run has {current:?}"
            )));
        }
    }
    let stored: SpecSection = file.value(SPEC_TAG)?;
    let stored_json = serde_json::to_string(&stored).expect("vendored serde_json is infallible");
    let current_json = serde_json::to_string(&SpecSection::new(cfg, source))
        .expect("vendored serde_json is infallible");
    if stored_json != current_json {
        return Err(CkptError::Mismatch(
            "run configuration differs from the checkpointed SPEC section \
             (config, limits or ingest schedule)"
                .into(),
        ));
    }
    Ok(meta)
}

/// Restore freshly built `procs` and the store's fault schedule from the
/// snapshot at `path`, and return the scheduler cut to resume from. The
/// dataset, source and config must be rebuilt exactly as for the original
/// run (the SPEC section is verified, an open source's arrival schedule
/// bit-exactly). Arrival events are not re-injected on resume: the
/// undelivered ones ride the cut, so a mid-stream resume delivers exactly
/// the epochs the original run had not yet seen.
pub(crate) fn restore(
    path: &Path,
    dataset: &Dataset,
    cfg: &RunConfig,
    source: &SeedSource,
    store: &Arc<dyn BlockStore>,
    procs: &mut [AnyProc],
) -> Result<SimState<Msg>, CkptError> {
    let file = CkptFile::read(path)?;
    verify_spec(&file, dataset, cfg, source)?;
    let fault: Option<FaultState> = match file.section(FAULT_TAG) {
        Some(_) => Some(file.value(FAULT_TAG)?),
        None => None,
    };
    // First restore: transient-fault schedules must already be past their
    // consumed attempts, or the residency prefetch below would fail on
    // blocks the original run had successfully loaded.
    if let Some(fs) = &fault {
        store.restore_fault_state(fs);
    }
    let ranks: Vec<RankSnapshot> = file.value(RANK_TAG)?;
    if ranks.len() != procs.len() {
        return Err(CkptError::Mismatch(format!(
            "checkpoint has {} rank snapshots, run builds {} ranks",
            ranks.len(),
            procs.len()
        )));
    }
    for (rank, (p, snap)) in procs.iter_mut().zip(&ranks).enumerate() {
        restore_rank(rank, p, snap)?;
    }
    // Second restore: the prefetch consumed attempts/served counters; put
    // the fault bookkeeping back to the exact snapshotted values.
    if let Some(fs) = &fault {
        store.restore_fault_state(fs);
    }
    let state = file.value::<SimStateDto>(SIM_TAG)?.into_state();
    if state.clocks.len() != cfg.n_procs {
        return Err(CkptError::Mismatch(format!(
            "scheduler cut covers {} ranks, run has {}",
            state.clocks.len(),
            cfg.n_procs
        )));
    }
    // The caller re-attaches the full death schedule: deaths the snapshot
    // already applied are restored from the cut (and skipped idempotently
    // by the scheduler), deaths scheduled past the cut still fire at their
    // original times.
    Ok(state)
}

/// The newest (highest-ordinal) checkpoint file in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    let mut best: Option<PathBuf> = None;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("ckpt-") && name.ends_with(".ckpt") && best.as_ref() < Some(&path) {
            best = Some(path);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, MemoryBudget};
    use crate::report::RunReport;
    use crate::{Run, RunError, RunOutput};
    use streamline_field::dataset::{DatasetConfig, Seeding};
    use streamline_field::seeds::SeedSet;
    use streamline_field::BlockId;
    use streamline_iosim::{FaultPlan, FaultStore, FieldStore};

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

    fn field_store(ds: &Dataset) -> Arc<dyn BlockStore> {
        Arc::new(FieldStore::new(ds.clone()))
    }

    fn report_json(r: &RunReport) -> String {
        serde_json::to_string(r).expect("report serializes")
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Checkpoint `run` under `opts` until `kill_after` abandons it; the
    /// snapshots written and their total size.
    fn killed(run: Run<'_>, opts: CheckpointOptions) -> (Vec<PathBuf>, u64) {
        match run.checkpoint(opts).go() {
            Err(RunError::Killed { checkpoints, bytes_written }) => (checkpoints, bytes_written),
            other => panic!("kill_after must abandon the run, got {other:?}"),
        }
    }

    fn is_mismatch(err: &RunError) -> bool {
        matches!(err, RunError::Ckpt(CkptError::Mismatch(_)))
    }

    /// Kill each algorithm mid-run at the latest checkpoint, resume, and
    /// demand byte-equal streamlines and a byte-equal report vs. the
    /// uninterrupted reference — the subsystem's core invariant.
    #[test]
    fn kill_and_resume_is_bit_identical_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let (ds, seeds, cfg) = fixture(algo);
            let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();

            let dir = tempdir(&format!("kill-{}", cfg.algorithm.label()));
            let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
            opts.kill_after = Some(2);
            let (checkpoints, bytes) = killed(Run::new(&ds, &cfg, &seeds), opts);
            assert_eq!(checkpoints.len(), 2, "{algo:?}");
            assert!(bytes > 0);

            let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
            assert_eq!(Some(&latest), checkpoints.last());
            let resumed = Run::new(&ds, &cfg, &seeds).resume(&latest).go().expect("resume");

            assert_eq!(
                resumed.finished, reference.finished,
                "{algo:?}: streamlines diverged after resume"
            );
            assert_eq!(
                report_json(&resumed.report),
                report_json(&reference.report),
                "{algo:?}: report not reconciled bit-identically"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A checkpointed run that is never killed must be unperturbed by the
    /// snapshot machinery, on every driver: identical output and report to
    /// a plain run.
    #[test]
    fn checkpointing_does_not_perturb_a_completed_run() {
        for algo in Algorithm::ALL {
            let (ds, seeds, cfg) = fixture(algo);
            let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();

            let dir = tempdir(&format!("noperturb-{}", algo.label()));
            let opts = CheckpointOptions::new(&dir, 1.0e-3);
            let out = Run::new(&ds, &cfg, &seeds).checkpoint(opts).go().expect("completes");
            assert!(!out.checkpoints.is_empty(), "{algo:?}: interval must fire at least once");
            assert!(out.checkpoint_bytes > 0, "{algo:?}");
            assert_eq!(
                out.finished, reference.finished,
                "{algo:?}: checkpointing perturbed the run"
            );
            assert_eq!(report_json(&out.report), report_json(&reference.report), "{algo:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Resume must also be exact when the store injects transient faults:
    /// the fault schedule position is checkpointed and restored.
    #[test]
    fn kill_and_resume_is_bit_identical_under_injected_faults() {
        let (ds, seeds, mut cfg) = fixture(Algorithm::LoadOnDemand);
        cfg.cache_blocks = 2;
        let plan = || FaultPlan::new().transient(BlockId(1), 2).transient(BlockId(5), 1);
        let faulty = |ds: &Dataset| -> Arc<dyn BlockStore> {
            Arc::new(FaultStore::new(field_store(ds), plan()))
        };

        let reference = Run::new(&ds, &cfg, &seeds).store(faulty(&ds)).go().unwrap();
        assert!(reference.report.load_retries > 0, "fixture must actually exercise retries");

        let dir = tempdir("faulty");
        let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
        opts.kill_after = Some(2);
        killed(Run::new(&ds, &cfg, &seeds).store(faulty(&ds)), opts);
        let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");

        let resumed = Run::new(&ds, &cfg, &seeds)
            .store(faulty(&ds))
            .resume(&latest)
            .go()
            .expect("resume over fault store");
        assert_eq!(resumed.finished, reference.finished);
        assert_eq!(report_json(&resumed.report), report_json(&reference.report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resuming under a different configuration is a typed error, never a
    /// silently wrong run.
    #[test]
    fn resume_rejects_a_mismatched_spec() {
        let (ds, seeds, cfg) = fixture(Algorithm::StaticAllocation);
        let dir = tempdir("mismatch");
        let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
        opts.kill_after = Some(1);
        killed(Run::new(&ds, &cfg, &seeds), opts);
        let latest = latest_checkpoint(&dir).unwrap().expect("snapshot on disk");

        let mut other = cfg;
        other.n_procs = 3;
        let err = Run::new(&ds, &other, &seeds)
            .resume(&latest)
            .go()
            .expect_err("mismatched n_procs must be rejected");
        assert!(is_mismatch(&err), "{err:?}");

        let mut other = cfg;
        other.algorithm = Algorithm::LoadOnDemand;
        let err = Run::new(&ds, &other, &seeds)
            .resume(&latest)
            .go()
            .expect_err("mismatched algorithm must be rejected");
        assert!(is_mismatch(&err), "{err:?}");

        let mut other = cfg;
        other.limits.max_steps = 299;
        let err = Run::new(&ds, &other, &seeds)
            .resume(&latest)
            .go()
            .expect_err("mismatched limits must be rejected");
        assert!(is_mismatch(&err), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Killing a run between batched advance calls and resuming must be
    /// bit-identical for every driver when the batch kernel is on with an
    /// odd lane count (partial chunks in flight at snapshot time). The
    /// snapshot captures per-streamline state only — the batch scratch is
    /// rebuilt on resume — so the answer must not depend on where in the
    /// batch drain the kill landed.
    #[test]
    fn kill_and_resume_mid_batch_is_bit_identical() {
        for algo in Algorithm::ALL {
            let (ds, seeds, mut cfg) = fixture(algo);
            cfg.batch.lanes = Some(5);
            let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();

            let dir = tempdir(&format!("midbatch-{}", cfg.algorithm.label()));
            let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
            opts.kill_after = Some(2);
            killed(Run::new(&ds, &cfg, &seeds), opts);

            let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
            let resumed = Run::new(&ds, &cfg, &seeds).resume(&latest).go().expect("resume");
            assert_eq!(
                resumed.finished, reference.finished,
                "{algo:?}: streamlines diverged after resume"
            );
            assert_eq!(report_json(&resumed.report), report_json(&reference.report), "{algo:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The batch knob is part of the run spec: resuming a checkpoint under a
    /// different batch size is a typed [`CkptError::Mismatch`], exactly like
    /// a changed algorithm or step limit. (Batch size never changes results,
    /// but a resume that silently reinterprets the knob would hide operator
    /// error — the spec comparison is deliberately strict.)
    #[test]
    fn resume_rejects_a_mismatched_batch_knob() {
        let (ds, seeds, mut cfg) = fixture(Algorithm::HybridMasterSlave);
        cfg.batch.lanes = Some(16);
        let dir = tempdir("batch-mismatch");
        let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
        opts.kill_after = Some(1);
        killed(Run::new(&ds, &cfg, &seeds), opts);
        let latest = latest_checkpoint(&dir).unwrap().expect("snapshot on disk");

        let mut other = cfg;
        other.batch.lanes = Some(8);
        let err = Run::new(&ds, &other, &seeds)
            .resume(&latest)
            .go()
            .expect_err("mismatched batch size must be rejected");
        assert!(is_mismatch(&err), "{err:?}");

        let mut other = cfg;
        other.batch.lanes = None;
        let err = Run::new(&ds, &other, &seeds)
            .resume(&latest)
            .go()
            .expect_err("explicit-vs-auto batch must be rejected");
        assert!(is_mismatch(&err), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash/restart under rank fail-stop faults: the snapshot records the
    /// dead-rank set, and resuming completes byte-identically to the
    /// uninterrupted faulty run — same survivors, same `RankLost` set, same
    /// report — for every driver.
    #[test]
    fn kill_and_resume_is_bit_identical_under_rank_chaos() {
        for algo in Algorithm::ALL {
            let (ds, seeds, mut cfg) = fixture(algo);
            // Rank 3 (a worker under every algorithm) dies at t = 1e-4, well
            // before the second snapshot — the cut must carry the death.
            cfg.rank_chaos = Some(crate::config::RankChaos::one_kill(3, 1.0e-4));
            let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();
            assert_eq!(reference.report.rank_deaths, vec![(3, 1.0e-4)], "{algo:?}");

            let dir = tempdir(&format!("rankchaos-{}", cfg.algorithm.label()));
            let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
            opts.kill_after = Some(2);
            killed(Run::new(&ds, &cfg, &seeds), opts);

            let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
            let file = CkptFile::read(&latest).expect("readable snapshot");
            let state: SimStateDto = file.value(SIM_TAG).expect("SIMS section");
            assert_eq!(state.dead, vec![(3, 1.0e-4)], "{algo:?}: snapshot must record the death");

            let resumed =
                Run::new(&ds, &cfg, &seeds).resume(&latest).go().expect("resume under rank chaos");
            assert_eq!(
                resumed.finished, reference.finished,
                "{algo:?}: streamlines diverged after resume"
            );
            assert_eq!(report_json(&resumed.report), report_json(&reference.report), "{algo:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Static ranks whose snapshot holds parked handoffs (a non-empty
    /// inbox) in the checkpoint at `path`.
    fn ranks_with_parked_handoffs(path: &Path) -> Vec<usize> {
        let file = CkptFile::read(path).expect("readable snapshot");
        let ranks: Vec<RankSnapshot> = file.value(RANK_TAG).expect("RANK section");
        (0..ranks.len())
            .filter(|&r| matches!(&ranks[r], RankSnapshot::Static(s) if !s.inbox.is_empty()))
            .collect()
    }

    /// Crash/restart while handoffs sit in a static rank's inbox: the cut
    /// carries the inbox and its pending pump wake, and resuming from it is
    /// byte-identical to the uninterrupted run.
    #[test]
    fn kill_and_resume_with_parked_static_handoffs_is_bit_identical() {
        let (ds, seeds, cfg) = fixture(Algorithm::StaticAllocation);
        let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();

        // Find the first cut that lands between a handoff's arrival at a
        // busy rank and that rank's pump.
        let dir = tempdir("static-inbox");
        let opts = CheckpointOptions::new(&dir, 5.0e-5);
        let out = Run::new(&ds, &cfg, &seeds).checkpoint(opts).go().expect("checkpointed run");
        let kill_after = out
            .checkpoints
            .iter()
            .position(|snap| !ranks_with_parked_handoffs(snap).is_empty())
            .expect("some cut must land with handoffs parked") as u64
            + 1;
        let _ = std::fs::remove_dir_all(&dir);

        let dir = tempdir("static-inbox-kill");
        let mut opts = CheckpointOptions::new(&dir, 5.0e-5);
        opts.kill_after = Some(kill_after);
        killed(Run::new(&ds, &cfg, &seeds), opts);
        let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
        let parked = ranks_with_parked_handoffs(&latest);
        assert!(!parked.is_empty(), "the kill must land on the parked cut");
        let state: SimStateDto =
            CkptFile::read(&latest).expect("readable").value(SIM_TAG).expect("SIMS section");
        for rank in parked {
            assert!(
                state.pending.iter().any(|p| p.to == rank && matches!(p.ev, EventDto::Wake(_))),
                "rank {rank}: a parked inbox must have its pump wake in the cut"
            );
        }

        let resumed = Run::new(&ds, &cfg, &seeds).resume(&latest).go().expect("resume");
        assert_eq!(resumed.finished, reference.finished, "streamlines diverged after resume");
        assert_eq!(report_json(&resumed.report), report_json(&reference.report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The failure detector and membership view a rank snapshot carries.
    fn liveness_of(snap: &RankSnapshot) -> Option<&crate::liveness::Liveness> {
        match snap {
            RankSnapshot::Static(s) => s.resil.as_ref(),
            RankSnapshot::Lod(s) => s.resil.as_ref(),
            RankSnapshot::Master(s) => s.resil.as_ref().map(|r| &r.live),
            RankSnapshot::Slave(s) => s.resil.as_ref(),
            RankSnapshot::Steal(s) => s.resil.as_ref().map(|r| &r.live),
        }
    }

    /// Crash/restart *mid-recovery*: the cut lands after the first survivor
    /// suspected the dead rank, so the snapshot carries a non-empty
    /// membership view together with the recovery state built on it
    /// (adopted seeds, the master's requeued ledger, steal's token dead
    /// set) — and resuming from it is still byte-identical to the
    /// uninterrupted run, for every driver.
    #[test]
    fn kill_and_resume_mid_recovery_is_bit_identical() {
        for algo in Algorithm::ALL {
            let (ds, seeds, mut cfg) = fixture(algo);
            let mut chaos = crate::config::RankChaos::one_kill(3, 1.0e-3);
            chaos.heartbeat_period = 0.05;
            chaos.suspect_timeout = 0.5;
            cfg.rank_chaos = Some(chaos);
            let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();
            let r = &reference.report;
            assert_eq!(r.rank_deaths, vec![(3, 1.0e-3)], "{algo:?}");
            assert!(r.detection_latency_mean > 0.0, "{algo:?}: the death must be detected");
            let suspected = 1.0e-3 + r.detection_latency_mean;
            assert!(suspected < r.wall, "{algo:?}: recovery must outlast the suspicion");
            // The second cut falls midway between the suspicion and the end.
            let dir = tempdir(&format!("midrecovery-{}", cfg.algorithm.label()));
            let mut opts = CheckpointOptions::new(&dir, (suspected + r.wall) / 4.0);
            opts.kill_after = Some(2);
            killed(Run::new(&ds, &cfg, &seeds), opts);

            let latest = latest_checkpoint(&dir).unwrap().expect("snapshots on disk");
            let file = CkptFile::read(&latest).expect("readable snapshot");
            let taken_at = file.meta().expect("META section").taken_at;
            let ranks: Vec<RankSnapshot> = file.value(RANK_TAG).expect("RANK section");
            let first_suspicion = ranks
                .iter()
                .filter_map(liveness_of)
                .flat_map(|l| l.suspected_at.iter().map(|&(_, t)| t))
                .fold(f64::INFINITY, f64::min);
            assert!(
                taken_at > first_suspicion,
                "{algo:?}: cut at {taken_at} must follow the first suspicion at {first_suspicion}"
            );

            let resumed =
                Run::new(&ds, &cfg, &seeds).resume(&latest).go().expect("resume mid-recovery");
            assert_eq!(
                resumed.finished, reference.finished,
                "{algo:?}: streamlines diverged after resume"
            );
            assert_eq!(report_json(&resumed.report), report_json(r), "{algo:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn open_fixture(algorithm: Algorithm) -> (Dataset, SeedSource, RunConfig) {
        let (ds, _, cfg) = fixture(algorithm);
        // Two arrival epochs: the first lands before the earliest snapshot,
        // the second is still undelivered at a kill_after=2 cut (interval
        // 2e-4 ⇒ cut near t = 4e-4) — a genuinely mid-stream crash.
        let more = ds.seeds_with_count(Seeding::Dense, 10);
        let source = SeedSource::new(
            &ds.seeds_with_count(Seeding::Sparse, 17),
            vec![(1.0e-4, more.points[..5].to_vec()), (5.0e-4, more.points[5..].to_vec())],
        )
        .unwrap();
        (ds, source, cfg)
    }

    /// Mid-stream crash/restart of an open-loop run: kill each algorithm
    /// with an arrival epoch still undelivered, resume, and demand
    /// byte-equal streamlines and report vs. the uninterrupted open run.
    #[test]
    fn open_loop_kill_and_resume_is_bit_identical_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let (ds, source, cfg) = open_fixture(algo);
            let RunOutput { report: ref_report, finished: ref_lines, .. } =
                Run::new(&ds, &cfg, source.clone()).go().unwrap();
            assert_eq!(ref_report.terminated, source.total_seeds() as u64, "{algo:?}");

            let dir = tempdir(&format!("open-{}", cfg.algorithm.label()));
            let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
            opts.kill_after = Some(2);
            let (checkpoints, _) = killed(Run::new(&ds, &cfg, source.clone()), opts);

            // Resume from every snapshot; at least one cut must be
            // genuinely mid-stream (an arrival epoch still undelivered in
            // the snapshotted event queue).
            let mut mid_stream_cuts = 0usize;
            for snap in &checkpoints {
                let file = CkptFile::read(snap).expect("readable snapshot");
                let state: SimStateDto = file.value(SIM_TAG).expect("SIMS section");
                mid_stream_cuts +=
                    usize::from(state.pending.iter().any(|p| {
                        matches!(&p.ev, EventDto::Message { msg: Msg::Ingest { .. }, .. })
                    }));
                let resumed =
                    Run::new(&ds, &cfg, source.clone()).resume(snap).go().expect("open resume");
                assert_eq!(resumed.finished, ref_lines, "{algo:?}: streamlines diverged");
                assert_eq!(
                    report_json(&resumed.report),
                    report_json(&ref_report),
                    "{algo:?}: report not reconciled bit-identically"
                );
            }
            assert!(
                mid_stream_cuts > 0,
                "{algo:?}: some cut must carry undelivered arrival events"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Resuming an open checkpoint under a different arrival schedule (or
    /// as a closed run) is a typed mismatch, never a silently diverging run.
    #[test]
    fn open_resume_rejects_a_mismatched_ingest_schedule() {
        let (ds, source, cfg) = open_fixture(Algorithm::LoadOnDemand);
        let dir = tempdir("open-mismatch");
        let mut opts = CheckpointOptions::new(&dir, 2.0e-4);
        opts.kill_after = Some(1);
        killed(Run::new(&ds, &cfg, source.clone()), opts);
        let latest = latest_checkpoint(&dir).unwrap().expect("snapshot on disk");

        // Same seeds, one arrival nudged: bit-exact schedule check fires.
        let more = ds.seeds_with_count(Seeding::Dense, 10);
        let shifted = SeedSource::new(
            &ds.seeds_with_count(Seeding::Sparse, 17),
            vec![(1.0e-4, more.points[..5].to_vec()), (6.0e-4, more.points[5..].to_vec())],
        )
        .unwrap();
        let err = Run::new(&ds, &cfg, shifted)
            .resume(&latest)
            .go()
            .expect_err("shifted arrival schedule must be rejected");
        assert!(is_mismatch(&err), "{err:?}");

        // The same seeds as a closed set must reject an open snapshot
        // outright.
        let all = source.all_seeds();
        let err = Run::new(&ds, &cfg, &all)
            .resume(&latest)
            .go()
            .expect_err("closed resume of an open snapshot must be rejected");
        assert!(is_mismatch(&err), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A closed run's SPEC writes `"ingest":null`, and one without the key
    /// (written before ingestion existed) reads back as the same closed SPEC.
    #[test]
    fn a_closed_spec_writes_a_null_ingest_and_reads_without_one() {
        let (_, seeds, cfg) = fixture(Algorithm::LoadOnDemand);
        let json = serde_json::to_string(&SpecSection::new(&cfg, &SeedSource::closed(&seeds)))
            .expect("spec serializes");
        assert!(json.ends_with(r#","ingest":null}"#), "{json}");
        let legacy = json.replace(r#","ingest":null"#, "");
        let read: SpecSection = serde_json::from_str(&legacy).expect("legacy spec reads");
        assert!(read.ingest.is_none());
        assert_eq!(serde_json::to_string(&read).expect("spec serializes"), json);
    }

    /// Snapshots taken at different points of the same run must all resume
    /// to the same final answer (any checkpoint is a valid restart point).
    #[test]
    fn every_snapshot_of_a_run_resumes_to_the_same_answer() {
        let (ds, seeds, cfg) = fixture(Algorithm::StaticAllocation);
        let reference = Run::new(&ds, &cfg, &seeds).go().unwrap();

        let dir = tempdir("allsnaps");
        let opts = CheckpointOptions::new(&dir, 3.0e-4);
        let out = Run::new(&ds, &cfg, &seeds).checkpoint(opts).go().expect("checkpointed run");
        assert!(out.checkpoints.len() >= 2, "want several snapshots to replay");
        for snap in &out.checkpoints {
            let resumed = Run::new(&ds, &cfg, &seeds).resume(snap).go().expect("resume");
            assert_eq!(resumed.finished, reference.finished, "{snap:?}");
            assert_eq!(report_json(&resumed.report), report_json(&reference.report), "{snap:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
