//! [`Run`]: the one entry point that executes a configured run.
//!
//! Every run takes the same path: build the ranks over the seed source's
//! ingest plan, drive them (on the simulated cluster, or on OS threads),
//! collect the report and drain the finished streamlines. The setters pick
//! what the path does on the way — which store serves blocks, whether a
//! phase timeline is recorded, whether snapshots are written or a snapshot
//! is resumed — and [`Run::go`] rejects the combinations the runtimes
//! cannot honour with a typed [`RunError`] instead of silently dropping
//! one of them.
//!
//! A closed seed set is the one-epoch [`SeedSource`]; it gets the same
//! schedule, traffic and streamlines as an open source with no arrivals,
//! and its report and checkpoints carry no ingest fields.

use crate::checkpoint::{self, CheckpointOptions, Written};
use crate::config::RunConfig;
use crate::driver::{
    apply_ingest_stats, build_arrivals, build_procs_planned, collect_pingpong_times,
    collect_report, drain_finished, make_sim, AnyProc, IngestPlan,
};
use crate::ingest::SeedSource;
use crate::oracle::{Oracle, OracleStats};
use crate::report::RunReport;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use streamline_ckpt::CkptError;
use streamline_desim::{ThreadRuntime, Timeline};
use streamline_field::dataset::Dataset;
use streamline_integrate::Streamline;
use streamline_iosim::{BlockStore, FieldStore};

/// A run of one [`RunConfig`] over one dataset and seed source.
///
/// ```
/// use streamline_core::{Algorithm, Run, RunConfig};
/// use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
///
/// let mut dcfg = DatasetConfig::tiny();
/// dcfg.blocks_per_axis = [2, 2, 2];
/// let dataset = Dataset::thermal_hydraulics(dcfg);
/// let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
/// let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 4);
/// cfg.limits.max_steps = 200;
/// let out = Run::new(&dataset, &cfg, &seeds).trace(0.05).go().unwrap();
/// assert_eq!(out.finished.len(), 16);
/// assert!(out.timeline.is_some());
/// ```
pub struct Run<'a> {
    dataset: &'a Dataset,
    cfg: &'a RunConfig,
    source: SeedSource,
    store: Option<Arc<dyn BlockStore>>,
    trace: Option<f64>,
    checkpoint: Option<CheckpointOptions>,
    resume: Option<PathBuf>,
    threads: Option<Duration>,
    /// The segment oracle a test installs instead of the run's own.
    #[cfg(test)]
    oracle: Option<Oracle>,
}

/// What a completed run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub report: RunReport,
    /// Every finished streamline, sorted by id — one record per seed.
    pub finished: Vec<Streamline>,
    /// The virtual-time phase timeline, when [`Run::trace`] was set.
    pub timeline: Option<Timeline>,
    /// Sorted virtual times at which ping-pongs were first detected — the
    /// series behind a trace file's cumulative ping-pong curve.
    pub pingpong_times: Vec<f64>,
    /// Snapshot files written, in order (empty unless checkpointed).
    pub checkpoints: Vec<PathBuf>,
    /// Total snapshot bytes written.
    pub checkpoint_bytes: u64,
    /// What the run's segment oracle did on the host. These numbers
    /// depend on thread timing, so they are not part of the report.
    pub oracle: OracleStats,
}

/// Why [`Run::go`] produced no [`RunOutput`].
#[derive(Debug)]
pub enum RunError {
    /// Two settings the runtimes cannot combine: `trace` with `checkpoint`
    /// or `resume`, `checkpoint` with `resume`, or `threads` with anything
    /// the thread runtime lacks (an open source, rank chaos, `checkpoint`,
    /// `resume`, `trace`).
    Unsupported { setting: &'static str, with: &'static str },
    /// A timeline bucket or checkpoint interval that is not positive and
    /// finite.
    BadValue { setting: &'static str, value: f64 },
    /// Writing a snapshot failed, or the resumed snapshot is unreadable or
    /// belongs to a different run.
    Ckpt(CkptError),
    /// The run stopped after `kill_after` snapshots, as requested; resume
    /// it from the last of `checkpoints`.
    Killed { checkpoints: Vec<PathBuf>, bytes_written: u64 },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Unsupported { setting, with } => {
                write!(f, "{setting} cannot be combined with {with}")
            }
            RunError::BadValue { setting, value } => {
                write!(f, "{setting} must be positive and finite, got {value}")
            }
            RunError::Ckpt(e) => write!(f, "{e}"),
            RunError::Killed { checkpoints, .. } => {
                write!(f, "run abandoned after {} snapshots as requested", checkpoints.len())
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> Self {
        RunError::Ckpt(e)
    }
}

impl<'a> Run<'a> {
    /// A run of `cfg` over `dataset`. `seeds` is a closed
    /// [`SeedSet`](streamline_field::seeds::SeedSet) or an
    /// open [`SeedSource`]. Without further settings it runs on the
    /// simulated cluster over a [`FieldStore`] of `dataset`.
    pub fn new(dataset: &'a Dataset, cfg: &'a RunConfig, seeds: impl Into<SeedSource>) -> Self {
        Run {
            dataset,
            cfg,
            source: seeds.into(),
            store: None,
            trace: None,
            checkpoint: None,
            resume: None,
            threads: None,
            #[cfg(test)]
            oracle: None,
        }
    }

    /// Advance through `oracle` instead of the run's own.
    #[cfg(test)]
    pub(crate) fn oracle(mut self, oracle: Oracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Serve blocks from `store` (e.g. a [`streamline_iosim::MemoryStore`]
    /// shared across a sweep, or a [`streamline_iosim::FaultStore`]).
    pub fn store(mut self, store: Arc<dyn BlockStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Record a virtual-time phase timeline at `bucket` virtual-second
    /// resolution.
    pub fn trace(mut self, bucket: f64) -> Self {
        self.trace = Some(bucket);
        self
    }

    /// Write periodic snapshots as `opts` says.
    pub fn checkpoint(mut self, opts: CheckpointOptions) -> Self {
        self.checkpoint = Some(opts);
        self
    }

    /// Resume from the snapshot at `path` instead of starting fresh. The
    /// dataset, seeds, config and store must be rebuilt as for the original
    /// run; the snapshot's SPEC section is verified against them.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Run on real OS threads, giving up after `timeout`: wall time is
    /// measured, not simulated; `charge_*` amounts still fill the metric
    /// buckets.
    pub fn threads(mut self, timeout: Duration) -> Self {
        self.threads = Some(timeout);
        self
    }

    #[cfg(test)]
    fn installed_oracle(&self) -> Option<Oracle> {
        self.oracle.clone()
    }

    #[cfg(not(test))]
    fn installed_oracle(&self) -> Option<Oracle> {
        None
    }

    fn check(&self) -> Result<(), RunError> {
        let unsupported = |setting, with| Err(RunError::Unsupported { setting, with });
        if let Some(bucket) = self.trace {
            if !(bucket > 0.0 && bucket.is_finite()) {
                return Err(RunError::BadValue { setting: "trace bucket", value: bucket });
            }
        }
        if let Some(opts) = &self.checkpoint {
            if !(opts.interval > 0.0 && opts.interval.is_finite()) {
                let value = opts.interval;
                return Err(RunError::BadValue { setting: "checkpoint interval", value });
            }
        }
        if self.trace.is_some() && self.checkpoint.is_some() {
            return unsupported("trace", "checkpoint");
        }
        if self.trace.is_some() && self.resume.is_some() {
            return unsupported("trace", "resume");
        }
        if self.checkpoint.is_some() && self.resume.is_some() {
            return unsupported("checkpoint", "resume");
        }
        if self.threads.is_some() {
            let lacking = [
                (!self.source.is_closed(), "an open seed source"),
                (self.cfg.rank_chaos.is_some(), "rank chaos"),
                (self.checkpoint.is_some(), "checkpoint"),
                (self.resume.is_some(), "resume"),
                (self.trace.is_some(), "trace"),
            ];
            if let Some(&(_, with)) = lacking.iter().find(|(set, _)| *set) {
                return unsupported("threads", with);
            }
        }
        Ok(())
    }

    /// Execute the run.
    pub fn go(self) -> Result<RunOutput, RunError> {
        self.check()?;
        let all = self.source.all_seeds();
        let oracle = Stopping(self.installed_oracle().unwrap_or_else(|| {
            let (decomp, limits) = (self.dataset.decomp, self.cfg.limits);
            Oracle::new(decomp, limits, self.cfg.batch.resolve(), all.len())
        }));
        let Run { dataset, cfg, source, store, trace, checkpoint, resume, threads, .. } = self;
        let store = store.unwrap_or_else(|| Arc::new(FieldStore::new(dataset.clone())));
        let mut procs = build_procs_planned(
            dataset,
            &source.base(),
            cfg,
            Arc::clone(&store),
            &IngestPlan::of(&source),
            Some(&oracle.0),
        );
        let mut timeline = None;
        let mut written = Written::default();
        let (sim_report, mut procs) = if let Some(timeout) = threads {
            ThreadRuntime::new(cfg.cost.net, procs).run_until_finished(timeout, AnyProc::retired)
        } else {
            let state = resume
                .map(|path| checkpoint::restore(&path, dataset, cfg, &source, &store, &mut procs))
                .transpose()?;
            // A resumed simulation ignores the arrivals: its cut already
            // holds the undelivered ones.
            let sim = make_sim(cfg, procs).with_arrivals(build_arrivals(dataset, &source, cfg));
            match (state, checkpoint, trace) {
                (Some(state), _, _) => sim.resume(state),
                (None, Some(opts), _) => {
                    let (report, procs, w) =
                        checkpoint::drive(sim, &opts, dataset, cfg, &source, &store)?;
                    written = w;
                    let Some(report) = report else {
                        let Written { paths: checkpoints, bytes: bytes_written } = written;
                        return Err(RunError::Killed { checkpoints, bytes_written });
                    };
                    (report, procs)
                }
                (None, None, Some(bucket)) => {
                    let (report, procs, t) = sim.run_traced(bucket);
                    timeline = Some(t);
                    (report, procs)
                }
                (None, None, None) => sim.run(),
            }
        };
        oracle.0.stop();
        let mut report = collect_report(dataset, &all, cfg, sim_report, &procs);
        if !source.is_closed() {
            apply_ingest_stats(&mut report, &source, &procs);
        }
        let pingpong_times = collect_pingpong_times(&procs);
        let finished = drain_finished(&all, cfg, &report.rank_deaths, &mut procs);
        Ok(RunOutput {
            report,
            finished,
            timeline,
            pingpong_times,
            checkpoints: written.paths,
            checkpoint_bytes: written.bytes,
            oracle: oracle.0.stats(),
        })
    }
}

/// Stops the run's oracle however [`Run::go`] returns.
struct Stopping(Oracle);

impl Drop for Stopping {
    fn drop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, RankChaos};
    use streamline_field::dataset::{DatasetConfig, Seeding};
    use streamline_field::seeds::SeedSet;

    fn fixture() -> (Dataset, SeedSet, RunConfig) {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 8);
        let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 2);
        cfg.limits.max_steps = 100;
        (ds, seeds, cfg)
    }

    fn unsupported(err: RunError) -> (&'static str, &'static str) {
        match err {
            RunError::Unsupported { setting, with } => (setting, with),
            other => panic!("expected an unsupported combination, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_values_are_typed_errors_not_panics() {
        let (ds, seeds, cfg) = fixture();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match Run::new(&ds, &cfg, &seeds).trace(bad).go() {
                Err(RunError::BadValue { setting: "trace bucket", .. }) => {}
                other => panic!("trace bucket {bad}: {other:?}"),
            }
            let opts = CheckpointOptions::new(std::env::temp_dir(), bad);
            match Run::new(&ds, &cfg, &seeds).checkpoint(opts).go() {
                Err(RunError::BadValue { setting: "checkpoint interval", .. }) => {}
                other => panic!("checkpoint interval {bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn combinations_the_runtimes_lack_are_typed_errors() {
        let (ds, seeds, cfg) = fixture();
        let opts = || CheckpointOptions::new(std::env::temp_dir(), 0.1);
        let run = || Run::new(&ds, &cfg, &seeds);
        let err = |r: Run<'_>| unsupported(r.go().expect_err("unsupported combination"));
        assert_eq!(err(run().trace(0.05).checkpoint(opts())), ("trace", "checkpoint"));
        assert_eq!(err(run().trace(0.05).resume("ck")), ("trace", "resume"));
        assert_eq!(err(run().checkpoint(opts()).resume("ck")), ("checkpoint", "resume"));
        let threads = || run().threads(Duration::from_secs(10));
        assert_eq!(err(threads().checkpoint(opts())), ("threads", "checkpoint"));
        assert_eq!(err(threads().resume("ck")), ("threads", "resume"));
        assert_eq!(err(threads().trace(0.05)), ("threads", "trace"));
        let open = SeedSource::new(&seeds, vec![(1e-4, seeds.points.clone())]).unwrap();
        let r = Run::new(&ds, &cfg, open).threads(Duration::from_secs(10));
        assert_eq!(err(r), ("threads", "an open seed source"));
    }

    /// The thread runtime has no death schedule: a rank-chaos config on
    /// threads would silently run fault-free, so it is refused instead.
    #[test]
    fn threads_with_rank_chaos_is_an_error_not_a_different_run() {
        let (ds, seeds, mut cfg) = fixture();
        cfg.rank_chaos = Some(RankChaos::one_kill(1, 1e-4));
        let err = Run::new(&ds, &cfg, &seeds).threads(Duration::from_secs(10)).go().unwrap_err();
        assert_eq!(unsupported(err), ("threads", "rank chaos"));
        // Without chaos the same threaded run completes.
        cfg.rank_chaos = None;
        let out = Run::new(&ds, &cfg, &seeds).threads(Duration::from_secs(60)).go().unwrap();
        assert_eq!(out.report.terminated, 8);
        assert_eq!(out.finished.len(), 8);
    }
}
