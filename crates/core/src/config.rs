//! Run configuration: which algorithm, how many processors, and every cost
//! and tuning knob of §4.

use serde::{Deserialize, Serialize};
use streamline_desim::NetModel;
use streamline_integrate::StepLimits;
use streamline_iosim::DiskModel;

/// The three parallelization strategies of §4, plus the decentralized
/// work-stealing driver from the follow-up load-balancing literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// §4.1 — parallelize over blocks, communicate streamlines.
    StaticAllocation,
    /// §4.2 — parallelize over streamlines, load blocks on demand.
    LoadOnDemand,
    /// §4.3 — the paper's contribution: masters dynamically assign both.
    HybridMasterSlave,
    /// Masterless peer-to-peer balancing: idle ranks steal seed batches from
    /// lifeline neighbors, busy ranks advertise load diffusively, and a
    /// Safra-style termination token replaces the master's global count.
    WorkStealing,
}

impl Algorithm {
    pub const ALL: [Algorithm; 4] = [
        Algorithm::StaticAllocation,
        Algorithm::LoadOnDemand,
        Algorithm::HybridMasterSlave,
        Algorithm::WorkStealing,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Algorithm::StaticAllocation => "static",
            Algorithm::LoadOnDemand => "load-on-demand",
            Algorithm::HybridMasterSlave => "hybrid",
            Algorithm::WorkStealing => "steal",
        }
    }
}

/// Tuning parameters of the Hybrid Master/Slave algorithm, with the paper's
/// §4.3 values as defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridParams {
    /// `N` — seeds per assignment ("Initially, each slave is assigned
    /// N = 10 streamlines").
    pub n_assign: usize,
    /// `N_O = overload_factor × N` — a slave's workload is not raised above
    /// this by reassignment ("we typically choose as N_O = 20 × N").
    pub overload_factor: usize,
    /// `N_L` — a slave with at least this many streamlines parked in one
    /// unloaded block loads the block itself rather than migrating them
    /// ("we have obtained good results with N_L = 40").
    pub n_load: usize,
    /// `W` — slaves per master ("We typically use one master per W = 32
    /// slaves").
    pub slaves_per_master: usize,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams { n_assign: 10, overload_factor: 20, n_load: 40, slaves_per_master: 32 }
    }
}

impl HybridParams {
    /// The overload limit `N_O`.
    pub fn overload_limit(&self) -> usize {
        self.overload_factor * self.n_assign
    }

    /// Number of master ranks for `n_procs` total ranks: one per `W` slaves,
    /// at least one, and always at least one slave.
    pub fn n_masters(&self, n_procs: usize) -> usize {
        assert!(n_procs >= 2, "hybrid needs at least one master and one slave");
        let m = n_procs.div_ceil(self.slaves_per_master + 1);
        m.min(n_procs - 1).max(1)
    }
}

/// A steal/diffusion knob combination the driver cannot run with. Surfaced
/// as a typed error (not a panic) so the CLI can reject bad invocations
/// with a usage message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StealConfigError {
    /// `neighbor_degree` must be at least 1 — a rank with no lifeline
    /// neighbors can neither steal nor pass the termination token.
    ZeroNeighborDegree,
    /// `diffusion_period` must be a positive, finite virtual-seconds value;
    /// zero would busy-spin the event simulation.
    BadDiffusionPeriod,
    /// `steal_batch` must be at least 1 — otherwise every steal request is
    /// a refusal and idle ranks can never acquire work.
    ZeroStealBatch,
}

impl std::fmt::Display for StealConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StealConfigError::ZeroNeighborDegree => {
                write!(f, "steal neighbor degree must be >= 1")
            }
            StealConfigError::BadDiffusionPeriod => {
                write!(f, "steal diffusion period must be a positive, finite number of seconds")
            }
            StealConfigError::ZeroStealBatch => write!(f, "steal batch size must be >= 1"),
        }
    }
}

impl std::error::Error for StealConfigError {}

/// Tuning parameters of the decentralized work-stealing driver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StealParams {
    /// Lifeline out-degree: rank `r` is linked to `(r + 2^j) mod n` for
    /// `j in 0..neighbor_degree` (a hypercube-style lifeline graph whose
    /// `j = 0` edges form the ring the termination token travels).
    pub neighbor_degree: usize,
    /// Virtual seconds between diffusion ticks: busy ranks report their
    /// load to neighbors and rank 0 paces termination-token retries.
    pub diffusion_period: f64,
    /// Maximum streamlines per steal grant or diffusion transfer.
    pub steal_batch: usize,
}

impl Default for StealParams {
    fn default() -> Self {
        StealParams { neighbor_degree: 2, diffusion_period: 5e-3, steal_batch: 8 }
    }
}

impl StealParams {
    /// Check the knobs are runnable; the CLI surfaces the error as a usage
    /// message instead of letting the driver panic mid-run.
    pub fn validate(&self) -> Result<(), StealConfigError> {
        if self.neighbor_degree == 0 {
            return Err(StealConfigError::ZeroNeighborDegree);
        }
        if !(self.diffusion_period.is_finite() && self.diffusion_period > 0.0) {
            return Err(StealConfigError::BadDiffusionPeriod);
        }
        if self.steal_batch == 0 {
            return Err(StealConfigError::ZeroStealBatch);
        }
        Ok(())
    }
}

/// A batch-kernel knob combination the drivers cannot run with, surfaced
/// as a typed error so the CLI can reject bad invocations with a usage
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchConfigError {
    /// `lanes` must be at least 1 — a zero-lane batch advances nothing and
    /// every driver drain loop would spin forever.
    ZeroBatchLanes,
}

impl std::fmt::Display for BatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchConfigError::ZeroBatchLanes => write!(f, "batch size must be >= 1"),
        }
    }
}

impl std::error::Error for BatchConfigError {}

/// Tuning of the SoA batch advection kernel every driver and the serve
/// worker pool advance streamlines with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BatchParams {
    /// Maximum streamlines advanced per batch-kernel call. `None` (the
    /// default) resolves to [`BatchParams::AUTO_LANES`]. Batch size never
    /// changes results — every lane is bit-identical to the scalar path —
    /// only how much independent work the kernel overlaps.
    pub lanes: Option<usize>,
}

impl BatchParams {
    /// The `lanes` value `None` resolves to: wide enough to amortize the
    /// dispatch and fill the pipeline, small enough that a partially-filled
    /// last batch stays cheap on the paper's workloads.
    pub const AUTO_LANES: usize = 16;

    /// Check the knobs are runnable; the CLI surfaces the error as a usage
    /// message instead of letting a driver spin.
    pub fn validate(&self) -> Result<(), BatchConfigError> {
        match self.lanes {
            Some(0) => Err(BatchConfigError::ZeroBatchLanes),
            _ => Ok(()),
        }
    }

    /// The effective lane count (auto resolved).
    pub fn resolve(&self) -> usize {
        self.lanes.unwrap_or(Self::AUTO_LANES)
    }
}

/// Rank fail-stop chaos: a seeded death schedule plus the failure-detector
/// cadence the drivers use to suspect dead peers. `Some(..)` switches every
/// driver into resilient mode (heartbeats, adoption, membership-aware
/// termination); `None` (the default) leaves the protocols untouched so
/// fault-free runs stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankChaos {
    /// Seed for the random death schedule ([`RankFaultPlan`] stream).
    pub seed: u64,
    /// Probability each rank is killed at all.
    pub kill_prob: f64,
    /// Kill times are uniform in `[window.0, window.1]` virtual seconds.
    pub window: (f64, f64),
    /// Overrides the random schedule with exactly one `(rank, time)` kill.
    #[serde(default)]
    pub kill: Option<(usize, f64)>,
    /// Virtual seconds between liveness heartbeats.
    pub heartbeat_period: f64,
    /// Virtual seconds of silence before a watched peer is suspected dead.
    pub suspect_timeout: f64,
}

impl RankChaos {
    /// Random schedule from `seed` with the default knobs.
    pub fn seeded(seed: u64) -> Self {
        // A busy rank defers beat processing for as long as one handler
        // charges — block loads are ~28 ms and a drain sweep can charge
        // many of them — so the timeout is generous to keep false suspicion
        // rare. Rare is not never: a falsely suspected rank's work is
        // recovered as if it had died, so it can run twice or be lost;
        // collection still accounts every seed exactly once.
        RankChaos {
            seed,
            kill_prob: 0.5,
            window: (0.0, 1.0),
            kill: None,
            heartbeat_period: 0.1,
            suspect_timeout: 1.0,
        }
    }

    /// Exactly one kill, for targeted tests and the CI smoke.
    pub fn one_kill(rank: usize, time: f64) -> Self {
        RankChaos { kill: Some((rank, time)), ..RankChaos::seeded(0) }
    }

    /// Check the knobs are runnable; surfaces the same typed errors as the
    /// block-fault chaos config.
    pub fn validate(&self) -> Result<(), streamline_iosim::ChaosConfigError> {
        if let Some((_, time)) = self.kill {
            if !(time.is_finite() && time >= 0.0) {
                return Err(streamline_iosim::ChaosConfigError::Window { start: time, end: time });
            }
        }
        streamline_iosim::RankChaosParams { kill_prob: self.kill_prob, window: self.window }
            .validate()?;
        let ok = |v: f64| v.is_finite() && v > 0.0;
        if !ok(self.heartbeat_period) {
            return Err(streamline_iosim::ChaosConfigError::Probability {
                name: "heartbeat_period",
                value: self.heartbeat_period,
            });
        }
        if !ok(self.suspect_timeout) {
            return Err(streamline_iosim::ChaosConfigError::Probability {
                name: "suspect_timeout",
                value: self.suspect_timeout,
            });
        }
        Ok(())
    }

    /// The death schedule for `n_ranks` ranks: either the explicit kill or
    /// the seeded random plan. Panics on invalid knobs — call
    /// [`RankChaos::validate`] at the config boundary first.
    pub fn plan(&self, n_ranks: usize) -> Vec<(usize, f64)> {
        match self.kill {
            Some((rank, time)) if rank < n_ranks => vec![(rank, time)],
            Some(_) => Vec::new(),
            None => {
                let params = streamline_iosim::RankChaosParams {
                    kill_prob: self.kill_prob,
                    window: self.window,
                };
                streamline_iosim::RankFaultPlan::random(self.seed, n_ranks, &params)
                    .expect("rank-chaos knobs validated at the config boundary")
                    .deaths
            }
        }
    }

    /// Virtual time past which resilience heartbeats stop re-arming: late
    /// enough that any chain of suspicions triggered by deaths inside the
    /// window can unwind (one timeout per hop), yet finite, so no death
    /// schedule can keep the event queue alive forever.
    pub fn beat_deadline(&self, n_ranks: usize) -> f64 {
        let window_end = match self.kill {
            Some((_, time)) => self.window.1.max(time),
            None => self.window.1,
        };
        window_end + (n_ranks as f64 + 2.0) * (self.suspect_timeout + 2.0 * self.heartbeat_period)
    }
}

/// Per-rank memory budget (logical bytes: resident blocks at paper scale
/// plus streamline geometry). `None` disables the check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBudget {
    pub bytes: Option<f64>,
    /// Logical bytes per stored curve vertex. A visualization pipeline keeps
    /// more than the bare position per vertex (time, scalar attributes,
    /// cell bookkeeping), which is what makes geometry the memory hazard the
    /// paper hits in §5.3.
    pub vertex_bytes: f64,
    /// Logical bytes per resident streamline *object* — solver workspace,
    /// attribute buffers, pipeline bookkeeping. This fixed overhead is what
    /// makes "all 22,000 seed points being processed on a single processor"
    /// (§5.3) fatal for Static Allocation regardless of how far each curve
    /// is integrated.
    pub stream_bytes: f64,
}

impl MemoryBudget {
    /// The default models one JaguarPF core's share of node memory.
    pub fn paper_scale() -> Self {
        MemoryBudget { bytes: Some(1.2e9), vertex_bytes: 64.0, stream_bytes: 64.0 * 1024.0 }
    }

    pub fn unlimited() -> Self {
        MemoryBudget { bytes: None, vertex_bytes: 64.0, stream_bytes: 64.0 * 1024.0 }
    }

    pub fn exceeded(&self, used: f64) -> bool {
        self.bytes.is_some_and(|b| used > b)
    }
}

/// Cost model tying the scaled-down in-memory run back to paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Charged seconds per accepted integration step (per-step cost of
    /// RK4(5) stages + interpolation on a 1M-cell block).
    pub sec_per_step: f64,
    pub disk: DiskModel,
    pub net: NetModel,
}

impl CostModel {
    pub fn paper_scale() -> Self {
        CostModel {
            sec_per_step: 5e-6,
            disk: DiskModel::paper_scale(),
            net: NetModel::paper_scale(),
        }
    }
}

/// Everything a run needs besides the dataset and seeds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunConfig {
    pub algorithm: Algorithm,
    pub n_procs: usize,
    #[serde(skip, default)]
    pub limits: StepLimits,
    pub cost: CostModel,
    /// LRU capacity in blocks for Load On Demand and Hybrid slaves.
    pub cache_blocks: usize,
    pub memory: MemoryBudget,
    pub hybrid: HybridParams,
    #[serde(default)]
    pub steal: StealParams,
    /// Batch advection kernel tuning (resolved lane count feeds every
    /// driver's workspace and is part of the checkpoint SPEC).
    #[serde(default)]
    pub batch: BatchParams,
    /// Communicate full streamline geometry (the measured configuration;
    /// §8 discusses the compact solver-state alternative).
    pub comm_geometry: bool,
    /// Block-to-rank mapping for Static Allocation (§4.1 uses contiguous).
    pub static_partition: crate::static_alloc::StaticPartition,
    /// Fail-stop rank chaos. `None` (the default) runs every driver
    /// bit-identically to the pre-resilience code paths.
    #[serde(default)]
    pub rank_chaos: Option<RankChaos>,
}

impl RunConfig {
    pub fn new(algorithm: Algorithm, n_procs: usize) -> Self {
        RunConfig {
            algorithm,
            n_procs,
            limits: StepLimits::default(),
            cost: CostModel::paper_scale(),
            cache_blocks: 32,
            memory: MemoryBudget::paper_scale(),
            hybrid: HybridParams::default(),
            steal: StealParams::default(),
            batch: BatchParams::default(),
            comm_geometry: true,
            static_partition: crate::static_alloc::StaticPartition::Contiguous,
            rank_chaos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let h = HybridParams::default();
        assert_eq!(h.n_assign, 10);
        assert_eq!(h.overload_limit(), 200);
        assert_eq!(h.n_load, 40);
        assert_eq!(h.slaves_per_master, 32);
    }

    #[test]
    fn master_counts() {
        let h = HybridParams::default();
        // 33 ranks = 1 master + 32 slaves.
        assert_eq!(h.n_masters(33), 1);
        assert_eq!(h.n_masters(2), 1);
        assert_eq!(h.n_masters(64), 2);
        assert_eq!(h.n_masters(512), 16);
        // Degenerate: more masters would leave no slaves.
        assert_eq!(h.n_masters(3), 1);
    }

    #[test]
    fn memory_budget() {
        let b = MemoryBudget { bytes: Some(100.0), vertex_bytes: 64.0, stream_bytes: 65536.0 };
        assert!(b.exceeded(101.0));
        assert!(!b.exceeded(100.0));
        assert!(!MemoryBudget::unlimited().exceeded(f64::MAX));
    }

    #[test]
    fn algorithm_labels_unique() {
        let labels: std::collections::HashSet<_> =
            Algorithm::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn steal_params_validate() {
        assert_eq!(StealParams::default().validate(), Ok(()));
        let p = StealParams { neighbor_degree: 0, ..StealParams::default() };
        assert_eq!(p.validate(), Err(StealConfigError::ZeroNeighborDegree));
        let p = StealParams { diffusion_period: 0.0, ..StealParams::default() };
        assert_eq!(p.validate(), Err(StealConfigError::BadDiffusionPeriod));
        let p = StealParams { diffusion_period: f64::NAN, ..StealParams::default() };
        assert_eq!(p.validate(), Err(StealConfigError::BadDiffusionPeriod));
        let p = StealParams { steal_batch: 0, ..StealParams::default() };
        assert_eq!(p.validate(), Err(StealConfigError::ZeroStealBatch));
        // The errors render as usage text, not Debug noise.
        assert!(StealConfigError::ZeroStealBatch.to_string().contains("batch"));
    }

    #[test]
    fn rank_chaos_validate_and_plan() {
        assert_eq!(RankChaos::seeded(7).validate(), Ok(()));
        let bad = RankChaos { kill_prob: 1.5, ..RankChaos::seeded(0) };
        assert!(bad.validate().is_err());
        let bad = RankChaos { window: (3.0, 1.0), ..RankChaos::seeded(0) };
        assert!(bad.validate().is_err());
        let bad = RankChaos { heartbeat_period: 0.0, ..RankChaos::seeded(0) };
        assert!(bad.validate().is_err());
        let bad = RankChaos { suspect_timeout: f64::NAN, ..RankChaos::seeded(0) };
        assert!(bad.validate().is_err());
        // Deterministic plan; explicit kill overrides it.
        let rc = RankChaos::seeded(7);
        assert_eq!(rc.plan(64), rc.plan(64));
        let one = RankChaos::one_kill(3, 2e-3);
        assert_eq!(one.plan(8), vec![(3, 2e-3)]);
        assert!(one.plan(2).is_empty(), "kill of an absent rank is dropped");
        // The beat deadline is finite and past the kill window.
        assert!(rc.beat_deadline(64).is_finite());
        assert!(rc.beat_deadline(64) > rc.window.1);
        assert!(one.beat_deadline(8) > 2e-3);
    }

    #[test]
    fn batch_params_validate() {
        assert_eq!(BatchParams::default().validate(), Ok(()));
        assert_eq!(BatchParams::default().resolve(), BatchParams::AUTO_LANES);
        let p = BatchParams { lanes: Some(4) };
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.resolve(), 4);
        let p = BatchParams { lanes: Some(0) };
        assert_eq!(p.validate(), Err(BatchConfigError::ZeroBatchLanes));
        assert!(BatchConfigError::ZeroBatchLanes.to_string().contains(">= 1"));
    }
}
