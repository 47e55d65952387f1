//! Deterministic fault injection for block stores.
//!
//! The paper's premise is that blocks live on slow, shared, *unreliable*
//! storage. [`FaultStore`] wraps any [`BlockStore`] and injects a seeded,
//! per-block schedule of failures ([`FaultPlan`]): transient I/O errors that
//! clear after k attempts, permanent failures, corrupt-payload decode
//! errors, and extra latency. Every injection is counted exactly
//! ([`FaultCounters`]), so resilience tests can assert that the faults the
//! consumers observed are precisely the faults the plan injected — no more,
//! no fewer.
//!
//! The wrapper never mutates payloads: a successful load returns the inner
//! store's block untouched, so faults can delay or deny a block but never
//! poison a cache with corrupt data.

use crate::format::FormatError;
use crate::store::{BlockStore, StoreError};
use parking_lot::Mutex;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use streamline_field::block::{Block, BlockId};

/// Magic value used for injected corrupt-payload faults, distinguishable
/// from any real on-disk corruption in test assertions.
pub const INJECTED_BAD_MAGIC: u32 = 0xDEAD_BEEF;

/// The failure a block is scheduled to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The first `clears_after` attempts fail with an I/O error; attempts
    /// after that succeed (models a contended or flaky filesystem).
    TransientIo { clears_after: u32 },
    /// Every attempt fails with an I/O error (models a lost file or a dead
    /// storage target).
    PermanentIo,
    /// Every attempt reads a payload that fails to decode (models on-disk
    /// corruption; surfaces as a typed `Decode` error, never as bad data).
    CorruptPayload,
}

impl FaultKind {
    /// Whether this fault denies the block forever (no retry can clear it).
    pub fn is_permanent(&self) -> bool {
        matches!(self, FaultKind::PermanentIo | FaultKind::CorruptPayload)
    }
}

/// Faults scheduled for one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockFaults {
    /// Failure schedule, if any.
    pub kind: Option<FaultKind>,
    /// Extra wall-clock latency added to every attempt, including
    /// successful ones and attempts that then fail.
    pub latency: Option<Duration>,
}

/// Knobs for [`FaultPlan::random`]. All draws come from one seeded stream,
/// so a `(seed, num_blocks, params)` triple always yields the same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosParams {
    /// Probability that a block gets a failure schedule at all.
    pub fault_prob: f64,
    /// Of faulted blocks, probability the fault is transient (clears).
    pub transient_prob: f64,
    /// Of non-transient faults, probability the failure is a corrupt
    /// payload rather than a permanent I/O error.
    pub corrupt_prob: f64,
    /// Transient faults clear after `1..=max_clears` failed attempts.
    pub max_clears: u32,
    /// Probability that a block gets injected latency.
    pub latency_prob: f64,
    /// Injected latency is uniform in `0..=max_latency_us` microseconds.
    pub max_latency_us: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            fault_prob: 0.25,
            transient_prob: 0.75,
            corrupt_prob: 0.5,
            max_clears: 3,
            latency_prob: 0.1,
            max_latency_us: 500,
        }
    }
}

impl ChaosParams {
    /// Faults that retries always hide: every scheduled failure is
    /// transient. Used by chaos runs that assert bit-identity with a
    /// fault-free run.
    pub fn transient_only() -> Self {
        ChaosParams { fault_prob: 0.4, transient_prob: 1.0, ..ChaosParams::default() }
    }

    /// Reject parameters the RNG would panic on (probabilities outside
    /// [0, 1], non-finite values, a zero `max_clears` that would make the
    /// transient range `1..=0` empty).
    pub fn validate(&self) -> Result<(), ChaosConfigError> {
        prob("fault_prob", self.fault_prob)?;
        prob("transient_prob", self.transient_prob)?;
        prob("corrupt_prob", self.corrupt_prob)?;
        prob("latency_prob", self.latency_prob)?;
        if self.max_clears == 0 {
            return Err(ChaosConfigError::ZeroMaxClears);
        }
        Ok(())
    }
}

fn prob(name: &'static str, value: f64) -> Result<(), ChaosConfigError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ChaosConfigError::Probability { name, value })
    }
}

/// A chaos knob that would panic or misbehave inside the plan generator,
/// rejected up front instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosConfigError {
    /// A probability knob outside [0, 1] (or NaN/infinite).
    Probability { name: &'static str, value: f64 },
    /// `max_clears == 0` would make the transient clearing range empty.
    ZeroMaxClears,
    /// A rank-fault time window with `end < start`, or a non-finite or
    /// negative bound.
    Window { start: f64, end: f64 },
}

impl std::fmt::Display for ChaosConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosConfigError::Probability { name, value } => {
                write!(f, "chaos probability `{name}` must be in [0, 1], got {value}")
            }
            ChaosConfigError::ZeroMaxClears => {
                write!(f, "chaos `max_clears` must be at least 1")
            }
            ChaosConfigError::Window { start, end } => {
                write!(
                    f,
                    "rank-chaos window must satisfy 0 <= start <= end and be finite, \
                     got [{start}, {end}]"
                )
            }
        }
    }
}

impl std::error::Error for ChaosConfigError {}

/// A seeded, per-block fault schedule.
///
/// Built either explicitly (`transient` / `permanent` / `corrupt` /
/// `latency` builder calls) or randomly from a master seed
/// ([`FaultPlan::random`]). The plan is pure data — it does nothing until a
/// [`FaultStore`] executes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    blocks: BTreeMap<BlockId, BlockFaults>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule a transient I/O fault: the first `clears_after` attempts on
    /// `id` fail, later attempts succeed.
    pub fn transient(mut self, id: BlockId, clears_after: u32) -> Self {
        self.blocks.entry(id).or_default().kind = Some(FaultKind::TransientIo { clears_after });
        self
    }

    /// Schedule a permanent I/O fault on `id`.
    pub fn permanent(mut self, id: BlockId) -> Self {
        self.blocks.entry(id).or_default().kind = Some(FaultKind::PermanentIo);
        self
    }

    /// Schedule a corrupt-payload fault on `id` (every attempt decodes to
    /// [`FormatError::BadMagic`]).
    pub fn corrupt(mut self, id: BlockId) -> Self {
        self.blocks.entry(id).or_default().kind = Some(FaultKind::CorruptPayload);
        self
    }

    /// Add injected latency to every attempt on `id`.
    pub fn latency(mut self, id: BlockId, latency: Duration) -> Self {
        self.blocks.entry(id).or_default().latency = Some(latency);
        self
    }

    /// Draw a random plan over `num_blocks` blocks from a seeded stream.
    /// Rejects invalid `params` as a typed error instead of panicking inside
    /// the RNG.
    pub fn random(
        seed: u64,
        num_blocks: usize,
        params: &ChaosParams,
    ) -> Result<Self, ChaosConfigError> {
        params.validate()?;
        let mut rng = streamline_math::rng::stream(seed, "fault-plan");
        let mut blocks = BTreeMap::new();
        for i in 0..num_blocks {
            let mut bf = BlockFaults::default();
            if rng.gen_bool(params.fault_prob) {
                bf.kind = Some(if rng.gen_bool(params.transient_prob) {
                    FaultKind::TransientIo { clears_after: rng.gen_range(1..=params.max_clears) }
                } else if rng.gen_bool(params.corrupt_prob) {
                    FaultKind::CorruptPayload
                } else {
                    FaultKind::PermanentIo
                });
            }
            if params.latency_prob > 0.0 && rng.gen_bool(params.latency_prob) {
                bf.latency = Some(Duration::from_micros(rng.gen_range(0..=params.max_latency_us)));
            }
            if bf != BlockFaults::default() {
                blocks.insert(BlockId(i as u32), bf);
            }
        }
        Ok(FaultPlan { blocks })
    }

    /// Faults scheduled for `id` (default = none).
    pub fn faults_for(&self, id: BlockId) -> BlockFaults {
        self.blocks.get(&id).copied().unwrap_or_default()
    }

    /// Blocks no retry can ever produce (permanent I/O or corrupt payload),
    /// in ascending id order.
    pub fn unavailable_blocks(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, bf)| bf.kind.is_some_and(|k| k.is_permanent()))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Blocks with a transient fault, in ascending id order.
    pub fn transient_blocks(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, bf)| matches!(bf.kind, Some(FaultKind::TransientIo { .. })))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Whether the plan schedules any fault that survives retries.
    pub fn has_permanent_faults(&self) -> bool {
        self.blocks.values().any(|bf| bf.kind.is_some_and(|k| k.is_permanent()))
    }

    /// Number of blocks with any schedule (fault or latency).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterate over `(id, faults)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, BlockFaults)> + '_ {
        self.blocks.iter().map(|(&id, &bf)| (id, bf))
    }
}

/// Knobs for [`RankFaultPlan::random`]: seeded fail-stop rank kills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankChaosParams {
    /// Probability each rank is killed at all.
    pub kill_prob: f64,
    /// Kill times are uniform in `[window.0, window.1]` virtual seconds.
    pub window: (f64, f64),
}

impl Default for RankChaosParams {
    fn default() -> Self {
        RankChaosParams { kill_prob: 0.25, window: (0.0, 1e-2) }
    }
}

impl RankChaosParams {
    pub fn validate(&self) -> Result<(), ChaosConfigError> {
        prob("kill_prob", self.kill_prob)?;
        let (start, end) = self.window;
        if !(start.is_finite() && end.is_finite() && 0.0 <= start && start <= end) {
            return Err(ChaosConfigError::Window { start, end });
        }
        Ok(())
    }
}

/// A seeded schedule of fail-stop rank deaths, sorted by `(time, rank)`.
/// Pure data — it does nothing until a simulation executes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankFaultPlan {
    /// `(rank, virtual kill time)`, sorted by time then rank.
    pub deaths: Vec<(usize, f64)>,
}

impl RankFaultPlan {
    /// An empty plan (kills nobody).
    pub fn none() -> Self {
        RankFaultPlan::default()
    }

    /// Kill exactly one rank at one time.
    pub fn one(rank: usize, time: f64) -> Self {
        RankFaultPlan { deaths: vec![(rank, time)] }
    }

    /// Draw a random death schedule over `n_ranks` ranks from a seeded
    /// stream: each rank independently dies with `kill_prob` at a uniform
    /// time inside the window. A `(seed, n_ranks, params)` triple always
    /// yields the same plan.
    pub fn random(
        seed: u64,
        n_ranks: usize,
        params: &RankChaosParams,
    ) -> Result<Self, ChaosConfigError> {
        params.validate()?;
        let mut rng = streamline_math::rng::stream(seed, "rank-fault-plan");
        let (start, end) = params.window;
        let mut deaths = Vec::new();
        for rank in 0..n_ranks {
            if rng.gen_bool(params.kill_prob) {
                let t = if end > start { start + rng.gen::<f64>() * (end - start) } else { start };
                deaths.push((rank, t));
            }
        }
        deaths.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        Ok(RankFaultPlan { deaths })
    }

    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
    }

    pub fn len(&self) -> usize {
        self.deaths.len()
    }
}

/// Exact counts of what a [`FaultStore`] did, updated atomically so
/// concurrent consumers (the serve worker pool) keep them exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Total `try_load` attempts that reached the store.
    pub attempts: u64,
    /// Attempts that returned a block.
    pub served: u64,
    /// Injected I/O errors (transient and permanent).
    pub io_injected: u64,
    /// Injected corrupt-payload decode errors.
    pub decode_injected: u64,
    /// Attempts that were delayed by injected latency.
    pub latency_injected: u64,
}

impl FaultCounters {
    /// Total injected failures of any kind.
    pub fn faults_injected(&self) -> u64 {
        self.io_injected + self.decode_injected
    }

    /// Mirror these counters into `registry` under the stable
    /// `streamline_faults_*` names.
    pub fn export_into(&self, registry: &streamline_obs::MetricsRegistry) {
        use streamline_obs::names;
        registry.set_counter(names::FAULTS_ATTEMPTS_TOTAL, self.attempts);
        registry.set_counter(names::FAULTS_SERVED_TOTAL, self.served);
        registry.set_counter(names::FAULTS_IO_INJECTED_TOTAL, self.io_injected);
        registry.set_counter(names::FAULTS_DECODE_INJECTED_TOTAL, self.decode_injected);
        registry.set_counter(names::FAULTS_LATENCY_INJECTED_TOTAL, self.latency_injected);
    }
}

/// The mutable state a [`FaultStore`] accumulates mid-run: per-block attempt
/// counts (which drive the transient-clearing schedule) and the injection
/// counters. Checkpoints persist this so a resumed run observes the *same*
/// remaining fault schedule an uninterrupted run would.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultState {
    /// `(block, attempts seen so far)`, ascending by block id.
    pub attempts: Vec<(BlockId, u64)>,
    pub counters: FaultCounters,
}

#[derive(Default)]
struct AtomicCounters {
    attempts: AtomicU64,
    served: AtomicU64,
    io_injected: AtomicU64,
    decode_injected: AtomicU64,
    latency_injected: AtomicU64,
}

/// A [`BlockStore`] wrapper that executes a [`FaultPlan`] against an inner
/// store. Deterministic given the plan and the per-block attempt order;
/// thread-safe (attempt counts under a mutex, counters atomic).
pub struct FaultStore {
    inner: Arc<dyn BlockStore>,
    plan: FaultPlan,
    attempts: Mutex<HashMap<BlockId, u64>>,
    counters: AtomicCounters,
}

impl FaultStore {
    pub fn new(inner: Arc<dyn BlockStore>, plan: FaultPlan) -> Self {
        FaultStore {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            counters: AtomicCounters::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injection counters.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            attempts: self.counters.attempts.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            io_injected: self.counters.io_injected.load(Ordering::Relaxed),
            decode_injected: self.counters.decode_injected.load(Ordering::Relaxed),
            latency_injected: self.counters.latency_injected.load(Ordering::Relaxed),
        }
    }

    fn injected_path(id: BlockId) -> PathBuf {
        PathBuf::from(format!("fault://block_{:05}", id.0))
    }
}

impl BlockStore for FaultStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        // 1-based attempt number for this block; the mutex makes the
        // transient-clearing schedule exact even under racing loaders.
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts.entry(id).or_insert(0);
            *n += 1;
            *n
        };
        self.counters.attempts.fetch_add(1, Ordering::Relaxed);
        let faults = self.plan.faults_for(id);
        if let Some(latency) = faults.latency {
            self.counters.latency_injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(latency);
        }
        let fail_io = match faults.kind {
            Some(FaultKind::TransientIo { clears_after }) => attempt <= clears_after as u64,
            Some(FaultKind::PermanentIo) => true,
            Some(FaultKind::CorruptPayload) => {
                self.counters.decode_injected.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Decode {
                    path: Self::injected_path(id),
                    source: FormatError::BadMagic(INJECTED_BAD_MAGIC),
                });
            }
            None => false,
        };
        if fail_io {
            self.counters.io_injected.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Io {
                path: Self::injected_path(id),
                source: io::Error::other(format!("injected fault (attempt {attempt})")),
            });
        }
        let block = self.inner.try_load(id)?;
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        Ok(block)
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn fault_state(&self) -> Option<FaultState> {
        let mut attempts: Vec<(BlockId, u64)> =
            self.attempts.lock().iter().map(|(&id, &n)| (id, n)).collect();
        attempts.sort_by_key(|&(id, _)| id);
        Some(FaultState { attempts, counters: self.counters() })
    }

    fn restore_fault_state(&self, state: &FaultState) {
        *self.attempts.lock() = state.attempts.iter().copied().collect();
        let c = &state.counters;
        self.counters.attempts.store(c.attempts, Ordering::Relaxed);
        self.counters.served.store(c.served, Ordering::Relaxed);
        self.counters.io_injected.store(c.io_injected, Ordering::Relaxed);
        self.counters.decode_injected.store(c.decode_injected, Ordering::Relaxed);
        self.counters.latency_injected.store(c.latency_injected, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use streamline_field::block::Block;
    use streamline_math::{Aabb, Vec3};

    fn store_of(n: u32) -> Arc<dyn BlockStore> {
        let blocks = (0..n)
            .map(|i| Block::zeroed(BlockId(i), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)))
            .collect();
        Arc::new(MemoryStore::from_blocks(blocks))
    }

    #[test]
    fn transient_fault_clears_after_k_attempts() {
        let plan = FaultPlan::new().transient(BlockId(1), 2);
        let fs = FaultStore::new(store_of(4), plan);
        assert!(matches!(fs.try_load(BlockId(1)), Err(StoreError::Io { .. })));
        assert!(matches!(fs.try_load(BlockId(1)), Err(StoreError::Io { .. })));
        assert!(fs.try_load(BlockId(1)).is_ok());
        assert!(fs.try_load(BlockId(1)).is_ok());
        let c = fs.counters();
        assert_eq!(c.attempts, 4);
        assert_eq!(c.io_injected, 2);
        assert_eq!(c.served, 2);
    }

    #[test]
    fn permanent_fault_never_clears() {
        let plan = FaultPlan::new().permanent(BlockId(0));
        let fs = FaultStore::new(store_of(2), plan);
        for _ in 0..10 {
            assert!(matches!(fs.try_load(BlockId(0)), Err(StoreError::Io { .. })));
        }
        assert!(fs.try_load(BlockId(1)).is_ok());
        let c = fs.counters();
        assert_eq!(c.io_injected, 10);
        assert_eq!(c.served, 1);
        assert_eq!(c.attempts, 11);
    }

    #[test]
    fn corrupt_fault_is_typed_decode_error() {
        let plan = FaultPlan::new().corrupt(BlockId(2));
        let fs = FaultStore::new(store_of(4), plan);
        match fs.try_load(BlockId(2)) {
            Err(StoreError::Decode { source, .. }) => {
                assert_eq!(source, FormatError::BadMagic(INJECTED_BAD_MAGIC));
            }
            other => panic!("expected injected Decode error, got {other:?}"),
        }
        assert_eq!(fs.counters().decode_injected, 1);
    }

    #[test]
    fn unfaulted_blocks_pass_through_untouched() {
        let inner = store_of(4);
        let direct = inner.try_load(BlockId(3)).unwrap();
        let fs = FaultStore::new(inner, FaultPlan::new().permanent(BlockId(0)));
        let via = fs.try_load(BlockId(3)).unwrap();
        assert!(Arc::ptr_eq(&direct, &via), "FaultStore must not copy or alter blocks");
    }

    #[test]
    fn latency_fault_counts_and_delays() {
        let plan = FaultPlan::new().latency(BlockId(0), Duration::from_micros(100));
        let fs = FaultStore::new(store_of(1), plan);
        let t0 = std::time::Instant::now();
        assert!(fs.try_load(BlockId(0)).is_ok());
        assert!(t0.elapsed() >= Duration::from_micros(100));
        let c = fs.counters();
        assert_eq!(c.latency_injected, 1);
        assert_eq!(c.served, 1);
        assert_eq!(c.faults_injected(), 0, "latency alone is not a failure");
    }

    #[test]
    fn random_plan_is_deterministic_and_classified() {
        let params = ChaosParams::default();
        let a = FaultPlan::random(7, 512, &params).unwrap();
        let b = FaultPlan::random(7, 512, &params).unwrap();
        assert_eq!(a, b, "same seed must give the same plan");
        let c = FaultPlan::random(8, 512, &params).unwrap();
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
        // Every scheduled failure is classified exactly once.
        let perm = a.unavailable_blocks().len();
        let trans = a.transient_blocks().len();
        let with_kind = a.iter().filter(|(_, bf)| bf.kind.is_some()).count();
        assert_eq!(perm + trans, with_kind);
    }

    #[test]
    fn fault_state_roundtrip_resumes_the_schedule() {
        // A transient fault mid-schedule: 1 of 3 clearing attempts consumed.
        let plan = FaultPlan::new().transient(BlockId(1), 3);
        let fs = FaultStore::new(store_of(4), plan.clone());
        assert!(fs.try_load(BlockId(1)).is_err());
        let state = fs.fault_state().expect("FaultStore is stateful");
        assert_eq!(state.attempts, vec![(BlockId(1), 1)]);
        assert_eq!(state.counters.io_injected, 1);

        // A fresh store restored from the snapshot continues the schedule:
        // two more failures, then the fault clears — exactly as the original
        // would have.
        let resumed = FaultStore::new(store_of(4), plan);
        resumed.restore_fault_state(&state);
        assert!(resumed.try_load(BlockId(1)).is_err());
        assert!(resumed.try_load(BlockId(1)).is_err());
        assert!(resumed.try_load(BlockId(1)).is_ok());
        let c = resumed.counters();
        assert_eq!(c.attempts, 4, "counter continues from the snapshot");
        assert_eq!(c.io_injected, 3);
        assert_eq!(c.served, 1);
    }

    #[test]
    fn stateless_stores_have_no_fault_state() {
        let store = store_of(1);
        assert!(store.fault_state().is_none());
        // And restoring into one is a harmless no-op.
        store.restore_fault_state(&FaultState::default());
    }

    #[test]
    fn transient_only_plans_have_no_permanent_faults() {
        let plan = FaultPlan::random(3, 256, &ChaosParams::transient_only()).unwrap();
        assert!(!plan.has_permanent_faults());
        assert!(!plan.transient_blocks().is_empty());
    }

    #[test]
    fn out_of_range_probabilities_are_typed_errors_not_panics() {
        for (params, name) in [
            (ChaosParams { fault_prob: 1.5, ..ChaosParams::default() }, "fault_prob"),
            (ChaosParams { transient_prob: -0.1, ..ChaosParams::default() }, "transient_prob"),
            (ChaosParams { corrupt_prob: f64::NAN, ..ChaosParams::default() }, "corrupt_prob"),
            (ChaosParams { latency_prob: 2.0, ..ChaosParams::default() }, "latency_prob"),
        ] {
            match FaultPlan::random(1, 16, &params) {
                Err(ChaosConfigError::Probability { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected Probability error for {name}, got {other:?}"),
            }
        }
        assert_eq!(
            FaultPlan::random(1, 16, &ChaosParams { max_clears: 0, ..ChaosParams::default() }),
            Err(ChaosConfigError::ZeroMaxClears)
        );
    }

    #[test]
    fn rank_plan_is_deterministic_sorted_and_in_window() {
        let params = RankChaosParams { kill_prob: 0.5, window: (1e-3, 5e-3) };
        let a = RankFaultPlan::random(11, 64, &params).unwrap();
        let b = RankFaultPlan::random(11, 64, &params).unwrap();
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(!a.is_empty());
        for &(rank, t) in &a.deaths {
            assert!(rank < 64);
            assert!((1e-3..=5e-3).contains(&t), "kill time {t} outside window");
        }
        for w in a.deaths.windows(2) {
            assert!((w[0].1, w[0].0) < (w[1].1, w[1].0), "deaths not sorted");
        }
        assert_ne!(a, RankFaultPlan::random(12, 64, &params).unwrap());
    }

    #[test]
    fn rank_plan_rejects_bad_knobs() {
        assert!(matches!(
            RankFaultPlan::random(
                1,
                8,
                &RankChaosParams { kill_prob: 1.1, ..RankChaosParams::default() }
            ),
            Err(ChaosConfigError::Probability { name: "kill_prob", .. })
        ));
        assert!(matches!(
            RankFaultPlan::random(1, 8, &RankChaosParams { kill_prob: 0.5, window: (2.0, 1.0) }),
            Err(ChaosConfigError::Window { .. })
        ));
        assert!(matches!(
            RankFaultPlan::random(1, 8, &RankChaosParams { kill_prob: 0.5, window: (-1.0, 1.0) }),
            Err(ChaosConfigError::Window { .. })
        ));
        // A degenerate (point) window is fine: every death lands on it.
        let plan =
            RankFaultPlan::random(1, 8, &RankChaosParams { kill_prob: 1.0, window: (2.0, 2.0) })
                .unwrap();
        assert_eq!(plan.len(), 8);
        assert!(plan.deaths.iter().all(|&(_, t)| t == 2.0));
    }
}
