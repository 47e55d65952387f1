//! The bookkeeping every integrating rank keeps, whatever its scheduler.
//!
//! All three of the paper's schemes (§4.1–4.3) and the work-stealing driver
//! run the same per-rank loop: place a seed in its block, "integrate all
//! streamlines to the edge of the loaded blocks", then load or communicate.
//! [`RankCore`] owns the state that loop touches — the workspace, the
//! finished list, the memory budget, the per-epoch retirement ledger and the
//! ping-pong record — and its one copy of each rule. The drivers keep only
//! what differs: where a streamline that left a block goes, when a block is
//! loaded, and their protocol state.

use crate::config::MemoryBudget;
use crate::ingest::EpochMap;
use crate::msg::Msg;
use crate::termination::FrontierDetector;
use crate::workspace::{BlockExit, Workspace, WorkspaceSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use streamline_desim::Context;
use streamline_field::block::BlockId;
use streamline_integrate::{Streamline, StreamlineId, Termination};
use streamline_iosim::StoreError;
use streamline_math::Vec3;

/// Streamlines waiting per block, keyed by block for deterministic
/// iteration.
pub(crate) type Parked = BTreeMap<BlockId, Vec<Streamline>>;

/// `list` split into batch chunks of at most `lanes`, in the order a scalar
/// loop popping from the end would take them: the last `lanes` entries,
/// reversed, first.
fn chunks(mut list: Vec<Streamline>, lanes: usize) -> Vec<Vec<Streamline>> {
    let mut chunks = Vec::with_capacity(list.len().div_ceil(lanes));
    while !list.is_empty() {
        let mut chunk = list.split_off(list.len().saturating_sub(lanes));
        chunk.reverse();
        chunks.push(chunk);
    }
    chunks
}

/// The plain [`RankCore::drain_resident`] rule: a lane that left its block
/// waits at the next one.
pub(crate) fn repark(_: &mut RankCore, parked: &mut Parked, sl: Streamline, next: BlockId) {
    parked.entry(next).or_default().push(sl);
}

/// One integrating rank's shared state (masters integrate nothing and have
/// none).
pub struct RankCore {
    pub ws: Workspace,
    /// Terminated streamlines kept for collection (their geometry stays
    /// resident, which is what the memory model charges).
    pub finished: Vec<Streamline>,
    memory: MemoryBudget,
    h0: f64,
    /// Set when this rank exceeded its memory budget.
    pub failed_oom: bool,
    /// Per-epoch termination detector. Static Allocation's count rank holds
    /// the global count here; every other rank a retirement ledger that the
    /// driver folds into the run's frontier.
    pub detector: FrontierDetector,
    /// Streamline id → ingest epoch (identity for closed runs).
    pub(crate) emap: EpochMap,
    /// `finished` entries already retired into the detector.
    retired_seen: usize,
    /// Streamline ids this rank has ever owned.
    seen: BTreeSet<u32>,
    /// Ids that arrived while already in `seen` — ping-pong streamlines.
    pingponged: BTreeSet<u32>,
    /// Virtual times at which each ping-pong was first detected.
    pingpong_times: Vec<f64>,
}

/// Serializable image of a [`RankCore`], embedded in every integrating
/// driver's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankCoreSnapshot {
    pub ws: WorkspaceSnapshot,
    pub finished: Vec<Streamline>,
    pub failed_oom: bool,
    pub detector: FrontierDetector,
    pub seen: Vec<u32>,
    pub pingponged: Vec<u32>,
    pub pingpong_times: Vec<f64>,
}

impl RankCore {
    pub(crate) fn new(
        ws: Workspace,
        memory: MemoryBudget,
        h0: f64,
        detector: FrontierDetector,
        emap: EpochMap,
    ) -> Self {
        RankCore {
            ws,
            finished: Vec::new(),
            memory,
            h0,
            failed_oom: false,
            detector,
            emap,
            retired_seen: 0,
            seen: BTreeSet::new(),
            pingponged: BTreeSet::new(),
            pingpong_times: Vec::new(),
        }
    }

    /// Ids that returned to this rank after leaving it.
    pub fn pingponged(&self) -> &BTreeSet<u32> {
        &self.pingponged
    }

    /// Virtual times of first ping-pong detection, in arrival order.
    pub fn pingpong_times(&self) -> &[f64] {
        &self.pingpong_times
    }

    /// First ownership or return of a streamline id on this rank; a return
    /// is a ping-pong, recorded once per id.
    pub(crate) fn note_arrival(&mut self, id: StreamlineId, now: f64) {
        if !self.seen.insert(id.0) && self.pingponged.insert(id.0) {
            self.pingpong_times.push(now);
        }
    }

    /// Retire newly finished streamlines into the detector, per ingest
    /// epoch. Called wherever `finished` may have grown, so snapshots carry
    /// no unaccounted terminations.
    pub(crate) fn note_retirements(&mut self, now: f64) {
        if self.retired_seen == self.finished.len() {
            return;
        }
        let mut by_epoch: BTreeMap<u32, u64> = BTreeMap::new();
        for sl in &self.finished[self.retired_seen..] {
            *by_epoch.entry(self.emap.epoch_of(sl.id)).or_default() += 1;
        }
        self.retired_seen = self.finished.len();
        for (epoch, n) in by_epoch {
            self.detector.retire(epoch, n, now);
        }
    }

    /// Mark the rank failed once its resident bytes exceed the budget.
    /// Returns true when they do; the world is then stopping.
    pub(crate) fn check_memory(&mut self, ctx: &mut dyn Context<Msg>) -> bool {
        if self.memory.exceeded(self.ws.memory_bytes()) {
            self.failed_oom = true;
            ctx.stop_all();
            if let Some(oracle) = self.ws.oracle() {
                oracle.stop();
            }
            return true;
        }
        false
    }

    /// A new streamline at `seed`, admitted to this rank's books.
    pub(crate) fn spawn(&mut self, id: StreamlineId, seed: Vec3) -> Streamline {
        let sl = Streamline::new_lean(id, seed, self.h0);
        self.ws.admit(&sl);
        sl
    }

    /// The block `sl` is in, where the oracle queues it; outside the domain
    /// it terminates `ExitedDomain` here instead (counted, its solver object
    /// freed).
    pub(crate) fn place(&mut self, mut sl: Streamline) -> Option<(BlockId, Streamline)> {
        match self.ws.locate(sl.state.position) {
            Some(b) => {
                if let Some(oracle) = self.ws.oracle() {
                    oracle.queue([(&sl, b)]);
                }
                Some((b, sl))
            }
            None => {
                sl.terminate(Termination::ExitedDomain);
                self.ws.terminated += 1;
                self.ws.retire_object();
                self.finished.push(sl);
                None
            }
        }
    }

    /// [`Self::spawn`] then [`Self::place`].
    pub(crate) fn place_seed(
        &mut self,
        id: StreamlineId,
        seed: Vec3,
    ) -> Option<(BlockId, Streamline)> {
        let sl = self.spawn(id, seed);
        self.place(sl)
    }

    /// Terminate `sl` because its block cannot be produced.
    pub(crate) fn fail_lane(&mut self, mut sl: Streamline) {
        if let Some(oracle) = self.ws.oracle() {
            oracle.forget(sl.id);
        }
        self.ws.terminate_unavailable(&mut sl);
        self.finished.push(sl);
    }

    /// Advance `list` — lanes waiting in resident `block` — through the
    /// batch kernel in chunks of the batch width. Each chunk is the list's
    /// last entries reversed (the order a scalar loop popping from the end
    /// would take). Each lane's segment comes from the run's oracle
    /// ([`crate::oracle`]) or is computed here, and the chunks are committed
    /// here in chunk order: finished lanes join `finished`, every lane that
    /// crossed into block `next` is queued there with the oracle and goes
    /// to `route(core, lane, next, ctx)`. Returns false when the memory
    /// budget ran out (the world is stopping); the chunks after that point
    /// are dropped unbooked.
    pub(crate) fn advance_block<F>(
        &mut self,
        block: BlockId,
        list: Vec<Streamline>,
        ctx: &mut dyn Context<Msg>,
        mut route: F,
    ) -> bool
    where
        F: FnMut(&mut RankCore, Streamline, BlockId, &mut dyn Context<Msg>),
    {
        if list.is_empty() {
            return true;
        }
        let chunks = chunks(list, self.ws.batch_lanes());
        let _advancing = self.ws.advancing(block, &chunks);
        for mut chunk in chunks {
            let (exits, stats) = self.ws.advance_chunk(block, &mut chunk);
            self.ws.commit_batch(block, &exits, stats, ctx);
            if let Some(oracle) = self.ws.oracle() {
                oracle.queue(chunk.iter().zip(&exits).filter_map(|(sl, exit)| match exit {
                    BlockExit::MovedTo(next) => Some((sl, *next)),
                    BlockExit::Done(_) => None,
                }));
            }
            for (sl, exit) in chunk.into_iter().zip(exits) {
                match exit {
                    BlockExit::MovedTo(next) => route(self, sl, next, ctx),
                    BlockExit::Done(_) => self.finished.push(sl),
                }
            }
            if self.check_memory(ctx) {
                return false;
            }
        }
        true
    }

    /// The serial chunk loop [`Self::advance_block`] replaced: each chunk's
    /// kernel, then its commit, on this thread. The oracle tests' reference.
    #[cfg(test)]
    pub(crate) fn advance_block_serial<F>(
        &mut self,
        block: BlockId,
        mut list: Vec<Streamline>,
        ctx: &mut dyn Context<Msg>,
        mut route: F,
    ) -> bool
    where
        F: FnMut(&mut RankCore, Streamline, BlockId, &mut dyn Context<Msg>),
    {
        let lanes = self.ws.batch_lanes();
        while !list.is_empty() {
            let take = lanes.min(list.len());
            let mut chunk = list.split_off(list.len() - take);
            chunk.reverse();
            let exits = self.ws.advance_batch_in(&mut chunk, block, ctx);
            for (sl, exit) in chunk.into_iter().zip(exits) {
                match exit {
                    BlockExit::MovedTo(next) => route(self, sl, next, ctx),
                    BlockExit::Done(_) => self.finished.push(sl),
                }
            }
            if self.check_memory(ctx) {
                return false;
            }
        }
        true
    }

    /// "Integrate all streamlines to the edge of the loaded blocks": advance
    /// every parked list whose block is resident, until none is. Movers go
    /// to `park(core, parked, lane, next)`, so a lane still traverses every
    /// resident block before any load happens. Returns false when the
    /// memory budget ran out.
    pub(crate) fn drain_resident<F>(
        &mut self,
        parked: &mut Parked,
        ctx: &mut dyn Context<Msg>,
        mut park: F,
    ) -> bool
    where
        F: FnMut(&mut RankCore, &mut Parked, Streamline, BlockId),
    {
        while let Some(block) = parked.keys().copied().find(|&b| self.ws.is_resident(b)) {
            let list = parked.remove(&block).expect("key just found");
            if !self
                .advance_block(block, list, ctx, |core, sl, next, _| park(core, parked, sl, next))
            {
                return false;
            }
        }
        true
    }

    /// Load the parked block with the most waiting streamlines (ties to the
    /// lowest id — deterministic). An unreachable block's lanes terminate
    /// `BlockUnavailable` instead of the rank spinning on the same failing
    /// load. `parked` must not be empty. Returns false when the load broke
    /// the memory budget.
    pub(crate) fn load_most_wanted(
        &mut self,
        parked: &mut Parked,
        ctx: &mut dyn Context<Msg>,
    ) -> bool {
        let (&target, _) = parked
            .iter()
            .max_by_key(|(id, v)| (v.len(), std::cmp::Reverse(id.0)))
            .expect("parked is non-empty");
        if self.ws.try_acquire(target, ctx).is_err() {
            for sl in parked.remove(&target).expect("key just found") {
                self.fail_lane(sl);
            }
            return true;
        }
        !self.check_memory(ctx)
    }

    pub(crate) fn snapshot(&self) -> RankCoreSnapshot {
        RankCoreSnapshot {
            ws: self.ws.snapshot(),
            finished: self.finished.clone(),
            failed_oom: self.failed_oom,
            detector: self.detector.clone(),
            seen: self.seen.iter().copied().collect(),
            pingponged: self.pingponged.iter().copied().collect(),
            pingpong_times: self.pingpong_times.clone(),
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub(crate) fn restore(&mut self, snap: &RankCoreSnapshot) -> Result<(), StoreError> {
        self.ws.restore(&snap.ws)?;
        self.finished = snap.finished.clone();
        self.failed_oom = snap.failed_oom;
        self.detector = snap.detector.clone();
        self.retired_seen = self.finished.len();
        self.seen = snap.seen.iter().copied().collect();
        self.pingponged = snap.pingponged.iter().copied().collect();
        self.pingpong_times = snap.pingpong_times.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::NullCtx;
    use proptest::prelude::*;
    use std::sync::Arc;
    use streamline_field::dataset::{Dataset, DatasetConfig};
    use streamline_integrate::StepLimits;
    use streamline_iosim::{BlockStore, DiskModel, MemoryStore};

    fn limits() -> StepLimits {
        StepLimits { h0: 1e-3, h_max: 0.02, max_steps: 25, ..StepLimits::default() }
    }

    /// The tiny thermal problem, with its store built once.
    fn problem() -> (Dataset, Arc<dyn BlockStore>) {
        let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        (ds, store)
    }

    /// A rank holding the block of the domain centre, with `n` lanes
    /// seeded across it; returns the rank, the block and the lanes.
    fn rank_with_lanes(
        ds: &Dataset,
        store: &Arc<dyn BlockStore>,
        lanes: usize,
        n: usize,
        bytes: Option<f64>,
    ) -> (RankCore, BlockId, Vec<Streamline>, NullCtx) {
        let limits = limits();
        // Geometry only, so resident bytes grow with every step.
        let memory = MemoryBudget { bytes, vertex_bytes: 64.0, stream_bytes: 0.0 };
        let mut ws =
            Workspace::new(ds.decomp, Arc::clone(store), 4, DiskModel::paper_scale(), limits, 1e-6);
        ws.set_batch_lanes(lanes);
        ws.set_vertex_bytes(memory.vertex_bytes);
        ws.set_stream_bytes(memory.stream_bytes);
        let mut core = RankCore::new(ws, memory, limits.h0, Default::default(), Default::default());
        let bounds = ds.decomp.domain;
        let block = core.ws.locate(bounds.min + bounds.size() * 0.5).expect("inside");
        let mut ctx = NullCtx::default();
        core.ws.acquire(block, &mut ctx);
        let b = ds.decomp.block_bounds(block);
        let list = (0..n)
            .map(|i| {
                // A low-discrepancy spread over the block's interior.
                let f = |k: f64| 0.05 + 0.9 * ((i as f64 + 0.5) * k).fract();
                let p =
                    b.min + b.size().mul_elem(Vec3::new(f(0.618_034), f(0.754_878), f(0.569_840)));
                core.spawn(StreamlineId(i as u32), p)
            })
            .collect();
        (core, block, list, ctx)
    }

    /// Everything an advance leaves behind that a run could observe.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        advanced: bool,
        finished: Vec<Streamline>,
        routed: Vec<(StreamlineId, BlockId)>,
        log: Vec<String>,
        sent: Vec<(usize, Msg, usize)>,
        compute_bits: u64,
        ws: WorkspaceSnapshot,
        cache: streamline_iosim::CacheStats,
        failed_oom: bool,
    }

    /// Movers into odd blocks go to a made-up owner rank, as a driver hands
    /// off; the rest stay parked here, resident.
    fn hand_off_odd(
        core: &mut RankCore,
        sl: Streamline,
        next: BlockId,
        ctx: &mut dyn Context<Msg>,
    ) {
        if next.0 % 2 == 1 {
            core.ws.release(&sl);
            let msg = Msg::Handoff { sl: Box::new(sl) };
            let bytes = msg.wire_bytes(true);
            ctx.send(next.0 as usize % 4, msg, bytes);
        }
    }

    /// Advance the lanes through the segment oracle, its helpers started on
    /// them (or with the serial reference), routing movers with
    /// [`hand_off_odd`].
    fn advance(lanes: usize, n: usize, bytes: Option<f64>, serial: bool) -> Outcome {
        let (ds, store) = problem();
        let (mut core, block, list, mut ctx) = rank_with_lanes(&ds, &store, lanes, n, bytes);
        if !serial {
            let oracle = crate::oracle::Oracle::helped(ds.decomp, limits(), lanes);
            core.ws.set_oracle(oracle.clone());
            oracle.note_block(&store.load(block));
            oracle.queue(list.iter().map(|sl| (sl, block)));
        }
        let mut routed = Vec::new();
        let route =
            |core: &mut RankCore, sl: Streamline, next: BlockId, ctx: &mut dyn Context<Msg>| {
                routed.push((sl.id, next));
                hand_off_odd(core, sl, next, ctx);
            };
        let advanced = if serial {
            core.advance_block_serial(block, list, &mut ctx, route)
        } else {
            core.advance_block(block, list, &mut ctx, route)
        };
        Outcome {
            advanced,
            finished: core.finished.clone(),
            routed,
            log: ctx.log,
            sent: ctx.sent,
            compute_bits: ctx.compute.to_bits(),
            ws: core.ws.snapshot(),
            cache: core.ws.cache_stats(),
            failed_oom: core.failed_oom,
        }
    }

    #[test]
    fn oracle_commits_exactly_like_the_serial_loop() {
        // 50 lanes at 16 per chunk: four chunks, the last one short.
        let fanned = advance(16, 50, None, false);
        let serial = advance(16, 50, None, true);
        assert!(
            !fanned.finished.is_empty() && !fanned.routed.is_empty(),
            "both fates occur: {} {}",
            fanned.finished.len(),
            fanned.routed.len()
        );
        assert_eq!(fanned.ws.batch_calls, 4);
        assert_eq!(fanned.ws.batched_lanes, 50);
        // One load at set-up, then one cache hit per committed chunk.
        assert_eq!((fanned.cache.loaded, fanned.cache.hits), (1, 4));
        assert_eq!(fanned, serial);
    }

    /// The budget breaks at chunk `k` of four: the world stops there, and no
    /// later chunk is booked (the serial loop never advanced them).
    #[test]
    fn oom_mid_list_books_nothing_after_the_breaking_chunk() {
        let (lanes, n) = (16, 64);
        // Resident bytes once the last `m` lanes (the first chunks) are in.
        let bytes_after = |m: usize| {
            let (ds, store) = problem();
            let (mut core, block, list, mut ctx) = rank_with_lanes(&ds, &store, lanes, n, None);
            core.advance_block_serial(block, list[n - m..].to_vec(), &mut ctx, hand_off_odd);
            (core.ws.memory_bytes(), core.ws.total_steps)
        };
        for k in 0..3 {
            // Fits through chunk k − 1 (or only the seeded lanes), not chunk k.
            let budget = if k == 0 {
                let (ds, store) = problem();
                rank_with_lanes(&ds, &store, lanes, n, None).0.ws.memory_bytes()
            } else {
                bytes_after(k * lanes).0
            };
            let fanned = advance(lanes, n, Some(budget), false);
            let serial = advance(lanes, n, Some(budget), true);
            assert!(!fanned.advanced && fanned.failed_oom, "chunk {k} breaks the budget");
            assert_eq!(fanned.ws.batch_calls, k as u64 + 1, "chunks after {k} are not booked");
            assert_eq!(fanned.ws.total_steps, bytes_after((k + 1) * lanes).1);
            assert_eq!(fanned.log.last().map(String::as_str), Some("stop"));
            assert_eq!(fanned, serial);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn oracle_matches_the_serial_loop_for_any_split(n in 1usize..65, lanes in 1usize..17) {
            let fanned = advance(lanes, n, None, false);
            let serial = advance(lanes, n, None, true);
            prop_assert_eq!(fanned.ws.batch_calls, n.div_ceil(lanes) as u64);
            prop_assert_eq!(fanned, serial);
        }
    }
}
