//! Per-rank machinery shared by all three algorithms: the block cache, the
//! advection loop, and logical memory accounting.

use crate::advance::AdvanceStats;
use crate::config::BatchParams;
use crate::msg::Msg;
use crate::oracle::{batch_kernel, AdvancingGuard, Oracle};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamline_desim::Context;
use streamline_field::block::{Block, BlockId};
use streamline_field::decomp::BlockDecomposition;
#[cfg(test)]
use streamline_integrate::Dopri5;
use streamline_integrate::{StepLimits, Streamline, Termination};
use streamline_iosim::{BlockStore, CacheStats, DiskModel, LruCache, StoreError};

/// Load attempts per block before a load is abandoned as unavailable.
pub const MAX_LOAD_ATTEMPTS: u32 = 3;

/// Serializable image of a [`Workspace`]'s mutable state: the LRU residency
/// manifest (coldest first), the cache counters, and every accounting
/// counter. Block *contents* are not stored — on restore they are reloaded
/// from the block store, which holds the identical immutable data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkspaceSnapshot {
    /// Resident blocks, coldest first (insertion in this order reproduces
    /// the exact future eviction sequence).
    pub resident: Vec<BlockId>,
    pub cache_stats: CacheStats,
    pub geom_vertices: u64,
    pub resident_streams: u64,
    pub terminated: u64,
    pub total_steps: u64,
    pub sampler_hits: u64,
    pub sampler_misses: u64,
    pub load_retries: u64,
    pub load_failures: u64,
    pub unavailable: u64,
    /// Streamlines advanced through the batch kernel.
    pub batched_lanes: u64,
    /// Batch-kernel invocations.
    pub batch_calls: u64,
}

/// Where a streamline went after being advanced inside one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Still active, now inside this other block.
    MovedTo(BlockId),
    /// Terminated (status already set on the streamline).
    Done(Termination),
}

/// One rank's cache, tracer and accounting.
pub struct Workspace {
    pub decomp: BlockDecomposition,
    store: Arc<dyn BlockStore>,
    cache: LruCache,
    disk: DiskModel,
    limits: StepLimits,
    sec_per_step: f64,
    /// Logical bytes charged per resident curve vertex (see
    /// [`crate::config::MemoryBudget::vertex_bytes`]).
    vertex_bytes: f64,
    /// Logical bytes charged per resident streamline object (see
    /// [`crate::config::MemoryBudget::stream_bytes`]).
    stream_bytes: f64,
    /// Curve vertices resident on this rank (active + locally terminated).
    geom_vertices: u64,
    /// Streamline objects resident on this rank.
    resident_streams: u64,
    /// Streamlines this rank has terminated (cumulative).
    pub terminated: u64,
    /// Accepted integration steps performed by this rank.
    pub total_steps: u64,
    /// Cell-sampler stencil-cache hits across all advances on this rank.
    pub sampler_hits: u64,
    /// Cell-sampler stencil gathers across all advances on this rank.
    pub sampler_misses: u64,
    /// Block loads retried after a transient store error.
    pub load_retries: u64,
    /// Block loads abandoned after exhausting the retry budget.
    pub load_failures: u64,
    /// Streamlines terminated with [`Termination::BlockUnavailable`].
    pub unavailable: u64,
    /// Streamlines advanced through the batch kernel on this rank.
    pub batched_lanes: u64,
    /// Batch-kernel invocations on this rank.
    pub batch_calls: u64,
    /// Maximum lanes per batch-kernel chunk; the driver's drain loops
    /// chunk their per-block queues to this.
    batch_lanes: usize,
    /// The run's segment oracle ([`crate::oracle`]); without one every
    /// chunk runs inline.
    oracle: Option<Oracle>,
}

impl Workspace {
    pub fn new(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cache_blocks: usize,
        disk: DiskModel,
        limits: StepLimits,
        sec_per_step: f64,
    ) -> Self {
        Workspace {
            decomp,
            store,
            cache: LruCache::new(cache_blocks),
            disk,
            limits,
            sec_per_step,
            vertex_bytes: 24.0,
            stream_bytes: 0.0,
            geom_vertices: 0,
            resident_streams: 0,
            terminated: 0,
            total_steps: 0,
            sampler_hits: 0,
            sampler_misses: 0,
            load_retries: 0,
            load_failures: 0,
            unavailable: 0,
            batched_lanes: 0,
            batch_calls: 0,
            batch_lanes: BatchParams::AUTO_LANES,
            oracle: None,
        }
    }

    /// Share the run's segment oracle.
    pub(crate) fn set_oracle(&mut self, oracle: Oracle) {
        self.oracle = Some(oracle);
    }

    /// The run's segment oracle, if it has one.
    pub(crate) fn oracle(&self) -> Option<&Oracle> {
        self.oracle.as_ref()
    }

    /// Override the batch-kernel lane bound (default
    /// [`BatchParams::AUTO_LANES`]; must be >= 1).
    pub fn set_batch_lanes(&mut self, lanes: usize) {
        assert!(lanes >= 1, "need at least one batch lane");
        self.batch_lanes = lanes;
    }

    /// Maximum lanes per batch advance — drivers chunk their per-block
    /// queues to this.
    pub fn batch_lanes(&self) -> usize {
        self.batch_lanes
    }

    /// Override the logical per-vertex geometry cost (default 24 B — bare
    /// positions).
    pub fn set_vertex_bytes(&mut self, bytes: f64) {
        self.vertex_bytes = bytes;
    }

    /// Override the logical per-streamline-object cost (default 0).
    pub fn set_stream_bytes(&mut self, bytes: f64) {
        self.stream_bytes = bytes;
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn resident_blocks(&self) -> Vec<BlockId> {
        self.cache.resident()
    }

    pub fn is_resident(&self, id: BlockId) -> bool {
        self.cache.contains(id)
    }

    /// Get a resident block or load it, charging the disk model's load time.
    /// Panics on a store error — for setups known to be fault-free; the
    /// drivers use [`Workspace::try_acquire`].
    pub fn acquire(&mut self, id: BlockId, ctx: &mut dyn Context<Msg>) -> Arc<Block> {
        self.try_acquire(id, ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get a resident block or load it with a bounded retry budget, charging
    /// the disk model's load time for *every* attempt (a failed read still
    /// occupied the I/O system). Transient store faults are retried up to
    /// [`MAX_LOAD_ATTEMPTS`] times; exhaustion is counted in `load_failures`
    /// and the cache records a failed (non-)load.
    pub fn try_acquire(
        &mut self,
        id: BlockId,
        ctx: &mut dyn Context<Msg>,
    ) -> Result<Arc<Block>, StoreError> {
        if let Some(b) = self.cache.get(id) {
            return Ok(b);
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            ctx.charge_io(self.disk.block_load_time());
            match self.store.try_load(id) {
                Ok(b) => {
                    self.cache.insert(Arc::clone(&b));
                    if let Some(oracle) = &self.oracle {
                        oracle.note_block(&b);
                    }
                    return Ok(b);
                }
                Err(e) => {
                    if attempt >= MAX_LOAD_ATTEMPTS {
                        self.cache.record_failed();
                        self.load_failures += 1;
                        return Err(e);
                    }
                    self.load_retries += 1;
                }
            }
        }
    }

    /// Terminate `sl` because its block cannot be produced: sets
    /// [`Termination::BlockUnavailable`], updates the termination and
    /// residency accounting exactly like a normal in-block termination so
    /// global active counts still converge.
    pub fn terminate_unavailable(&mut self, sl: &mut Streamline) {
        sl.terminate(Termination::BlockUnavailable);
        self.terminated += 1;
        self.unavailable += 1;
        self.resident_streams = self.resident_streams.saturating_sub(1);
    }

    /// Account a streamline becoming resident on this rank (seeded here or
    /// received by hand-off).
    pub fn admit(&mut self, sl: &Streamline) {
        self.geom_vertices += sl.vertex_count();
        self.resident_streams += 1;
    }

    /// Account a streamline leaving this rank (handed off elsewhere).
    pub fn release(&mut self, sl: &Streamline) {
        debug_assert!(self.geom_vertices >= sl.vertex_count());
        self.geom_vertices = self.geom_vertices.saturating_sub(sl.vertex_count());
        self.resident_streams = self.resident_streams.saturating_sub(1);
    }

    /// Account a streamline terminating here: the solver object is freed,
    /// the geometry stays resident (it is the visualization product).
    pub fn retire_object(&mut self) {
        self.resident_streams = self.resident_streams.saturating_sub(1);
    }

    /// Advance `sl` inside resident block `id` until it exits the block or
    /// terminates. Charges compute time; updates geometry accounting. The
    /// advance itself is [`crate::advance::advance_in_block`], shared with
    /// the query service. Every driver runs the batch kernel; this scalar
    /// path is the oracle of the scalar-vs-batch bit-identity tests.
    #[cfg(test)]
    pub fn advance_in(
        &mut self,
        sl: &mut Streamline,
        id: BlockId,
        ctx: &mut dyn Context<Msg>,
    ) -> BlockExit {
        let block = self.cache.get(id).expect("advance_in requires a resident block");
        let (exit, stats) =
            crate::advance::advance_in_block(sl, &block, &self.decomp, &self.limits, &Dopri5);
        ctx.charge_compute(stats.steps as f64 * self.sec_per_step);
        self.geom_vertices += stats.steps;
        self.total_steps += stats.steps;
        self.sampler_hits += stats.sampler_hits;
        self.sampler_misses += stats.sampler_misses;
        if let BlockExit::Done(_) = exit {
            self.terminated += 1;
            self.resident_streams = self.resident_streams.saturating_sub(1);
        }
        exit
    }

    /// Tell the oracle this rank starts advancing `chunks` through resident
    /// block `id`, so its helpers start on the later chunks.
    pub(crate) fn advancing(
        &self,
        id: BlockId,
        chunks: &[Vec<Streamline>],
    ) -> Option<AdvancingGuard> {
        let oracle = self.oracle.as_ref()?;
        let block = self.cache.peek(id).expect("a batch advance requires a resident block");
        oracle.advancing(&block, chunks)
    }

    /// The batch kernel over resident block `id` for one chunk, through the
    /// oracle when there is one: bit-identical per lane either way, and
    /// books nothing. [`Self::commit_batch`] books the result. Peeking the
    /// block moves no cache counter.
    pub(crate) fn advance_chunk(
        &self,
        id: BlockId,
        chunk: &mut [Streamline],
    ) -> (Vec<BlockExit>, AdvanceStats) {
        let block = self.cache.peek(id).expect("a batch advance requires a resident block");
        match &self.oracle {
            Some(oracle) => oracle.advance(chunk, &block),
            None => batch_kernel(chunk, &block, &self.decomp, &self.limits),
        }
    }

    /// Book one chunk's batch advance inside resident block `id`: one cache
    /// get (a hit and an LRU tick), the summed compute charge, the counters
    /// and the terminations — exactly what a scalar advance of each lane
    /// would have booked.
    pub(crate) fn commit_batch(
        &mut self,
        id: BlockId,
        exits: &[BlockExit],
        stats: AdvanceStats,
        ctx: &mut dyn Context<Msg>,
    ) {
        self.cache.get(id).expect("a batch advance requires a resident block");
        ctx.charge_compute(stats.steps as f64 * self.sec_per_step);
        self.geom_vertices += stats.steps;
        self.total_steps += stats.steps;
        self.sampler_hits += stats.sampler_hits;
        self.sampler_misses += stats.sampler_misses;
        self.batched_lanes += stats.batched_lanes;
        self.batch_calls += 1;
        for exit in exits {
            if let BlockExit::Done(_) = exit {
                self.terminated += 1;
                self.resident_streams = self.resident_streams.saturating_sub(1);
            }
        }
    }

    /// Kernel then commit for one group on the calling thread — bit-identical
    /// per streamline to `Workspace::advance_in` on each lane in isolation,
    /// with the same summed compute charge and accounting. Returns one exit
    /// per lane in input order. The reference of the oracle tests.
    #[cfg(test)]
    pub fn advance_batch_in(
        &mut self,
        group: &mut [Streamline],
        id: BlockId,
        ctx: &mut dyn Context<Msg>,
    ) -> Vec<BlockExit> {
        let block = self.cache.peek(id).expect("advance_batch_in requires a resident block");
        let (exits, stats) = batch_kernel(group, &block, &self.decomp, &self.limits);
        self.commit_batch(id, &exits, stats, ctx);
        exits
    }

    /// Logical bytes resident on this rank: cached blocks at paper scale
    /// plus streamline geometry (per-curve overhead is folded into the
    /// per-vertex cost).
    pub fn memory_bytes(&self) -> f64 {
        self.cache.len() as f64 * self.disk.logical_block_bytes
            + self.geom_vertices as f64 * self.vertex_bytes
            + self.resident_streams as f64 * self.stream_bytes
    }

    /// Which block owns a seed; `None` if outside the domain.
    pub fn locate(&self, p: streamline_math::Vec3) -> Option<BlockId> {
        self.decomp.locate(p)
    }

    /// Capture this workspace's mutable state for a checkpoint.
    pub fn snapshot(&self) -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            resident: self.cache.manifest(),
            cache_stats: self.cache.stats(),
            geom_vertices: self.geom_vertices,
            resident_streams: self.resident_streams,
            terminated: self.terminated,
            total_steps: self.total_steps,
            sampler_hits: self.sampler_hits,
            sampler_misses: self.sampler_misses,
            load_retries: self.load_retries,
            load_failures: self.load_failures,
            unavailable: self.unavailable,
            batched_lanes: self.batched_lanes,
            batch_calls: self.batch_calls,
        }
    }

    /// Restore a snapshot taken by [`Self::snapshot`]. Resident blocks are
    /// reloaded straight from the store — no simulated I/O time is charged
    /// and no cache counters move (the snapshot's counters are installed
    /// verbatim), because the restore itself is outside the simulated run.
    pub fn restore(&mut self, snap: &WorkspaceSnapshot) -> Result<(), StoreError> {
        let mut blocks = Vec::with_capacity(snap.resident.len());
        for &id in &snap.resident {
            blocks.push(self.store.try_load(id)?);
        }
        self.cache.restore(blocks, snap.cache_stats);
        self.geom_vertices = snap.geom_vertices;
        self.resident_streams = snap.resident_streams;
        self.terminated = snap.terminated;
        self.total_steps = snap.total_steps;
        self.sampler_hits = snap.sampler_hits;
        self.sampler_misses = snap.sampler_misses;
        self.load_retries = snap.load_retries;
        self.load_failures = snap.load_failures;
        self.unavailable = snap.unavailable;
        self.batched_lanes = snap.batched_lanes;
        self.batch_calls = snap.batch_calls;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};
    use streamline_integrate::{StreamlineId, StreamlineStatus};
    use streamline_iosim::MemoryStore;
    use streamline_math::Vec3;

    fn workspace(cache_blocks: usize) -> Workspace {
        let ds = uniform_x_dataset();
        let store = Arc::new(MemoryStore::build(&ds));
        Workspace::new(
            ds.decomp,
            store,
            cache_blocks,
            DiskModel::paper_scale(),
            StepLimits::default(),
            1e-6,
        )
    }

    #[test]
    fn acquire_charges_io_once_then_hits() {
        let mut ws = workspace(4);
        let mut ctx = NullCtx::default();
        ws.acquire(BlockId(0), &mut ctx);
        ws.acquire(BlockId(0), &mut ctx);
        assert!((ctx.io - DiskModel::paper_scale().block_load_time()).abs() < 1e-12);
        let stats = ws.cache_stats();
        assert_eq!(stats.loaded, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn advance_crosses_into_next_block() {
        // uniform +x field over [0,1]^3 decomposed 2x2x2: a streamline in
        // block (0,*,*) must exit into block (1,*,*).
        let mut ws = workspace(8);
        let mut ctx = NullCtx::default();
        let seed = Vec3::new(0.25, 0.25, 0.25);
        let start = ws.locate(seed).unwrap();
        ws.acquire(start, &mut ctx);
        let mut sl = Streamline::new(StreamlineId(0), seed, 1e-2);
        ws.admit(&sl);
        match ws.advance_in(&mut sl, start, &mut ctx) {
            BlockExit::MovedTo(next) => {
                assert_ne!(next, start);
                assert!(ws.decomp.block_bounds(next).contains_eps(sl.state.position, 1e-9));
            }
            other => panic!("expected block crossing, got {other:?}"),
        }
        assert!(ctx.compute > 0.0);
        assert!(ws.total_steps > 0);
    }

    #[test]
    fn advance_terminates_at_domain_exit() {
        let mut ws = workspace(8);
        let mut ctx = NullCtx::default();
        let seed = Vec3::new(0.75, 0.25, 0.25);
        let start = ws.locate(seed).unwrap();
        ws.acquire(start, &mut ctx);
        let mut sl = Streamline::new(StreamlineId(0), seed, 1e-2);
        ws.admit(&sl);
        let exit = ws.advance_in(&mut sl, start, &mut ctx);
        assert_eq!(exit, BlockExit::Done(Termination::ExitedDomain));
        assert_eq!(sl.status, StreamlineStatus::Terminated(Termination::ExitedDomain));
        assert_eq!(ws.terminated, 1);
    }

    #[test]
    fn batch_advance_matches_scalar_charges_and_counters() {
        let seeds =
            [Vec3::new(0.05, 0.25, 0.25), Vec3::new(0.20, 0.40, 0.10), Vec3::new(0.75, 0.25, 0.25)];
        let make = |i: usize, s: Vec3| Streamline::new(StreamlineId(i as u32), s, 1e-2);

        let mut scalar_ws = workspace(8);
        let mut scalar_ctx = NullCtx::default();
        let mut scalar_exits = Vec::new();
        let mut scalar_sls = Vec::new();
        for (i, &s) in seeds.iter().enumerate() {
            let start = scalar_ws.locate(s).unwrap();
            scalar_ws.acquire(start, &mut scalar_ctx);
            let mut sl = make(i, s);
            scalar_ws.admit(&sl);
            scalar_exits.push(scalar_ws.advance_in(&mut sl, start, &mut scalar_ctx));
            scalar_sls.push(sl);
        }

        let mut batch_ws = workspace(8);
        let mut batch_ctx = NullCtx::default();
        // All three seeds start in distinct blocks; group the two that
        // share a block-advance anyway by advancing per starting block.
        let mut exits = Vec::new();
        let mut group_all: Vec<Streamline> =
            seeds.iter().enumerate().map(|(i, &s)| make(i, s)).collect();
        for sl in &group_all {
            batch_ws.admit(sl);
        }
        // Advance each lane's own starting block as a single-block batch of
        // the lanes that live there.
        let mut by_block: std::collections::BTreeMap<BlockId, Vec<usize>> = Default::default();
        for (i, sl) in group_all.iter().enumerate() {
            by_block.entry(batch_ws.locate(sl.state.position).unwrap()).or_default().push(i);
        }
        let mut exit_by_lane = vec![None; group_all.len()];
        for (block, lanes) in by_block {
            batch_ws.acquire(block, &mut batch_ctx);
            let mut group: Vec<Streamline> = Vec::new();
            for &i in &lanes {
                group.push(group_all[i].clone());
            }
            let ex = batch_ws.advance_batch_in(&mut group, block, &mut batch_ctx);
            for ((&i, sl), e) in lanes.iter().zip(group).zip(ex) {
                group_all[i] = sl;
                exit_by_lane[i] = Some(e);
            }
        }
        for e in exit_by_lane {
            exits.push(e.unwrap());
        }

        assert_eq!(exits, scalar_exits);
        for (a, b) in scalar_sls.iter().zip(&group_all) {
            assert_eq!(a, b, "lane {:?} diverged", a.id);
        }
        assert_eq!(batch_ws.total_steps, scalar_ws.total_steps);
        assert_eq!(batch_ws.sampler_hits, scalar_ws.sampler_hits);
        assert_eq!(batch_ws.sampler_misses, scalar_ws.sampler_misses);
        assert_eq!(batch_ws.terminated, scalar_ws.terminated);
        assert!((batch_ctx.compute - scalar_ctx.compute).abs() < 1e-15);
        assert_eq!(batch_ws.batched_lanes, seeds.len() as u64);
        assert!(batch_ws.batch_calls >= 1);
        assert_eq!(scalar_ws.batched_lanes, 0);
    }

    #[test]
    fn memory_accounting_tracks_admit_release() {
        let mut ws = workspace(2);
        let mut ctx = NullCtx::default();
        let base = ws.memory_bytes();
        assert_eq!(base, 0.0);
        ws.acquire(BlockId(0), &mut ctx);
        let with_block = ws.memory_bytes();
        assert!((with_block - DiskModel::paper_scale().logical_block_bytes).abs() < 1.0);
        let mut sl = Streamline::new(StreamlineId(0), Vec3::splat(0.25), 1e-2);
        for i in 0..10 {
            sl.push_step(Vec3::splat(0.25 + i as f64 * 1e-3), 1e-3);
        }
        ws.admit(&sl);
        assert!((ws.memory_bytes() - with_block - 11.0 * 24.0).abs() < 1.0);
        ws.release(&sl);
        assert!((ws.memory_bytes() - with_block).abs() < 1.0);
    }

    #[test]
    fn try_acquire_retries_transient_faults_and_charges_each_attempt() {
        let ds = uniform_x_dataset();
        let store = Arc::new(MemoryStore::build(&ds));
        let plan = streamline_iosim::FaultPlan::new().transient(BlockId(0), 2);
        let faulty = Arc::new(streamline_iosim::FaultStore::new(store, plan));
        let mut ws = Workspace::new(
            ds.decomp,
            faulty,
            4,
            DiskModel::paper_scale(),
            StepLimits::default(),
            1e-6,
        );
        let mut ctx = NullCtx::default();
        let b = ws.try_acquire(BlockId(0), &mut ctx).expect("third attempt succeeds");
        assert_eq!(b.id, BlockId(0));
        assert_eq!(ws.load_retries, 2);
        assert_eq!(ws.load_failures, 0);
        // All three attempts hit the (simulated) disk.
        let per_load = DiskModel::paper_scale().block_load_time();
        assert!((ctx.io - 3.0 * per_load).abs() < 1e-12);
        assert_eq!(ws.cache_stats().loaded, 1);
        assert_eq!(ws.cache_stats().failed, 0);
    }

    #[test]
    fn try_acquire_gives_up_on_permanent_faults() {
        let ds = uniform_x_dataset();
        let store = Arc::new(MemoryStore::build(&ds));
        let plan = streamline_iosim::FaultPlan::new().permanent(BlockId(1));
        let faulty = Arc::new(streamline_iosim::FaultStore::new(store, plan));
        let mut ws = Workspace::new(
            ds.decomp,
            faulty,
            4,
            DiskModel::paper_scale(),
            StepLimits::default(),
            1e-6,
        );
        let mut ctx = NullCtx::default();
        assert!(ws.try_acquire(BlockId(1), &mut ctx).is_err());
        assert_eq!(ws.load_retries, 2, "3 attempts = 2 retries");
        assert_eq!(ws.load_failures, 1);
        let stats = ws.cache_stats();
        assert_eq!(stats.loaded, 0, "a failed load must not count as a load");
        assert_eq!(stats.failed, 1);
        // An unaffected block still loads fine afterwards.
        assert!(ws.try_acquire(BlockId(0), &mut ctx).is_ok());
    }

    #[test]
    fn terminate_unavailable_keeps_accounting_consistent() {
        let mut ws = workspace(2);
        let mut sl = Streamline::new(StreamlineId(3), Vec3::splat(0.25), 1e-2);
        ws.admit(&sl);
        ws.terminate_unavailable(&mut sl);
        assert_eq!(sl.status, StreamlineStatus::Terminated(Termination::BlockUnavailable));
        assert_eq!(ws.terminated, 1);
        assert_eq!(ws.unavailable, 1);
        // Geometry stays resident (it is the product); the object is freed.
        assert!(ws.memory_bytes() > 0.0);
    }

    #[test]
    fn snapshot_restore_reproduces_cache_and_counters() {
        let mut ws = workspace(2);
        let mut ctx = NullCtx::default();
        ws.acquire(BlockId(0), &mut ctx);
        ws.acquire(BlockId(1), &mut ctx);
        ws.acquire(BlockId(0), &mut ctx); // block 1 is now the LRU victim
        ws.terminated = 3;
        ws.total_steps = 99;
        let snap = ws.snapshot();

        let mut fresh = workspace(2);
        fresh.restore(&snap).expect("store has every block");
        assert_eq!(fresh.snapshot(), snap, "snapshot must round-trip exactly");
        assert_eq!(fresh.cache_stats(), ws.cache_stats());
        // Same future eviction: loading block 2 purges block 1 in both.
        let mut ctx2 = NullCtx::default();
        ws.acquire(BlockId(2), &mut ctx);
        fresh.acquire(BlockId(2), &mut ctx2);
        let mut a = ws.resident_blocks();
        let mut b = fresh.resident_blocks();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!fresh.is_resident(BlockId(1)));
    }

    #[test]
    fn lru_eviction_applies_under_pressure() {
        let mut ws = workspace(1);
        let mut ctx = NullCtx::default();
        ws.acquire(BlockId(0), &mut ctx);
        ws.acquire(BlockId(1), &mut ctx);
        let stats = ws.cache_stats();
        assert_eq!(stats.loaded, 2);
        assert_eq!(stats.purged, 1);
        assert!(!ws.is_resident(BlockId(0)));
    }
}
