//! Static Allocation (§4.1): parallelize across blocks.
//!
//! "We statically allocate blocks to processors such that the first of n
//! processors is assigned the first 1/n of the blocks ... Each streamline is
//! integrated until it leaves the blocks owned by the processor. As each
//! streamline moves between blocks, it is communicated to the processor that
//! owns the block in which it currently resides. A globally communicated
//! streamline count is maintained ... Once the count goes to zero, all
//! processors terminate."
//!
//! Blocks are loaded lazily on first touch and never purged (each rank's
//! cache holds its whole ownership range), which is why this algorithm's
//! block efficiency is the paper's ideal of 1.0.

use crate::config::MemoryBudget;
use crate::ingest::EpochMap;
use crate::liveness::{Liveness, WAKE_BEAT};
use crate::msg::Msg;
use crate::rank::{Parked, RankCore, RankCoreSnapshot};
use crate::termination::FrontierDetector;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamline_desim::{Context, Event, Process};
use streamline_field::block::BlockId;
use streamline_integrate::{Streamline, StreamlineId};
use streamline_iosim::StoreError;
use streamline_math::Vec3;

/// Rank that maintains the global active-streamline count.
pub const COUNT_RANK: usize = 0;

/// Wake token of the deferred handoff pump (see [`StaticProc`]'s `inbox`).
const WAKE_PUMP: u64 = 0;

/// How blocks map to ranks. The paper's scheme is [`Self::Contiguous`]
/// ("the first of n processors is assigned the first 1/n of the blocks");
/// [`Self::RoundRobin`] is the classic alternative, ablated by
/// `partition_ablation`: it spreads dense seed sets across ranks at the
/// price of every block crossing being a hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StaticPartition {
    Contiguous,
    RoundRobin,
}

impl StaticPartition {
    /// The rank of `n_procs` that owns block `block` of `n_blocks`.
    pub fn owner_of(self, block: BlockId, n_blocks: usize, n_procs: usize) -> usize {
        debug_assert!(block.index() < n_blocks);
        match self {
            StaticPartition::Contiguous => block.index() * n_procs / n_blocks,
            StaticPartition::RoundRobin => block.index() % n_procs,
        }
    }
}

/// Serializable image of a [`StaticProc`] mid-run. Configuration fields
/// (rank, partition, budgets) are rebuilt from the run config; only genuine
/// run state is stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticSnapshot {
    pub core: RankCoreSnapshot,
    pub seeds: Vec<(StreamlineId, Vec3)>,
    /// The rank's failure detector and membership view (rank-chaos runs
    /// only).
    pub resil: Option<Liveness>,
    /// Handed-in streamlines waiting for the pump wake, which is still
    /// pending in the cut whenever this is non-empty.
    pub inbox: Vec<Streamline>,
}

/// Which rank owns a block under a partition of `n_blocks` over `n_procs`.
#[derive(Debug, Clone, Copy)]
struct Owners {
    partition: StaticPartition,
    n_blocks: usize,
    n_procs: usize,
}

impl Owners {
    /// The rank a block's work is routed to: the partition owner, or — once
    /// that owner is known dead to rank `me` — its first live successor
    /// (cyclic by rank id). All survivors with converged views route
    /// identically.
    fn of(self, block: BlockId, me: usize, live: Option<&Liveness>) -> usize {
        let owner = self.partition.owner_of(block, self.n_blocks, self.n_procs);
        match live {
            Some(l) if l.is_dead(owner) => (1..self.n_procs)
                .map(|k| (owner + k) % self.n_procs)
                .find(|&p| p == me || !l.is_dead(p))
                .unwrap_or(me),
            _ => owner,
        }
    }
}

/// One Static Allocation rank.
pub struct StaticProc {
    rank: usize,
    owners: Owners,
    /// Workspace, finished list, memory budget, ping-pong record, and the
    /// global termination detector — only meaningful on [`COUNT_RANK`],
    /// where its frontier ledger is the "globally communicated streamline
    /// count" of §4.1, split per ingest epoch on open runs.
    pub(crate) core: RankCore,
    /// Seeds assigned to this rank (they lie in its owned blocks).
    seeds: Vec<(StreamlineId, Vec3)>,
    /// Handed-in streamlines not yet integrated. Every `Handoff` that
    /// reaches a busy rank parks here, and one zero-delay pump wake
    /// (armed when the inbox becomes non-empty) advances them all through
    /// the batch kernel together: the MPI "probe everything, then compute"
    /// loop. A non-empty inbox is exactly "a pump wake is pending".
    inbox: Vec<Streamline>,
    comm_geometry: bool,
    /// Resilient mode: every rank beats and watches every peer, so each
    /// survivor detects each death itself and all converge on the same
    /// ownership rerouting. `None` outside rank-chaos runs so fault-free
    /// schedules are untouched.
    live: Option<Liveness>,
    /// Every rank's initial seed assignment (shared, read-only): the live
    /// successor of a dead rank re-seeds its slice. Rebuilt from the run
    /// config, never snapshotted.
    all_seeds: Arc<Vec<Vec<(StreamlineId, Vec3)>>>,
}

/// Send `sl` to rank `to`; it leaves this rank's books.
fn hand_off(
    core: &mut RankCore,
    sl: Streamline,
    to: usize,
    comm_geometry: bool,
    ctx: &mut dyn Context<Msg>,
) {
    core.ws.release(&sl);
    let m = Msg::Handoff { sl: Box::new(sl) };
    let bytes = m.wire_bytes(comm_geometry);
    ctx.send(to, m, bytes);
}

impl StaticProc {
    #[allow(clippy::too_many_arguments)]
    /// Rank `rank` of `all_seeds.len()`, seeded with `all_seeds[rank]`.
    /// `live` switches on resilient mode: handoffs reroute around dead
    /// owners and a dead rank's first live successor re-seeds its slice.
    pub fn new(
        rank: usize,
        ws: Workspace,
        all_seeds: Arc<Vec<Vec<(StreamlineId, Vec3)>>>,
        memory: MemoryBudget,
        comm_geometry: bool,
        h0: f64,
        total_streamlines: u64,
        partition: StaticPartition,
        live: Option<Liveness>,
    ) -> Self {
        let owners =
            Owners { partition, n_blocks: ws.decomp.num_blocks(), n_procs: all_seeds.len() };
        StaticProc {
            rank,
            owners,
            core: RankCore::new(
                ws,
                memory,
                h0,
                Self::detector_for(rank, &[total_streamlines]),
                EpochMap::closed(total_streamlines as u32),
            ),
            seeds: all_seeds[rank].clone(),
            inbox: Vec::new(),
            comm_geometry,
            live,
            all_seeds,
        }
    }

    /// The count rank's detector is pre-opened and sealed over the whole
    /// plan (`epoch_totals[e]` seeds in epoch `e`); the others start empty.
    fn detector_for(rank: usize, epoch_totals: &[u64]) -> FrontierDetector {
        if rank == COUNT_RANK {
            FrontierDetector::sealed_over(epoch_totals)
        } else {
            FrontierDetector::default()
        }
    }

    /// Set the ingest plan for this rank. With a single epoch the count
    /// rank's detector is exactly §4.1's global streamline count.
    pub fn with_ingest(mut self, epoch_totals: &[u64], emap: EpochMap) -> Self {
        self.core.emap = emap;
        self.core.detector = Self::detector_for(self.rank, epoch_totals);
        self
    }

    pub fn core(&self) -> &RankCore {
        &self.core
    }

    /// This rank's failure detector and membership view, in resilient mode.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.live.as_ref()
    }

    /// Capture this rank's mid-run state for a checkpoint.
    pub fn snapshot(&self) -> StaticSnapshot {
        StaticSnapshot {
            core: self.core.snapshot(),
            seeds: self.seeds.clone(),
            resil: self.live.clone(),
            inbox: self.inbox.clone(),
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub fn restore(&mut self, snap: &StaticSnapshot) -> Result<(), StoreError> {
        self.core.restore(&snap.core)?;
        self.seeds = snap.seeds.clone();
        self.live = snap.resil.clone();
        self.inbox = snap.inbox.clone();
        Ok(())
    }

    /// Tell the count rank that this rank ran out of memory.
    fn report_oom(&self, ctx: &mut dyn Context<Msg>) {
        if self.rank != COUNT_RANK {
            let m = Msg::OutOfMemory { rank: self.rank };
            let bytes = m.wire_bytes(self.comm_geometry);
            ctx.send(COUNT_RANK, m, bytes);
        }
    }

    /// Instantiate `seeds` as streamlines owned here, all before
    /// integrating any — the initialization pattern that makes dense
    /// seeding fatal in §5.3 ("all 22,000 seed points were being processed
    /// on a single processor") — then integrate and report them.
    fn integrate_seeds(
        &mut self,
        seeds: Vec<(StreamlineId, Vec3)>,
        now: f64,
        ctx: &mut dyn Context<Msg>,
    ) {
        let created: Vec<Streamline> = seeds
            .into_iter()
            .map(|(id, seed)| {
                self.core.note_arrival(id, now);
                self.core.spawn(id, seed)
            })
            .collect();
        if self.core.check_memory(ctx) {
            self.report_oom(ctx);
            return;
        }
        self.integrate(created, ctx);
    }

    /// Integrate a group of streamlines (seeds, or the handoff inbox)
    /// through this rank's blocks, then report its terminations: lanes are
    /// grouped by current block (lowest id first) and each block's queue
    /// goes through the batch kernel; lanes that cross into another owned
    /// block rejoin the worklist. A lane that enters a foreign block is
    /// handed off as soon as its chunk returns, so its owner can start on it
    /// before this rank's worklist drains; lanes in unloadable blocks
    /// terminate typed.
    fn integrate(&mut self, group: Vec<Streamline>, ctx: &mut dyn Context<Msg>) {
        let before = self.core.finished.len();
        let (me, owners, comm_geometry) = (self.rank, self.owners, self.comm_geometry);
        let live = self.live.as_ref();
        let route =
            |core: &mut RankCore,
             worklist: &mut Parked,
             sl: Streamline,
             block: BlockId,
             ctx: &mut dyn Context<Msg>| match owners.of(block, me, live) {
                to if to == me => worklist.entry(block).or_default().push(sl),
                to => hand_off(core, sl, to, comm_geometry, ctx),
            };
        let mut worklist = Parked::new();
        for sl in group {
            if let Some((b, sl)) = self.core.place(sl) {
                route(&mut self.core, &mut worklist, sl, b, ctx);
            }
        }
        while let Some((block, list)) = worklist.pop_first() {
            if self.core.ws.try_acquire(block, ctx).is_err() {
                // The block is gone for good (retries exhausted): terminate
                // its lanes here so they still count toward the global
                // active count and no rank waits forever for them.
                for sl in list {
                    self.core.fail_lane(sl);
                }
                continue;
            }
            let advanced = self.core.advance_block(block, list, ctx, |core, sl, next, ctx| {
                route(core, &mut worklist, sl, next, ctx)
            });
            if !advanced {
                self.report_oom(ctx);
                return;
            }
        }
        self.flush_terminations((self.core.finished.len() - before) as u64, ctx);
    }

    /// Per-epoch split of the last `n` entries of `finished` (exactly the
    /// streamlines terminated by the call that is about to flush them).
    /// Empty for single-epoch runs — the closed wire format.
    fn epoch_split(&self, n: usize) -> Vec<(u32, u32)> {
        let core = &self.core;
        if core.emap.n_epochs() <= 1 || n == 0 {
            return Vec::new();
        }
        let mut m: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for sl in &core.finished[core.finished.len() - n..] {
            *m.entry(core.emap.epoch_of(sl.id)).or_default() += 1;
        }
        m.into_iter().collect()
    }

    /// Report `count` local terminations toward the global count.
    fn flush_terminations(&mut self, count: u64, ctx: &mut dyn Context<Msg>) {
        if count == 0 {
            return;
        }
        let by_epoch = self.epoch_split(count as usize);
        if self.rank == COUNT_RANK {
            self.apply_count(count, &by_epoch, ctx);
        } else {
            let m = Msg::CountDelta { count: count as u32, by_epoch };
            let bytes = m.wire_bytes(self.comm_geometry);
            ctx.send(COUNT_RANK, m, bytes);
        }
    }

    fn apply_count(&mut self, count: u64, by_epoch: &[(u32, u32)], ctx: &mut dyn Context<Msg>) {
        debug_assert_eq!(self.rank, COUNT_RANK);
        let detector = &mut self.core.detector;
        // Re-seeded work after a death can legitimately over-count; outside
        // resilient mode an underflow is still a protocol bug.
        debug_assert!(self.live.is_some() || detector.outstanding() >= count, "count underflow");
        let now = ctx.now();
        if by_epoch.is_empty() {
            detector.retire(0, count, now);
        } else {
            debug_assert_eq!(by_epoch.iter().map(|&(_, c)| c as u64).sum::<u64>(), count);
            for &(epoch, c) in by_epoch {
                detector.retire(epoch, c as u64, now);
            }
        }
        if detector.is_done() {
            ctx.stop_all();
        }
    }

    /// A peer is now known dead: record it, and — if this rank is the dead
    /// rank's first live successor — adopt its initial seed assignment
    /// (once: a death is recorded once). Streamlines the dead rank held
    /// mid-flight are unrecoverable and are synthesized as
    /// [`streamline_integrate::Termination::RankLost`] when the run is
    /// collected; ids the adopter re-integrates are deduplicated there by
    /// id.
    fn apply_death(&mut self, rank: usize, now: f64, ctx: &mut dyn Context<Msg>) {
        let Some(l) = self.live.as_mut() else { return };
        if !l.mark_dead(rank, now, true) {
            return;
        }
        let adopter = (1..self.owners.n_procs)
            .map(|k| (rank + k) % self.owners.n_procs)
            .find(|&p| p == self.rank || !l.is_dead(p));
        if adopter != Some(self.rank) {
            return;
        }
        let orphan_seeds = self.all_seeds.get(rank).cloned().unwrap_or_default();
        if orphan_seeds.is_empty() {
            return;
        }
        l.reassigned += orphan_seeds.len() as u64;
        self.integrate_seeds(orphan_seeds, now, ctx);
    }
}

impl Process<Msg> for StaticProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        if let Some(l) = self.live.as_mut() {
            l.heard(&ev, ctx.now());
        }
        match ev {
            Event::Start => {
                if let Some(l) = self.live.as_mut() {
                    let now = ctx.now();
                    for p in (0..self.owners.n_procs).filter(|&p| p != self.rank) {
                        l.monitor.watch(p, now);
                    }
                    l.arm(ctx);
                }
                let seeds = std::mem::take(&mut self.seeds);
                self.integrate_seeds(seeds, ctx.now(), ctx);
                // A degenerate (zero-seed) plan is already complete: the
                // count rank must stop the world now — no termination will
                // ever arrive to trigger it.
                if !self.core.failed_oom && self.rank == COUNT_RANK && self.core.detector.is_done()
                {
                    ctx.stop_all();
                }
            }
            Event::Message { msg: Msg::Ingest { seeds, .. }, .. } => {
                // An open-loop batch, pre-routed to this rank by block
                // owner: instantiate and integrate exactly like start-time
                // seeds (epoch recovery is by id, not by tag).
                self.integrate_seeds(seeds, ctx.now(), ctx);
            }
            Event::Message { msg: Msg::Handoff { sl }, .. } => {
                self.core.note_arrival(sl.id, ctx.now());
                self.core.ws.admit(&sl);
                if self.inbox.is_empty() {
                    ctx.wake_after(0.0, WAKE_PUMP);
                }
                self.inbox.push(*sl);
            }
            Event::Wake(WAKE_PUMP) => {
                let inbox = std::mem::take(&mut self.inbox);
                self.integrate(inbox, ctx);
            }
            Event::Message { msg: Msg::CountDelta { count, by_epoch }, .. } => {
                self.apply_count(count as u64, &by_epoch, ctx);
            }
            Event::Message { msg: Msg::OutOfMemory { .. }, .. } => {
                // Another rank died; the world is already stopping.
            }
            Event::Wake(WAKE_BEAT) => {
                // Sweep (adopting the work of any newly dead rank), then
                // beat every live peer and re-arm until the deadline.
                let now = ctx.now();
                let Some((newly, beat)) = self.live.as_mut().map(|l| l.tick(now)) else { return };
                for rank in newly {
                    self.apply_death(rank, now, ctx);
                    if self.core.failed_oom {
                        return;
                    }
                }
                if let Some(l) = self.live.as_mut().filter(|_| beat) {
                    for p in l.live_ranks(self.rank, self.owners.n_procs) {
                        if p != self.rank {
                            ctx.send(p, Msg::Beat, Msg::Beat.wire_bytes(self.comm_geometry));
                        }
                    }
                    l.arm(ctx);
                }
            }
            Event::Message { .. } | Event::Wake(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};
    use streamline_integrate::StepLimits;
    use streamline_iosim::{DiskModel, MemoryStore};

    #[test]
    fn handoffs_before_the_pump_share_one_batch() {
        // Uniform +x field, 2×2×2 blocks, two ranks: rank 1 owns the z ≥ 0.5
        // half. Both streamlines start in block (1, 0, 1) and run out of
        // the domain there.
        let ds = uniform_x_dataset();
        let store = Arc::new(MemoryStore::build(&ds));
        let ws = Workspace::new(
            ds.decomp,
            store,
            8,
            DiskModel::paper_scale(),
            StepLimits::default(),
            1e-6,
        );
        let mut p = StaticProc::new(
            1,
            ws,
            Arc::new(vec![Vec::new(), Vec::new()]),
            MemoryBudget::unlimited(),
            true,
            1e-2,
            2,
            StaticPartition::Contiguous,
            None,
        );
        let mut ctx = NullCtx::default();
        for (i, x) in [0.6, 0.7].into_iter().enumerate() {
            let sl = Streamline::new_lean(StreamlineId(i as u32), Vec3::new(x, 0.25, 0.75), 1e-2);
            p.on_event(
                Event::Message { from: 0, msg: Msg::Handoff { sl: Box::new(sl) } },
                &mut ctx,
            );
        }
        assert_eq!(ctx.wakes, vec![(0.0, WAKE_PUMP)], "one pump wake for both handoffs");
        assert_eq!(p.core.ws.batch_calls, 0, "nothing is integrated before the wake");
        assert_eq!(p.snapshot().inbox.len(), 2, "the inbox is part of the snapshot");

        let (_, token) = ctx.take_wake().expect("armed above");
        p.on_event(Event::Wake(token), &mut ctx);
        assert_eq!((p.core.ws.batch_calls, p.core.ws.batched_lanes), (1, 2));
        assert!(p.inbox.is_empty() && ctx.wakes.is_empty());
        assert_eq!(p.core.finished.len(), 2);
        let deltas: Vec<&(usize, Msg, usize)> =
            ctx.sent.iter().filter(|(_, m, _)| matches!(m, Msg::CountDelta { .. })).collect();
        assert_eq!(deltas.len(), 1, "{:?}", ctx.sent);
        assert!(matches!(deltas[0], (COUNT_RANK, Msg::CountDelta { count: 2, .. }, _)));
        assert_eq!(ctx.sent.len(), 1, "nothing is handed on: {:?}", ctx.sent);
    }

    #[test]
    fn ownership_is_contiguous_and_balanced() {
        let n_blocks = 512;
        let n_procs = 64;
        let mut counts = vec![0usize; n_procs];
        let mut last_owner = 0;
        for b in 0..n_blocks {
            let o = StaticPartition::Contiguous.owner_of(BlockId(b as u32), n_blocks, n_procs);
            assert!(o >= last_owner, "ownership must be monotone");
            last_owner = o;
            counts[o] += 1;
        }
        // 512 / 64 = 8 blocks each.
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    fn ownership_handles_non_divisible() {
        let n_blocks = 10;
        let n_procs = 3;
        let counts = (0..n_blocks).fold(vec![0usize; n_procs], |mut acc, b| {
            acc[StaticPartition::Contiguous.owner_of(BlockId(b as u32), n_blocks, n_procs)] += 1;
            acc
        });
        assert_eq!(counts.iter().sum::<usize>(), n_blocks);
        assert!(counts.iter().all(|&c| (3..=4).contains(&c)), "{counts:?}");
    }

    #[test]
    fn first_processor_gets_first_blocks() {
        // §4.1: "the first of n processors is assigned the first 1/n of the
        // blocks".
        assert_eq!(StaticPartition::Contiguous.owner_of(BlockId(0), 512, 4), 0);
        assert_eq!(StaticPartition::Contiguous.owner_of(BlockId(127), 512, 4), 0);
        assert_eq!(StaticPartition::Contiguous.owner_of(BlockId(128), 512, 4), 1);
        assert_eq!(StaticPartition::Contiguous.owner_of(BlockId(511), 512, 4), 3);
    }
}
