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
use crate::termination::{AnyDetector, DetectorKind, TerminationDetector};
use crate::workspace::{BlockExit, Workspace, WorkspaceSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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
    pub fn owner_of(self, block: BlockId, n_blocks: usize, n_procs: usize) -> usize {
        debug_assert!(block.index() < n_blocks);
        match self {
            StaticPartition::Contiguous => block.index() * n_procs / n_blocks,
            StaticPartition::RoundRobin => block.index() % n_procs,
        }
    }
}

/// Contiguous block ownership: block `b` of `n_blocks` belongs to this rank
/// of `n_procs` (the paper's §4.1 scheme).
pub fn owner_of(block: BlockId, n_blocks: usize, n_procs: usize) -> usize {
    StaticPartition::Contiguous.owner_of(block, n_blocks, n_procs)
}

/// Serializable image of a [`StaticProc`] mid-run. Configuration fields
/// (rank, partition, budgets) are rebuilt from the run config; only genuine
/// run state is stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticSnapshot {
    pub ws: WorkspaceSnapshot,
    pub seeds: Vec<(StreamlineId, Vec3)>,
    pub finished: Vec<Streamline>,
    /// Legacy mirror of the detector's outstanding count, kept so
    /// pre-detector snapshots restore (and new snapshots stay readable by
    /// eye).
    pub remaining: u64,
    pub failed_oom: bool,
    /// The termination detector (count rank only holds real state). Absent
    /// in pre-detector snapshots — reconstructed from `remaining`.
    #[serde(default)]
    pub detector: Option<AnyDetector>,
    #[serde(default)]
    pub seen: Vec<u32>,
    #[serde(default)]
    pub pingponged: Vec<u32>,
    #[serde(default)]
    pub pingpong_times: Vec<f64>,
    /// The rank's failure detector and membership view (rank-chaos runs
    /// only). Absent in pre-resilience snapshots.
    #[serde(default)]
    pub resil: Option<Liveness>,
    /// Handed-in streamlines waiting for the pump wake, which is still
    /// pending in the cut whenever this is non-empty. Absent in snapshots
    /// from before the deferred pump.
    #[serde(default)]
    pub inbox: Vec<Streamline>,
}

/// One Static Allocation rank.
pub struct StaticProc {
    rank: usize,
    n_procs: usize,
    ws: Workspace,
    /// Seeds assigned to this rank (they lie in its owned blocks).
    seeds: Vec<(StreamlineId, Vec3)>,
    /// Handed-in streamlines not yet integrated. Every `Handoff` that
    /// reaches a busy rank parks here, and one zero-delay pump wake
    /// (armed when the inbox becomes non-empty) advances them all through
    /// the batch kernel together: the MPI "probe everything, then compute"
    /// loop. A non-empty inbox is exactly "a pump wake is pending".
    inbox: Vec<Streamline>,
    /// Finished streamlines kept for inspection (geometry stays resident,
    /// which is what the memory model charges).
    pub finished: Vec<Streamline>,
    memory: MemoryBudget,
    comm_geometry: bool,
    h0: f64,
    partition: StaticPartition,
    /// Global termination detector — only meaningful on [`COUNT_RANK`],
    /// where it holds the "globally communicated streamline count" of §4.1
    /// (closed-set) or the per-epoch frontier ledger (open-loop).
    detector: AnyDetector,
    /// Streamline id → ingest epoch (identity for closed runs). Rebuilt
    /// from the run config, never snapshotted.
    emap: EpochMap,
    /// Set when this rank exceeded its memory budget.
    pub failed_oom: bool,
    /// Streamline ids this rank has ever owned (seeded here or handed in).
    seen: BTreeSet<u32>,
    /// Ids that were handed back after leaving — ping-pong streamlines.
    pingponged: BTreeSet<u32>,
    /// Virtual times at which each ping-pong was first detected.
    pingpong_times: Vec<f64>,
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
        StaticProc {
            rank,
            n_procs: all_seeds.len(),
            ws,
            seeds: all_seeds[rank].clone(),
            inbox: Vec::new(),
            finished: Vec::new(),
            memory,
            comm_geometry,
            h0,
            partition,
            detector: if rank == COUNT_RANK {
                AnyDetector::sealed_over(DetectorKind::ClosedSet, &[total_streamlines])
            } else {
                AnyDetector::new(DetectorKind::ClosedSet)
            },
            emap: EpochMap::closed(total_streamlines as u32),
            failed_oom: false,
            seen: BTreeSet::new(),
            pingponged: BTreeSet::new(),
            pingpong_times: Vec::new(),
            live,
            all_seeds,
        }
    }

    /// Select the termination detector and ingest plan for this rank. The
    /// count rank's detector is pre-opened and sealed over the whole plan
    /// (`epoch_totals[e]` seeds in epoch `e`); with the default
    /// `ClosedSet` kind and a single epoch this is exactly the legacy
    /// `remaining` counter.
    pub fn with_ingest(mut self, kind: DetectorKind, epoch_totals: &[u64], emap: EpochMap) -> Self {
        self.emap = emap;
        self.detector = if self.rank == COUNT_RANK {
            AnyDetector::sealed_over(kind, epoch_totals)
        } else {
            AnyDetector::new(kind)
        };
        self
    }

    /// This rank's termination detector (real state on [`COUNT_RANK`]).
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// This rank's failure detector and membership view, in resilient mode.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.live.as_ref()
    }

    pub fn workspace(&self) -> &Workspace {
        &self.ws
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
    fn note_arrival(&mut self, id: StreamlineId, now: f64) {
        if !self.seen.insert(id.0) && self.pingponged.insert(id.0) {
            self.pingpong_times.push(now);
        }
    }

    /// Capture this rank's mid-run state for a checkpoint.
    pub fn snapshot(&self) -> StaticSnapshot {
        StaticSnapshot {
            ws: self.ws.snapshot(),
            seeds: self.seeds.clone(),
            finished: self.finished.clone(),
            remaining: self.detector.outstanding(),
            failed_oom: self.failed_oom,
            detector: Some(self.detector.clone()),
            seen: self.seen.iter().copied().collect(),
            pingponged: self.pingponged.iter().copied().collect(),
            pingpong_times: self.pingpong_times.clone(),
            resil: self.live.clone(),
            inbox: self.inbox.clone(),
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub fn restore(&mut self, snap: &StaticSnapshot) -> Result<(), StoreError> {
        self.ws.restore(&snap.ws)?;
        self.seeds = snap.seeds.clone();
        self.finished = snap.finished.clone();
        self.detector = match &snap.detector {
            Some(d) => d.clone(),
            // Pre-detector snapshot: reconstruct the legacy counter.
            None if self.rank == COUNT_RANK => {
                AnyDetector::sealed_over(DetectorKind::ClosedSet, &[snap.remaining])
            }
            None => AnyDetector::new(DetectorKind::ClosedSet),
        };
        self.failed_oom = snap.failed_oom;
        self.seen = snap.seen.iter().copied().collect();
        self.pingponged = snap.pingponged.iter().copied().collect();
        self.pingpong_times = snap.pingpong_times.clone();
        self.live = snap.resil.clone();
        self.inbox = snap.inbox.clone();
        Ok(())
    }

    /// The rank a block's work is routed to: the partition owner, or — once
    /// that owner is known dead — its first live successor (cyclic by rank
    /// id). All survivors with converged views route identically.
    fn effective_owner(&self, block: BlockId) -> usize {
        let owner = self.partition.owner_of(block, self.ws.decomp.num_blocks(), self.n_procs);
        match &self.live {
            Some(l) if l.is_dead(owner) => (1..self.n_procs)
                .map(|k| (owner + k) % self.n_procs)
                .find(|&p| p == self.rank || !l.is_dead(p))
                .unwrap_or(self.rank),
            _ => owner,
        }
    }

    fn owns(&self, block: BlockId) -> bool {
        self.effective_owner(block) == self.rank
    }

    fn check_memory(&mut self, ctx: &mut dyn Context<Msg>) -> bool {
        if self.memory.exceeded(self.ws.memory_bytes()) {
            self.failed_oom = true;
            if self.rank != COUNT_RANK {
                let m = Msg::OutOfMemory { rank: self.rank };
                let bytes = m.wire_bytes(self.comm_geometry);
                ctx.send(COUNT_RANK, m, bytes);
            }
            ctx.stop_all();
            return true;
        }
        false
    }

    /// Send `sl` to the rank that owns `block`; it leaves this rank's books.
    fn hand_off(&mut self, sl: Streamline, block: BlockId, ctx: &mut dyn Context<Msg>) {
        self.ws.release(&sl);
        let m = Msg::Handoff { sl: Box::new(sl) };
        let bytes = m.wire_bytes(self.comm_geometry);
        let to = self.effective_owner(block);
        ctx.send(to, m, bytes);
    }

    /// Integrate a group of streamlines (seeds, or the handoff inbox)
    /// through this rank's blocks via the batch kernel: lanes are grouped by
    /// current block (lowest id first), each block's queue is advanced in
    /// chunks of the workspace batch width, and lanes that cross into
    /// another owned block rejoin the worklist. A lane that enters a foreign
    /// block is handed off as soon as its chunk returns, so its owner can
    /// start on it before this rank's worklist drains; lanes in unloadable
    /// blocks terminate typed. Returns the number of streamlines that
    /// terminated here.
    fn process_group(&mut self, group: Vec<Streamline>, ctx: &mut dyn Context<Msg>) -> u64 {
        let lanes = self.ws.batch_lanes();
        let mut done = 0;
        let mut worklist: std::collections::BTreeMap<BlockId, Vec<Streamline>> =
            std::collections::BTreeMap::new();
        for mut sl in group {
            match self.ws.locate(sl.state.position) {
                Some(b) if self.owns(b) => worklist.entry(b).or_default().push(sl),
                Some(b) => self.hand_off(sl, b, ctx),
                None => {
                    sl.terminate(streamline_integrate::Termination::ExitedDomain);
                    self.ws.terminated += 1;
                    self.ws.retire_object();
                    self.finished.push(sl);
                    done += 1;
                }
            }
        }
        while let Some((block, mut list)) = worklist.pop_first() {
            if self.ws.try_acquire(block, ctx).is_err() {
                // The block is gone for good (retries exhausted): terminate
                // its lanes here so they still count toward the global
                // active count and no rank waits forever for them.
                for mut sl in list {
                    self.ws.terminate_unavailable(&mut sl);
                    self.finished.push(sl);
                    done += 1;
                }
                continue;
            }
            while !list.is_empty() {
                let take = lanes.min(list.len());
                let mut chunk = list.split_off(list.len() - take);
                chunk.reverse();
                let exits = self.ws.advance_batch_in(&mut chunk, block, ctx);
                for (sl, exit) in chunk.into_iter().zip(exits) {
                    match exit {
                        BlockExit::MovedTo(next) if self.owns(next) => {
                            worklist.entry(next).or_default().push(sl)
                        }
                        BlockExit::MovedTo(next) => self.hand_off(sl, next, ctx),
                        BlockExit::Done(_) => {
                            self.finished.push(sl);
                            done += 1;
                        }
                    }
                }
                if self.check_memory(ctx) {
                    return done;
                }
            }
        }
        done
    }

    /// Per-epoch split of the last `n` entries of `finished` (exactly the
    /// streamlines terminated by the call that is about to flush them).
    /// Empty for single-epoch runs — the closed wire format.
    fn epoch_split(&self, n: usize) -> Vec<(u32, u32)> {
        if self.emap.n_epochs() <= 1 || n == 0 {
            return Vec::new();
        }
        let mut m: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for sl in &self.finished[self.finished.len() - n..] {
            *m.entry(self.emap.epoch_of(sl.id)).or_default() += 1;
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
        // Re-seeded work after a death can legitimately over-count; outside
        // resilient mode an underflow is still a protocol bug.
        debug_assert!(
            self.live.is_some() || self.detector.outstanding() >= count,
            "count underflow"
        );
        let now = ctx.now();
        if by_epoch.is_empty() {
            self.detector.retire(0, count, now);
        } else {
            debug_assert_eq!(by_epoch.iter().map(|&(_, c)| c as u64).sum::<u64>(), count);
            for &(epoch, c) in by_epoch {
                self.detector.retire(epoch, c as u64, now);
            }
        }
        if self.detector.is_done() {
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
        let adopter = (1..self.n_procs)
            .map(|k| (rank + k) % self.n_procs)
            .find(|&p| p == self.rank || !l.is_dead(p));
        if adopter != Some(self.rank) {
            return;
        }
        let orphan_seeds = self.all_seeds.get(rank).cloned().unwrap_or_default();
        if orphan_seeds.is_empty() {
            return;
        }
        l.reassigned += orphan_seeds.len() as u64;
        let mut created: Vec<Streamline> = Vec::with_capacity(orphan_seeds.len());
        for (id, seed) in orphan_seeds {
            self.note_arrival(id, now);
            let sl = Streamline::new_lean(id, seed, self.h0);
            self.ws.admit(&sl);
            created.push(sl);
        }
        if self.check_memory(ctx) {
            return;
        }
        let done = self.process_group(created, ctx);
        if !self.failed_oom {
            self.flush_terminations(done, ctx);
        }
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
                    for p in (0..self.n_procs).filter(|&p| p != self.rank) {
                        l.monitor.watch(p, now);
                    }
                    l.arm(ctx);
                }
                // Instantiate the entire local seed set before integrating —
                // the initialization pattern that makes dense seeding fatal
                // in §5.3 ("all 22,000 seed points were being processed on a
                // single processor").
                let seeds = std::mem::take(&mut self.seeds);
                let mut created: Vec<Streamline> = Vec::with_capacity(seeds.len());
                let now = ctx.now();
                for (id, seed) in seeds {
                    self.note_arrival(id, now);
                    let sl = Streamline::new_lean(id, seed, self.h0);
                    self.ws.admit(&sl);
                    created.push(sl);
                }
                if self.check_memory(ctx) {
                    return;
                }
                let done = self.process_group(created, ctx);
                if self.failed_oom {
                    return;
                }
                self.flush_terminations(done, ctx);
                // A degenerate (zero-seed) plan is already complete: the
                // count rank must stop the world now — no termination will
                // ever arrive to trigger it.
                if self.rank == COUNT_RANK && self.detector.is_done() {
                    ctx.stop_all();
                }
            }
            Event::Message { msg: Msg::Ingest { seeds, .. }, .. } => {
                // An open-loop batch, pre-routed to this rank by block
                // owner: instantiate and integrate exactly like start-time
                // seeds (epoch recovery is by id, not by tag).
                let now = ctx.now();
                let mut created: Vec<Streamline> = Vec::with_capacity(seeds.len());
                for (id, seed) in seeds {
                    self.note_arrival(id, now);
                    let sl = Streamline::new_lean(id, seed, self.h0);
                    self.ws.admit(&sl);
                    created.push(sl);
                }
                if self.check_memory(ctx) {
                    return;
                }
                let done = self.process_group(created, ctx);
                if self.failed_oom {
                    return;
                }
                self.flush_terminations(done, ctx);
            }
            Event::Message { msg: Msg::Handoff { sl }, .. } => {
                self.note_arrival(sl.id, ctx.now());
                self.ws.admit(&sl);
                if self.inbox.is_empty() {
                    ctx.wake_after(0.0, WAKE_PUMP);
                }
                self.inbox.push(*sl);
            }
            Event::Wake(WAKE_PUMP) => {
                let inbox = std::mem::take(&mut self.inbox);
                let done = self.process_group(inbox, ctx);
                if self.failed_oom {
                    return;
                }
                self.flush_terminations(done, ctx);
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
                    if self.failed_oom {
                        return;
                    }
                }
                if let Some(l) = self.live.as_mut().filter(|_| beat) {
                    for p in l.live_ranks(self.rank, self.n_procs) {
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
        assert_eq!(p.ws.batch_calls, 0, "nothing is integrated before the wake");
        assert_eq!(p.snapshot().inbox.len(), 2, "the inbox is part of the snapshot");

        let (_, token) = ctx.take_wake().expect("armed above");
        p.on_event(Event::Wake(token), &mut ctx);
        assert_eq!((p.ws.batch_calls, p.ws.batched_lanes), (1, 2));
        assert!(p.inbox.is_empty() && ctx.wakes.is_empty());
        assert_eq!(p.finished.len(), 2);
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
            let o = owner_of(BlockId(b as u32), n_blocks, n_procs);
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
            acc[owner_of(BlockId(b as u32), n_blocks, n_procs)] += 1;
            acc
        });
        assert_eq!(counts.iter().sum::<usize>(), n_blocks);
        assert!(counts.iter().all(|&c| (3..=4).contains(&c)), "{counts:?}");
    }

    #[test]
    fn first_processor_gets_first_blocks() {
        // §4.1: "the first of n processors is assigned the first 1/n of the
        // blocks".
        assert_eq!(owner_of(BlockId(0), 512, 4), 0);
        assert_eq!(owner_of(BlockId(127), 512, 4), 0);
        assert_eq!(owner_of(BlockId(128), 512, 4), 1);
        assert_eq!(owner_of(BlockId(511), 512, 4), 3);
    }
}
