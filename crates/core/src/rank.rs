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

    /// The block `sl` is in; outside the domain it terminates
    /// `ExitedDomain` here instead (counted, its solver object freed).
    pub(crate) fn place(&mut self, mut sl: Streamline) -> Option<(BlockId, Streamline)> {
        match self.ws.locate(sl.state.position) {
            Some(b) => Some((b, sl)),
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
        self.ws.terminate_unavailable(&mut sl);
        self.finished.push(sl);
    }

    /// Advance `list` — lanes waiting in resident `block` — through the
    /// batch kernel in chunks of the batch width. Each chunk is the list's
    /// last entries reversed (the order a scalar loop popping from the end
    /// would take); finished lanes join `finished` and every lane that
    /// crossed into block `next` goes to `route(core, lane, next, ctx)`.
    /// Returns false when the memory budget ran out (the world is
    /// stopping).
    pub(crate) fn advance_block<F>(
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
