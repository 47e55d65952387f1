//! Load On Demand (§4.2): parallelize across streamlines.
//!
//! "We split up the initial seed points evenly among the processors ...
//! grouped by block to enhance data locality. Each processor integrates the
//! streamlines assigned to it until streamline termination. As streamlines
//! move between blocks, each processor loads the appropriate block into
//! memory into an LRU cache. In order to minimize I/O, each processor
//! integrates all streamlines to the edge of the loaded blocks, loading a
//! block from disk only when there is no more work to be done on the
//! in-memory blocks. ... Each processor terminates independently when all of
//! its streamlines have terminated." No communication at all.

use crate::config::MemoryBudget;
use crate::ingest::EpochMap;
use crate::liveness::{Liveness, WAKE_BEAT};
use crate::msg::Msg;
use crate::rank::{repark, Parked, RankCore, RankCoreSnapshot};
use crate::termination::FrontierDetector;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamline_desim::{Context, Event, Process};
use streamline_field::block::BlockId;
use streamline_integrate::{Streamline, StreamlineId};
use streamline_iosim::StoreError;
use streamline_math::Vec3;

/// Round wake (the only wake token outside resilient mode).
const WAKE_ROUND: u64 = 0;

/// One Load On Demand rank.
///
/// The run proceeds in *rounds*: advance everything whose block is resident,
/// then load exactly one block, then yield back to the runtime with a
/// zero-delay wake. A round per event (instead of the whole run inside
/// `Start`) keeps virtual times and metrics identical while giving the
/// simulation between-event points at which a checkpoint can cut mid-run.
pub struct LodProc {
    /// Workspace, finished list, memory budget and the local termination
    /// detector: work opens as it is admitted (start seeds, ingest batches,
    /// adopted chunks) and retires as it finishes. LOD ranks are
    /// independent, so local completion *is* global completion for this
    /// rank's share.
    pub(crate) core: RankCore,
    seeds: Vec<(StreamlineId, Vec3)>,
    /// Streamlines waiting for a non-resident block.
    parked: Parked,
    pub done: bool,
    /// This rank's identity — only meaningful in resilient mode (LOD ranks
    /// are otherwise fully independent and never address each other).
    rank: usize,
    n_ranks: usize,
    /// Resilient mode: a heartbeat ring (each rank beats its live successor
    /// and watches its live predecessor). On suspicion the watcher
    /// re-integrates the dead rank's entire initial seed chunk — LOD
    /// exchanges no work mid-run, so the initial assignment is the complete
    /// recovery unit; ids the dead rank already finished are deduplicated
    /// at collect time. `None` outside rank-chaos runs so fault-free
    /// schedules are untouched (and the driver stays communication-free, as
    /// §4.2 requires).
    live: Option<Liveness>,
    /// Every rank's initial seed assignment (shared, read-only): the live
    /// successor of a dead rank re-integrates its chunk. Rebuilt from the
    /// run config, never snapshotted.
    all_seeds: Arc<Vec<Vec<(StreamlineId, Vec3)>>>,
}

/// Serializable image of a [`LodProc`] mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LodSnapshot {
    pub core: RankCoreSnapshot,
    pub seeds: Vec<(StreamlineId, Vec3)>,
    pub parked: Vec<(BlockId, Vec<Streamline>)>,
    pub done: bool,
    /// The rank's failure detector and membership view (rank-chaos runs
    /// only).
    pub resil: Option<Liveness>,
}

impl LodProc {
    /// Rank `rank` of `all_seeds.len()`, seeded with the chunk
    /// `all_seeds[rank]`. `live` switches on resilient mode.
    pub fn new(
        rank: usize,
        ws: Workspace,
        all_seeds: Arc<Vec<Vec<(StreamlineId, Vec3)>>>,
        memory: MemoryBudget,
        h0: f64,
        live: Option<Liveness>,
    ) -> Self {
        let seeds = all_seeds[rank].clone();
        let mut detector = FrontierDetector::default();
        detector.seal(1);
        let emap = EpochMap::closed(seeds.len() as u32);
        LodProc {
            core: RankCore::new(ws, memory, h0, detector, emap),
            seeds,
            parked: Parked::new(),
            done: false,
            rank,
            n_ranks: all_seeds.len(),
            live,
            all_seeds,
        }
    }

    /// Set the ingest plan: `n_epochs` total ingest epochs will be observed
    /// (epoch 0 at start, the rest as [`Msg::Ingest`] events — one per
    /// epoch, even when this rank's share is empty). Work opens as it is
    /// admitted.
    pub fn with_ingest(mut self, n_epochs: u32, emap: EpochMap) -> Self {
        self.core.emap = emap;
        self.core.detector = FrontierDetector::default();
        self.core.detector.seal(n_epochs.max(1));
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
    pub fn snapshot(&self) -> LodSnapshot {
        LodSnapshot {
            core: self.core.snapshot(),
            seeds: self.seeds.clone(),
            parked: self.parked.iter().map(|(&b, v)| (b, v.clone())).collect(),
            done: self.done,
            resil: self.live.clone(),
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub fn restore(&mut self, snap: &LodSnapshot) -> Result<(), StoreError> {
        self.core.restore(&snap.core)?;
        self.seeds = snap.seeds.clone();
        self.parked = snap.parked.iter().cloned().collect();
        self.done = snap.done;
        self.live = snap.resil.clone();
        Ok(())
    }

    /// Open `seeds` in ingest `epoch` and park each at its block.
    fn admit_seeds(&mut self, epoch: u32, seeds: Vec<(StreamlineId, Vec3)>) {
        self.core.detector.open(epoch, seeds.len() as u64);
        for (id, seed) in seeds {
            if let Some((b, sl)) = self.core.place_seed(id, seed) {
                self.parked.entry(b).or_default().push(sl);
            }
        }
    }

    /// The watched predecessor is dead: record it, rewatch, and adopt its
    /// entire initial seed chunk (the complete recovery unit — LOD ranks
    /// exchange no work mid-run; a death is recorded, so adopted, once).
    /// Ids the dead rank already finished are deduplicated at collect time;
    /// work it held mid-flight that the chunk replays is thereby recovered
    /// exactly.
    fn apply_death(&mut self, rank: usize, now: f64, ctx: &mut dyn Context<Msg>) {
        let Some(l) = self.live.as_mut() else { return };
        if !l.mark_dead(rank, now, true) {
            return;
        }
        l.watch_ring_predecessor(self.rank, self.n_ranks, now);
        let orphan_seeds = self.all_seeds.get(rank).cloned().unwrap_or_default();
        if orphan_seeds.is_empty() {
            return;
        }
        l.reassigned += orphan_seeds.len() as u64;
        // Adopted work joins this rank's base-epoch ledger so the replayed
        // retirements stay balanced against what was opened here.
        self.admit_seeds(0, orphan_seeds);
        if self.core.check_memory(ctx) {
            return;
        }
        // The rank may have already declared itself done; adopted work
        // re-opens it.
        self.done = false;
        ctx.wake_after(0.0, WAKE_ROUND);
    }

    /// One round: advance everything whose block is resident, then load at
    /// most one block and yield. Terminates the rank when no work remains.
    fn round(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.done || !self.core.drain_resident(&mut self.parked, ctx, repark) {
            return;
        }
        self.core.note_retirements(ctx.now());
        if self.parked.is_empty() {
            // Done only when no future ingest epoch can deliver more work;
            // otherwise stay idle — the next `Ingest` restarts the rounds.
            if self.core.detector.is_done() {
                self.done = true;
            }
            return;
        }
        if !self.core.load_most_wanted(&mut self.parked, ctx) {
            return;
        }
        // Yield: the next round runs at the same virtual time, but the
        // runtime gets a between-events cut point.
        ctx.wake_after(0.0, 0);
    }
}

impl Process<Msg> for LodProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        if let Some(l) = self.live.as_mut() {
            l.heard(&ev, ctx.now());
        }
        match ev {
            Event::Start => {
                if let Some(l) = self.live.as_mut() {
                    l.watch_ring_predecessor(self.rank, self.n_ranks, ctx.now());
                    l.arm(ctx);
                }
                // Open the base epoch even when this rank's share is empty
                // — the frontier cannot pass an unobserved epoch.
                let seeds = std::mem::take(&mut self.seeds);
                self.admit_seeds(0, seeds);
                self.round(ctx);
                self.core.note_retirements(ctx.now());
            }
            Event::Wake(WAKE_BEAT) => {
                // Sweep (adopting the chunk of any newly dead predecessor),
                // then beat the live successor and re-arm until the
                // deadline.
                let now = ctx.now();
                let Some((newly, beat)) = self.live.as_mut().map(|l| l.tick(now)) else { return };
                for rank in newly {
                    self.apply_death(rank, now, ctx);
                    if self.core.failed_oom {
                        return;
                    }
                }
                if let Some(l) = self.live.as_mut().filter(|_| beat) {
                    let live = l.live_ranks(self.rank, self.n_ranks);
                    if live.len() >= 2 {
                        let i = live.iter().position(|&r| r == self.rank).expect("self is alive");
                        ctx.send(live[(i + 1) % live.len()], Msg::Beat, Msg::Beat.wire_bytes(true));
                    }
                    l.arm(ctx);
                }
            }
            Event::Wake(_) => {
                self.round(ctx);
                self.core.note_retirements(ctx.now());
            }
            Event::Message { msg: Msg::Ingest { epoch, seeds }, .. } => {
                // An open-loop batch for this rank (possibly empty — the
                // epoch is still observed). Admitted work re-opens a rank
                // that had gone idle.
                self.admit_seeds(epoch, seeds);
                if self.core.check_memory(ctx) {
                    return;
                }
                self.done = false;
                self.round(ctx);
                self.core.note_retirements(ctx.now());
            }
            // Load On Demand exchanges no work messages; beats are proof of
            // life for the failure detector.
            Event::Message { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};
    use std::sync::Arc;
    use streamline_integrate::StepLimits;
    use streamline_iosim::{DiskModel, MemoryStore};

    fn proc_with(seeds: Vec<(StreamlineId, Vec3)>, cache_blocks: usize) -> LodProc {
        let ds = uniform_x_dataset();
        let store = Arc::new(MemoryStore::build(&ds));
        let ws = Workspace::new(
            ds.decomp,
            store,
            cache_blocks,
            DiskModel::paper_scale(),
            StepLimits::default(),
            1e-6,
        );
        LodProc::new(0, ws, Arc::new(vec![seeds]), MemoryBudget::unlimited(), 1e-2, None)
    }

    /// Deliver Start, then pump the zero-delay wakes the rank schedules
    /// between rounds until it stops asking for them.
    fn run_rounds(p: &mut LodProc, ctx: &mut NullCtx) {
        p.on_event(Event::Start, ctx);
        while let Some((_, token)) = ctx.take_wake() {
            p.on_event(Event::Wake(token), ctx);
        }
    }

    #[test]
    fn all_streamlines_terminate() {
        let seeds = (0..10)
            .map(|i| (StreamlineId(i), Vec3::new(0.1, 0.05 + 0.09 * i as f64, 0.3)))
            .collect();
        let mut p = proc_with(seeds, 8);
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        assert!(p.done);
        assert_eq!(p.core.finished.len(), 10);
        assert!(p.core.finished.iter().all(|s| s.status
            == streamline_integrate::StreamlineStatus::Terminated(
                streamline_integrate::Termination::ExitedDomain
            )));
        // Uniform +x from x=0.1 crosses 2 blocks per streamline; with a
        // roomy cache each of the blocks touched loads exactly once.
        let stats = p.core.ws.cache_stats();
        assert_eq!(stats.purged, 0);
        assert!(ctx.io > 0.0);
        assert!(ctx.sent.is_empty(), "LOD must not communicate");
    }

    #[test]
    fn tiny_cache_forces_reloads() {
        // Seeds in all 8 blocks with a 1-block cache: blocks must be loaded,
        // purged and reloaded — low block efficiency (Figure 7's LOD bars).
        let mut seeds = Vec::new();
        let mut i = 0;
        for x in [0.2, 0.7] {
            for y in [0.2, 0.7] {
                for z in [0.2, 0.7] {
                    seeds.push((StreamlineId(i), Vec3::new(x, y, z)));
                    i += 1;
                }
            }
        }
        let mut p = proc_with(seeds, 1);
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        assert!(p.done);
        assert_eq!(p.core.finished.len(), 8);
        let stats = p.core.ws.cache_stats();
        assert!(stats.purged > 0);
        assert!(stats.efficiency() < 0.5, "E = {}", stats.efficiency());
    }

    #[test]
    fn groups_by_block_before_loading() {
        // Two seeds in the same block: the block is loaded once, both are
        // integrated through it before any other load.
        let seeds = vec![
            (StreamlineId(0), Vec3::new(0.1, 0.2, 0.2)),
            (StreamlineId(1), Vec3::new(0.15, 0.3, 0.3)),
        ];
        let mut p = proc_with(seeds, 1);
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        // Blocks on the +x path: (0,0,0) then (1,0,0) — exactly 2 loads even
        // with a single-slot cache.
        assert_eq!(p.core.ws.cache_stats().loaded, 2);
    }

    #[test]
    fn oom_aborts_run() {
        let seeds = vec![(StreamlineId(0), Vec3::new(0.1, 0.2, 0.2))];
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
        // Budget below one block.
        let mut p = LodProc::new(
            0,
            ws,
            Arc::new(vec![seeds]),
            MemoryBudget { bytes: Some(1.0), vertex_bytes: 64.0, stream_bytes: 65536.0 },
            1e-2,
            None,
        );
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        assert!(p.core.failed_oom);
        assert!(ctx.stopped);
    }

    #[test]
    fn snapshot_mid_run_resumes_identically() {
        let seeds: Vec<(StreamlineId, Vec3)> =
            (0..6).map(|i| (StreamlineId(i), Vec3::new(0.1, 0.1 + 0.13 * i as f64, 0.4))).collect();
        // Reference: run straight through.
        let mut reference = proc_with(seeds.clone(), 1);
        let mut rctx = NullCtx::default();
        run_rounds(&mut reference, &mut rctx);
        assert!(reference.done);

        // Interrupted: two rounds, snapshot, restore onto a fresh rank,
        // finish from there.
        let mut first = proc_with(seeds.clone(), 1);
        let mut ctx = NullCtx::default();
        first.on_event(Event::Start, &mut ctx);
        if let Some((_, token)) = ctx.take_wake() {
            first.on_event(Event::Wake(token), &mut ctx);
        }
        let snap = first.snapshot();
        assert!(!snap.done, "test must cut mid-run");

        let mut resumed = proc_with(seeds, 1);
        resumed.restore(&snap).expect("store has every block");
        assert_eq!(resumed.snapshot(), snap, "restore must reproduce the cut");
        // The cut is mid-run, so exactly one zero-delay wake was pending;
        // replay it into the resumed rank and pump from there.
        let (_, pending) = ctx.take_wake().expect("mid-run cut leaves a pending wake");
        let mut ctx2 = NullCtx { compute: ctx.compute, io: ctx.io, ..NullCtx::default() };
        resumed.on_event(Event::Wake(pending), &mut ctx2);
        while let Some((_, token)) = ctx2.take_wake() {
            resumed.on_event(Event::Wake(token), &mut ctx2);
        }
        assert!(resumed.done);
        let mut a = reference.core.finished;
        let mut b = resumed.core.finished;
        a.sort_by_key(|s| s.id);
        b.sort_by_key(|s| s.id);
        assert_eq!(a, b, "resumed run must produce identical streamlines");
        assert_eq!(
            (ctx2.compute, ctx2.io),
            (rctx.compute, rctx.io),
            "resumed charges must land where the uninterrupted run's did"
        );
    }

    #[test]
    fn seed_outside_domain_terminates_immediately() {
        let seeds = vec![(StreamlineId(0), Vec3::splat(5.0))];
        let mut p = proc_with(seeds, 2);
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        assert!(p.done);
        assert_eq!(p.core.finished.len(), 1);
        assert_eq!(p.core.ws.cache_stats().loaded, 0);
    }
}
