//! The Hybrid slave process (§4.3, Algorithm 1).
//!
//! "Each slave continuously advances streamlines that reside in blocks that
//! are loaded. ... blocks are cached to the extent permitted by main memory.
//! When the slave can advance no more streamlines or is out of work, it
//! sends a status message to the master and waits for further instruction."
//! Blocks are loaded only on the master's say-so (Load / Assign-unloaded) —
//! the slave's own autonomy is limited to honouring Send-hints.

use crate::config::MemoryBudget;
use crate::ingest::EpochMap;
use crate::liveness::{Liveness, WAKE_BEAT};
use crate::msg::{Command, Msg, SlaveStatus};
use crate::rank::{Parked, RankCore, RankCoreSnapshot};
use crate::termination::FrontierDetector;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use streamline_desim::{Context, Event, Process};
use streamline_field::block::BlockId;
use streamline_integrate::Streamline;
use streamline_iosim::StoreError;

/// Serializable image of a [`SlaveProc`] mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaveSnapshot {
    pub core: RankCoreSnapshot,
    pub parked: Vec<(BlockId, Vec<Streamline>)>,
    pub last_status_terminated: u64,
    pub sent_idle_status: bool,
    pub terminated_cmd_seen: bool,
    pub sent_handoffs: u64,
    pub sent_statuses: u64,
    pub load_cmd_hits: u64,
    pub load_cmd_misses: u64,
    pub cmds_processed: u64,
    pub failed_blocks: Vec<BlockId>,
    /// The rank's failure detector and membership view (rank-chaos runs
    /// only).
    pub resil: Option<Liveness>,
}

/// One Hybrid slave rank.
pub struct SlaveProc {
    rank: usize,
    master: usize,
    /// Workspace, finished list, memory budget, ping-pong record and the
    /// per-epoch retirement ledger — slaves do the integration in this
    /// driver, so frontier folding reads slave ledgers (the masters only
    /// gate termination on ingest progress).
    pub(crate) core: RankCore,
    /// Streamlines waiting per block (resident blocks' entries are
    /// advanceable; others are parked until a Load/Send decision).
    parked: Parked,
    comm_geometry: bool,
    /// Terminated count included in the last status we sent (to avoid
    /// spamming identical statuses).
    last_status_terminated: u64,
    sent_idle_status: bool,
    pub terminated_cmd_seen: bool,
    /// Diagnostics: streamline migrations sent / statuses sent.
    pub sent_handoffs: u64,
    pub sent_statuses: u64,
    /// Diagnostics: Load commands that were already resident vs not.
    pub load_cmd_hits: u64,
    pub load_cmd_misses: u64,
    /// Commands processed so far (acknowledged in every status).
    cmds_processed: u64,
    /// Blocks whose load exhausted the retry budget (cumulative; reported
    /// in every status so the master can quarantine them).
    failed_blocks: BTreeSet<BlockId>,
    /// Resilient mode: a failure detector over the master (MasterBeat and
    /// every command are proof of life) and Beat traffic back so the
    /// master's detector sees this slave between statuses. Once the master
    /// is suspected the group is headless: the slave keeps integrating what
    /// it holds (completions stay durable) but no new work can arrive, it
    /// stops beating, and the run ends by natural drain with a typed
    /// `MasterLost` outcome instead of hanging. `None` outside rank-chaos
    /// runs so fault-free schedules are untouched.
    live: Option<Liveness>,
}

impl SlaveProc {
    pub fn new(
        rank: usize,
        master: usize,
        ws: Workspace,
        memory: MemoryBudget,
        comm_geometry: bool,
        h0: f64,
        live: Option<Liveness>,
    ) -> Self {
        SlaveProc {
            rank,
            master,
            core: RankCore::new(ws, memory, h0, FrontierDetector::default(), EpochMap::default()),
            parked: Parked::new(),
            comm_geometry,
            last_status_terminated: 0,
            sent_idle_status: false,
            terminated_cmd_seen: false,
            sent_handoffs: 0,
            sent_statuses: 0,
            load_cmd_hits: 0,
            load_cmd_misses: 0,
            cmds_processed: 0,
            failed_blocks: BTreeSet::new(),
            live,
        }
    }

    /// Switch this slave into open-loop mode: retirements are charged to
    /// ingest epochs recovered from streamline ids via `emap`.
    pub fn with_ingest(mut self, emap: EpochMap) -> Self {
        self.core.emap = emap;
        self
    }

    pub fn core(&self) -> &RankCore {
        &self.core
    }

    /// This rank's failure detector and membership view, in resilient mode.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.live.as_ref()
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Capture this rank's mid-run state for a checkpoint.
    pub fn snapshot(&self) -> SlaveSnapshot {
        SlaveSnapshot {
            core: self.core.snapshot(),
            parked: self.parked.iter().map(|(&b, v)| (b, v.clone())).collect(),
            last_status_terminated: self.last_status_terminated,
            sent_idle_status: self.sent_idle_status,
            terminated_cmd_seen: self.terminated_cmd_seen,
            sent_handoffs: self.sent_handoffs,
            sent_statuses: self.sent_statuses,
            load_cmd_hits: self.load_cmd_hits,
            load_cmd_misses: self.load_cmd_misses,
            cmds_processed: self.cmds_processed,
            failed_blocks: self.failed_blocks.iter().copied().collect(),
            resil: self.live.clone(),
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub fn restore(&mut self, snap: &SlaveSnapshot) -> Result<(), StoreError> {
        self.core.restore(&snap.core)?;
        self.parked = snap.parked.iter().cloned().collect();
        self.last_status_terminated = snap.last_status_terminated;
        self.sent_idle_status = snap.sent_idle_status;
        self.terminated_cmd_seen = snap.terminated_cmd_seen;
        self.sent_handoffs = snap.sent_handoffs;
        self.sent_statuses = snap.sent_statuses;
        self.load_cmd_hits = snap.load_cmd_hits;
        self.load_cmd_misses = snap.load_cmd_misses;
        self.cmds_processed = snap.cmds_processed;
        self.failed_blocks = snap.failed_blocks.iter().copied().collect();
        self.live = snap.resil.clone();
        Ok(())
    }

    fn advanceable(&self) -> usize {
        let ws = &self.core.ws;
        self.parked.iter().filter(|(b, _)| ws.is_resident(**b)).map(|(_, v)| v.len()).sum()
    }

    fn send_status(&mut self, ctx: &mut dyn Context<Msg>, out_of_work: bool) {
        let status = SlaveStatus {
            queued_by_block: self.parked.iter().map(|(b, v)| (*b, v.len() as u32)).collect(),
            loaded: {
                let mut l = self.core.ws.resident_blocks();
                l.sort();
                l
            },
            active: self.advanceable() as u32,
            terminated_total: self.core.ws.terminated,
            out_of_work,
            acked_cmds: self.cmds_processed,
            failed_blocks: self.failed_blocks.iter().copied().collect(),
        };
        self.last_status_terminated = self.core.ws.terminated;
        self.sent_idle_status = out_of_work;
        self.sent_statuses += 1;
        let m = Msg::Status(status);
        let bytes = m.wire_bytes(self.comm_geometry);
        ctx.send(self.master, m, bytes);
    }

    /// Record that `block` could not be loaded after retries, and terminate
    /// everything parked on it — typed, counted, and reported, instead of
    /// the slave (and the whole run) deadlocking on work that cannot run.
    fn fail_block(&mut self, block: BlockId) {
        self.failed_blocks.insert(block);
        if let Some(list) = self.parked.remove(&block) {
            for sl in list {
                self.core.fail_lane(sl);
            }
        }
    }

    /// Park `sl` at block `b`, unless `b` is known to be unloadable — then
    /// it terminates immediately instead of waiting on a Load that can
    /// never succeed.
    fn park(
        core: &mut RankCore,
        parked: &mut Parked,
        failed: &BTreeSet<BlockId>,
        sl: Streamline,
        b: BlockId,
    ) {
        if failed.contains(&b) {
            core.fail_lane(sl);
        } else {
            parked.entry(b).or_default().push(sl);
        }
    }

    /// Take on `sl`, now in block `b`: a resident block's lanes are
    /// advanceable even if the block failed to load before.
    fn receive(&mut self, sl: Streamline, b: BlockId) {
        if self.core.ws.is_resident(b) {
            self.parked.entry(b).or_default().push(sl);
        } else {
            Self::park(&mut self.core, &mut self.parked, &self.failed_blocks, sl, b);
        }
    }

    /// Advance everything possible (movers re-park and the sweep picks
    /// resident ones back up), then report to the master.
    fn pump(&mut self, ctx: &mut dyn Context<Msg>) {
        let failed = &self.failed_blocks;
        if !self.core.drain_resident(&mut self.parked, ctx, |core, parked, sl, next| {
            Self::park(core, parked, failed, sl, next)
        }) {
            return;
        }
        // Report: always when out of work (once), otherwise when progress
        // happened since the last report.
        let out_of_work = self.advanceable() == 0;
        if out_of_work {
            if !self.sent_idle_status {
                self.send_status(ctx, true);
            }
        } else if self.core.ws.terminated != self.last_status_terminated {
            self.send_status(ctx, false);
        }
    }

    /// Move parked streamlines in `block` to slave `to` (Send-force, and the
    /// accepted half of Send-hint).
    fn offload(&mut self, block: BlockId, to: usize, ctx: &mut dyn Context<Msg>) -> usize {
        let Some(list) = self.parked.remove(&block) else { return 0 };
        let n = list.len();
        self.sent_handoffs += n as u64;
        for sl in list {
            self.core.ws.release(&sl);
            let m = Msg::Handoff { sl: Box::new(sl) };
            let bytes = m.wire_bytes(self.comm_geometry);
            ctx.send(to, m, bytes);
        }
        n
    }

    fn handle_command(&mut self, cmd: Command, ctx: &mut dyn Context<Msg>) {
        self.cmds_processed += 1;
        // Every command must eventually be followed by an acknowledging
        // status, or the master would consider this slave pending forever.
        self.sent_idle_status = false;
        match cmd {
            Command::AssignSeeds { block, seeds } => {
                // "Slave loads block B" when it is not already resident.
                if !self.core.ws.is_resident(block) {
                    if self.core.ws.try_acquire(block, ctx).is_err() {
                        self.fail_block(block);
                    }
                    if self.core.check_memory(ctx) {
                        return;
                    }
                }
                let now = ctx.now();
                for (id, seed) in seeds {
                    self.core.note_arrival(id, now);
                    // Seeds are grouped by block by the master; trust but
                    // re-locate to stay robust.
                    if let Some((b, sl)) = self.core.place_seed(id, seed) {
                        self.receive(sl, b);
                    }
                }
                self.pump(ctx);
            }
            Command::SendForce { block, to } => {
                self.offload(block, to, ctx);
                self.pump(ctx);
            }
            Command::SendHint { blocks, to } => {
                // Honour the hint only for blocks we have not loaded — those
                // streamlines are otherwise stuck; ignore the rest ("If S1
                // does not have any appropriate streamlines to send, it
                // ignores the hint").
                for b in blocks {
                    if !self.core.ws.is_resident(b) {
                        self.offload(b, to, ctx);
                    }
                }
                // Acknowledge even an ignored hint.
                self.send_status(ctx, self.advanceable() == 0);
            }
            Command::Load { block } => {
                if self.core.ws.is_resident(block) {
                    self.load_cmd_hits += 1;
                } else {
                    self.load_cmd_misses += 1;
                }
                if self.core.ws.try_acquire(block, ctx).is_err() {
                    self.fail_block(block);
                }
                if self.core.check_memory(ctx) {
                    return;
                }
                self.pump(ctx);
            }
            Command::Terminate => {
                self.terminated_cmd_seen = true;
            }
        }
    }
}

impl Process<Msg> for SlaveProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        if let Some(l) = self.live.as_mut() {
            l.heard(&ev, ctx.now());
        }
        match ev {
            Event::Start => {
                if let Some(l) = self.live.as_mut() {
                    l.monitor.watch(self.master, ctx.now());
                    l.arm(ctx);
                }
                // Work arrives from the master; announce readiness.
                self.send_status(ctx, true);
            }
            Event::Wake(WAKE_BEAT) => {
                // Sweep the master watchdog; while the master lives, beat
                // back and re-arm until the deadline. A dead master leaves
                // nobody to talk to, so the rank goes silent.
                let now = ctx.now();
                if let Some(l) = self.live.as_mut() {
                    let (newly, beat) = l.tick(now);
                    if newly.contains(&self.master) {
                        l.mark_dead(self.master, now, true);
                    } else if beat {
                        ctx.send(self.master, Msg::Beat, Msg::Beat.wire_bytes(self.comm_geometry));
                        l.arm(ctx);
                    }
                }
            }
            Event::Message { msg: Msg::Command(cmd), .. } => self.handle_command(cmd, ctx),
            Event::Message { msg: Msg::Handoff { sl }, .. } => {
                self.sent_idle_status = false;
                self.core.note_arrival(sl.id, ctx.now());
                self.core.ws.admit(&sl);
                if let Some((b, sl)) = self.core.place(*sl) {
                    self.receive(sl, b);
                }
                self.pump(ctx);
            }
            Event::Message { .. } | Event::Wake(_) => {}
        }
        self.core.note_retirements(ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};
    use std::sync::Arc;
    use streamline_integrate::{StepLimits, StreamlineId};
    use streamline_iosim::{DiskModel, MemoryStore};
    use streamline_math::Vec3;

    fn slave(cache_blocks: usize) -> SlaveProc {
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
        SlaveProc::new(1, 0, ws, MemoryBudget::unlimited(), true, 1e-2, None)
    }

    fn status_msgs(ctx: &NullCtx) -> Vec<&SlaveStatus> {
        ctx.sent
            .iter()
            .filter_map(|(_, m, _)| match m {
                Msg::Status(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_announces_idle() {
        let mut s = slave(4);
        let mut ctx = NullCtx::default();
        s.on_event(Event::Start, &mut ctx);
        let st = status_msgs(&ctx);
        assert_eq!(st.len(), 1);
        assert!(st[0].out_of_work);
        assert_eq!(st[0].active, 0);
    }

    #[test]
    fn assign_seeds_loads_block_and_integrates() {
        let mut s = slave(8);
        let mut ctx = NullCtx::default();
        let seeds = vec![
            (StreamlineId(0), Vec3::new(0.1, 0.2, 0.2)),
            (StreamlineId(1), Vec3::new(0.2, 0.3, 0.3)),
        ];
        s.handle_command(Command::AssignSeeds { block: BlockId(0), seeds }, &mut ctx);
        // Uniform +x with an 8-block cache: streamlines park at the next
        // (unloaded) block boundary or terminate — block (1,0,0) is NOT
        // resident so they park there.
        assert!(ctx.io > 0.0, "block load charged");
        let st = status_msgs(&ctx);
        assert!(!st.is_empty());
        let last = st.last().unwrap();
        assert!(last.out_of_work);
        assert_eq!(last.queued_by_block.iter().map(|(_, c)| c).sum::<u32>(), 2);
    }

    #[test]
    fn load_command_unblocks_parked() {
        let mut s = slave(8);
        let mut ctx = NullCtx::default();
        s.handle_command(
            Command::AssignSeeds {
                block: BlockId(0),
                seeds: vec![(StreamlineId(0), Vec3::new(0.1, 0.2, 0.2))],
            },
            &mut ctx,
        );
        // Parked at block 1; instruct load.
        let parked_block = *s.parked.keys().next().expect("parked somewhere");
        s.handle_command(Command::Load { block: parked_block }, &mut ctx);
        assert_eq!(s.core.finished.len(), 1, "streamline should exit the domain");
        assert_eq!(s.core.ws.terminated, 1);
    }

    #[test]
    fn send_force_moves_streamlines() {
        let mut s = slave(8);
        let mut ctx = NullCtx::default();
        s.handle_command(
            Command::AssignSeeds {
                block: BlockId(0),
                seeds: vec![(StreamlineId(0), Vec3::new(0.1, 0.2, 0.2))],
            },
            &mut ctx,
        );
        let parked_block = *s.parked.keys().next().unwrap();
        let before = ctx.sent.len();
        s.handle_command(Command::SendForce { block: parked_block, to: 7 }, &mut ctx);
        let handoffs: Vec<_> = ctx.sent[before..]
            .iter()
            .filter(|(to, m, _)| matches!(m, Msg::Handoff { .. }) && *to == 7)
            .collect();
        assert_eq!(handoffs.len(), 1);
        assert!(s.parked.is_empty());
    }

    #[test]
    fn hint_ignored_for_resident_blocks() {
        let mut s = slave(8);
        let mut ctx = NullCtx::default();
        s.handle_command(
            Command::AssignSeeds {
                block: BlockId(0),
                seeds: vec![(StreamlineId(0), Vec3::new(0.1, 0.2, 0.2))],
            },
            &mut ctx,
        );
        let parked_block = *s.parked.keys().next().unwrap();
        let before = ctx.sent.len();
        // Hint for a resident block moves nothing — only the acknowledging
        // status goes out.
        s.handle_command(Command::SendHint { blocks: vec![BlockId(0)], to: 5 }, &mut ctx);
        assert!(ctx.sent[before..].iter().all(|(_, m, _)| matches!(m, Msg::Status(_))));
        assert!(!ctx.sent[before..].iter().any(|(_, m, _)| matches!(m, Msg::Handoff { .. })));
        // Hint for the parked (unloaded) block triggers offload.
        s.handle_command(Command::SendHint { blocks: vec![parked_block], to: 5 }, &mut ctx);
        assert!(ctx.sent[before..]
            .iter()
            .any(|(to, m, _)| *to == 5 && matches!(m, Msg::Handoff { .. })));
    }

    #[test]
    fn handoff_received_is_integrated_or_parked() {
        let mut s = slave(8);
        let mut ctx = NullCtx::default();
        // Pre-load the destination block so the streamline can run.
        s.core.ws.acquire(BlockId(1), &mut ctx);
        let sl = Streamline::new_lean(StreamlineId(9), Vec3::new(0.6, 0.2, 0.2), 1e-2);
        s.on_event(Event::Message { from: 3, msg: Msg::Handoff { sl: Box::new(sl) } }, &mut ctx);
        assert_eq!(s.core.finished.len(), 1);
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;
    use crate::testutil::{custom_dataset, NullCtx};
    use std::sync::Arc;
    use streamline_integrate::{StepLimits, StreamlineId};
    use streamline_iosim::{DiskModel, MemoryStore};
    use streamline_math::Vec3;

    /// After any pump, no parked entry refers to a resident block — the
    /// invariant the master's Send-force rule relies on ("streamlines the
    /// slave reports as queued are ones it cannot advance").
    #[test]
    fn parked_is_disjoint_from_resident_after_any_command_sequence() {
        let ds =
            custom_dataset(streamline_field::analytic::AbcFlow::classic(), [2, 2, 2], [4, 4, 4]);
        let store = Arc::new(MemoryStore::build(&ds));
        let limits = StepLimits { max_steps: 50, ..StepLimits::default() };
        let ws = Workspace::new(ds.decomp, store, 3, DiskModel::paper_scale(), limits, 1e-6);
        let mut s =
            SlaveProc::new(1, 0, ws, crate::config::MemoryBudget::unlimited(), true, 1e-2, None);
        let mut ctx = NullCtx::default();

        // A deterministic pseudo-random command storm.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut id = 0u32;
        for round in 0..40 {
            match next() % 4 {
                0 => {
                    let block = BlockId((next() % 8) as u32);
                    let seeds: Vec<_> = (0..(next() % 5 + 1))
                        .map(|_| {
                            id += 1;
                            let u = Vec3::new(
                                (next() % 1000) as f64 / 1000.0,
                                (next() % 1000) as f64 / 1000.0,
                                (next() % 1000) as f64 / 1000.0,
                            );
                            (StreamlineId(id), ds.decomp.domain.expanded(-1e-3).from_unit(u))
                        })
                        .collect();
                    s.handle_command(Command::AssignSeeds { block, seeds }, &mut ctx);
                }
                1 => s.handle_command(
                    Command::Load { block: BlockId((next() % 8) as u32) },
                    &mut ctx,
                ),
                2 => {
                    if let Some(&b) = s.parked.keys().next() {
                        s.handle_command(Command::SendForce { block: b, to: 5 }, &mut ctx);
                    }
                }
                _ => s.handle_command(
                    Command::SendHint { blocks: vec![BlockId((next() % 8) as u32)], to: 6 },
                    &mut ctx,
                ),
            }
            // Invariant check after every command.
            for b in s.parked.keys() {
                assert!(!s.core.ws.is_resident(*b), "round {round}: parked block {b} is resident");
            }
            // Accounting: every admitted streamline is parked, finished, or
            // was handed off.
            let parked: usize = s.parked.values().map(|v| v.len()).sum();
            let handed = s.sent_handoffs as usize;
            assert_eq!(
                parked + s.core.finished.len() + handed,
                id as usize,
                "round {round}: streamline accounting broken"
            );
        }
    }
}
