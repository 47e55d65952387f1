//! The Hybrid master process (§4.3).
//!
//! The master keeps a record per slave (streamlines owned, blocks they
//! intersect, blocks loaded, active count) and, whenever status updates
//! arrive, applies the five rules — Assign-loaded, Assign-unloaded,
//! Send-force, Send-hint, Load — in the paper's 7-step order to every slave
//! with no work. Multiple masters each manage `W` slaves over their own
//! block-chunked share of the seeds; they tell each other only their
//! remaining counts, which master 0 folds into the global count.

use crate::config::HybridParams;
use crate::liveness::{Liveness, WAKE_BEAT};
use crate::msg::{Command, Msg, SlaveStatus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use streamline_desim::{Context, Event, Process};
use streamline_field::block::BlockId;
use streamline_field::decomp::BlockDecomposition;
use streamline_integrate::StreamlineId;
use streamline_math::{rng, Vec3};

/// Master 0 coordinates global termination.
pub const ROOT_MASTER: usize = 0;

/// Resilient-mode state of a Hybrid master: its failure detector over its
/// slaves, and the requeue ledger (what was sent to whom, so a dead
/// slave's work can be requeued exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasterResil {
    pub live: Liveness,
    /// Seeds assigned per slave and not yet acknowledged as terminated —
    /// the ledger a dead slave's requeue draws from. Sorted by slave rank.
    pub assigned: Vec<(u32, Vec<(StreamlineId, Vec3)>)>,
}

/// The master's model of one slave (§4.3: "The master algorithm maintains a
/// set of slave records, one record for each slave process").
#[derive(Debug, Clone, Default, PartialEq)]
struct SlaveRecord {
    /// Streamlines currently advanceable on the slave (estimated between
    /// statuses as the master hands out work).
    active: u64,
    /// Blocks resident on the slave.
    loaded: Vec<BlockId>,
    /// Streamlines parked per block.
    queued: BTreeMap<BlockId, u32>,
    /// Cumulative terminated count.
    terminated: u64,
    /// The slave said it cannot advance anything.
    out_of_work: bool,
    /// Work was sent since its last status; skip it until it reports again
    /// ("not considered for additional work assignments until the slave ...
    /// sends a new update status").
    pending: bool,
    /// Commands sent to this slave so far; statuses acknowledging fewer are
    /// stale (they crossed a command in flight) and must not drive
    /// decisions.
    cmds_sent: u64,
}

/// Serializable image of one [`SlaveRecord`] (BTreeMap keys become pair
/// vectors — the vendored serde only maps String-keyed maps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaveRecordSnapshot {
    pub active: u64,
    pub loaded: Vec<BlockId>,
    pub queued: Vec<(BlockId, u32)>,
    pub terminated: u64,
    pub out_of_work: bool,
    pub pending: bool,
    pub cmds_sent: u64,
}

/// Serializable image of a [`MasterProc`] mid-run, including the exact RNG
/// stream position so post-resume Send-hint draws match the uninterrupted
/// run bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasterSnapshot {
    pub pool: Vec<(BlockId, Vec<(StreamlineId, Vec3)>)>,
    pub records: Vec<(usize, SlaveRecordSnapshot)>,
    pub group_total: u64,
    pub group_pre_terminated: u64,
    pub quarantined: Vec<BlockId>,
    pub group_unavailable: u64,
    pub last_reported_remaining: Option<u64>,
    pub rng_key: [u8; 32],
    pub rng_word_pos: u64,
    pub status_counter: u64,
    pub hint_after: Vec<(usize, u64)>,
    pub reported: Vec<(usize, u64)>,
    pub done: bool,
    pub cmd_counts: [u64; 5],
    pub resil: Option<MasterResil>,
    pub epochs_ingested: u32,
    pub last_reported_extra: u32,
    /// Root master only: per-master reported ingest progress.
    pub reported_extra: Vec<(usize, u32)>,
}

/// One Hybrid master rank.
pub struct MasterProc {
    rank: usize,
    decomp: BlockDecomposition,
    params: HybridParams,
    comm_geometry: bool,
    /// Ranks of the slaves this master manages.
    slaves: Vec<usize>,
    /// All master ranks (for termination), sorted.
    masters: Vec<usize>,
    /// Unassigned seed points, grouped by owning block.
    pool: BTreeMap<BlockId, Vec<(StreamlineId, Vec3)>>,
    records: BTreeMap<usize, SlaveRecord>,
    /// Seeds this master is responsible for (grown by ingest epochs).
    group_total: u64,
    /// Immediately-terminated seeds (outside the domain).
    group_pre_terminated: u64,
    /// Blocks some slave reported as unloadable; no further seeds are
    /// scheduled into them.
    quarantined: BTreeSet<BlockId>,
    /// Pooled seeds discarded because their block was quarantined before
    /// they were ever assigned. They count as terminated for the global
    /// count (they can never run), like the slaves' `BlockUnavailable`
    /// terminations.
    group_unavailable: u64,
    last_reported_remaining: Option<u64>,
    rng: ChaCha8Rng,
    /// Statuses processed (drives the hint throttle).
    status_counter: u64,
    /// Per-slave earliest status count at which another hint may be issued
    /// on its behalf (prevents hint storms for starving slaves).
    hint_after: BTreeMap<usize, u64>,
    /// Highest ingest epoch observed at this master (0 for closed runs).
    epochs_ingested: u32,
    /// Total epochs of the run's ingest plan (1 for closed runs).
    n_epochs: u32,
    /// The `epochs_ingested` value last reported to the root (memo, like
    /// `last_reported_remaining` — an empty epoch changes no count but must
    /// still be reported or the root would never see the plan complete).
    last_reported_extra: u32,
    // Root master only:
    reported: BTreeMap<usize, u64>,
    /// Root master only: each master's reported `epochs_ingested`.
    reported_extra: BTreeMap<usize, u32>,
    pub done: bool,
    /// Diagnostics: commands issued, indexed as
    /// [assign, send-force, send-hint, load, terminate].
    pub cmd_counts: [u64; 5],
    /// Resilient mode: watch every slave, send them MasterBeat, requeue a
    /// dead slave's ledger. `None` outside rank-chaos runs so fault-free
    /// schedules are untouched.
    resil: Option<MasterResil>,
}

impl MasterProc {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        decomp: BlockDecomposition,
        params: HybridParams,
        comm_geometry: bool,
        slaves: Vec<usize>,
        masters: Vec<usize>,
        seeds: Vec<(StreamlineId, Vec3)>,
        seed: u64,
        live: Option<Liveness>,
    ) -> Self {
        let mut pool: BTreeMap<BlockId, Vec<(StreamlineId, Vec3)>> = BTreeMap::new();
        let mut pre_terminated = 0u64;
        let group_total = seeds.len() as u64;
        for (id, p) in seeds {
            match decomp.locate(p) {
                Some(b) => pool.entry(b).or_default().push((id, p)),
                None => pre_terminated += 1,
            }
        }
        let records = slaves.iter().map(|&r| (r, SlaveRecord::default())).collect();
        MasterProc {
            rank,
            decomp,
            params,
            comm_geometry,
            slaves,
            masters,
            pool,
            records,
            group_total,
            group_pre_terminated: pre_terminated,
            quarantined: BTreeSet::new(),
            group_unavailable: 0,
            last_reported_remaining: None,
            rng: rng::stream(seed, "hybrid-master"),
            status_counter: 0,
            hint_after: BTreeMap::new(),
            epochs_ingested: 0,
            n_epochs: 1,
            last_reported_extra: 0,
            reported: BTreeMap::new(),
            reported_extra: BTreeMap::new(),
            done: false,
            cmd_counts: [0; 5],
            resil: live.map(|live| MasterResil { live, assigned: Vec::new() }),
        }
    }

    /// Switch this master into open-loop mode: termination additionally
    /// requires every master to have observed all `n_epochs` ingest epochs.
    pub fn with_ingest(mut self, n_epochs: u32) -> Self {
        self.n_epochs = n_epochs.max(1);
        self
    }

    /// This master's failure detector and membership view, in resilient
    /// mode.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.resil.as_ref().map(|r| &r.live)
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Capture this master's mid-run state for a checkpoint.
    pub fn snapshot(&self) -> MasterSnapshot {
        MasterSnapshot {
            pool: self.pool.iter().map(|(&b, v)| (b, v.clone())).collect(),
            records: self
                .records
                .iter()
                .map(|(&s, r)| {
                    (
                        s,
                        SlaveRecordSnapshot {
                            active: r.active,
                            loaded: r.loaded.clone(),
                            queued: r.queued.iter().map(|(&b, &c)| (b, c)).collect(),
                            terminated: r.terminated,
                            out_of_work: r.out_of_work,
                            pending: r.pending,
                            cmds_sent: r.cmds_sent,
                        },
                    )
                })
                .collect(),
            group_total: self.group_total,
            group_pre_terminated: self.group_pre_terminated,
            quarantined: self.quarantined.iter().copied().collect(),
            group_unavailable: self.group_unavailable,
            last_reported_remaining: self.last_reported_remaining,
            rng_key: self.rng.get_seed(),
            rng_word_pos: self.rng.get_word_pos(),
            status_counter: self.status_counter,
            hint_after: self.hint_after.iter().map(|(&s, &c)| (s, c)).collect(),
            reported: self.reported.iter().map(|(&s, &c)| (s, c)).collect(),
            done: self.done,
            cmd_counts: self.cmd_counts,
            resil: self.resil.clone(),
            epochs_ingested: self.epochs_ingested,
            last_reported_extra: self.last_reported_extra,
            reported_extra: self.reported_extra.iter().map(|(&s, &c)| (s, c)).collect(),
        }
    }

    /// Restore a snapshot onto a freshly built master (same config/layout).
    pub fn restore(&mut self, snap: &MasterSnapshot) {
        self.pool = snap.pool.iter().cloned().collect();
        self.records = snap
            .records
            .iter()
            .map(|(s, r)| {
                (
                    *s,
                    SlaveRecord {
                        active: r.active,
                        loaded: r.loaded.clone(),
                        queued: r.queued.iter().copied().collect(),
                        terminated: r.terminated,
                        out_of_work: r.out_of_work,
                        pending: r.pending,
                        cmds_sent: r.cmds_sent,
                    },
                )
            })
            .collect();
        self.group_total = snap.group_total;
        self.group_pre_terminated = snap.group_pre_terminated;
        self.quarantined = snap.quarantined.iter().copied().collect();
        self.group_unavailable = snap.group_unavailable;
        self.last_reported_remaining = snap.last_reported_remaining;
        let mut rng = ChaCha8Rng::from_seed(snap.rng_key);
        rng.set_word_pos(snap.rng_word_pos);
        self.rng = rng;
        self.status_counter = snap.status_counter;
        self.hint_after = snap.hint_after.iter().copied().collect();
        self.reported = snap.reported.iter().copied().collect();
        self.done = snap.done;
        self.cmd_counts = snap.cmd_counts;
        self.resil = snap.resil.clone();
        self.epochs_ingested = snap.epochs_ingested;
        self.last_reported_extra = snap.last_reported_extra;
        self.reported_extra = snap.reported_extra.iter().copied().collect();
    }

    fn send_cmd(&mut self, to: usize, cmd: Command, ctx: &mut dyn Context<Msg>) {
        if let Some(rec) = self.records.get_mut(&to) {
            rec.cmds_sent += 1;
        }
        // Quarantine ledger: remember what was assigned where, so a dead
        // slave's outstanding seeds can be requeued exactly.
        if let (Command::AssignSeeds { seeds, .. }, Some(r)) = (&cmd, self.resil.as_mut()) {
            match r.assigned.binary_search_by_key(&(to as u32), |(s, _)| *s) {
                Ok(i) => r.assigned[i].1.extend_from_slice(seeds),
                Err(i) => r.assigned.insert(i, (to as u32, seeds.clone())),
            }
        }
        self.cmd_counts[match &cmd {
            Command::AssignSeeds { .. } => 0,
            Command::SendForce { .. } => 1,
            Command::SendHint { .. } => 2,
            Command::Load { .. } => 3,
            Command::Terminate => 4,
        }] += 1;
        let m = Msg::Command(cmd);
        let bytes = m.wire_bytes(self.comm_geometry);
        ctx.send(to, m, bytes);
    }

    /// This master's unfinished streamline count.
    fn remaining(&self) -> u64 {
        let terminated: u64 = self.records.values().map(|r| r.terminated).sum::<u64>()
            + self.group_pre_terminated
            + self.group_unavailable;
        self.group_total.saturating_sub(terminated)
    }

    /// Seeds this master discarded because their block was quarantined
    /// before assignment (the master-side share of `BlockUnavailable`).
    pub fn unavailable_seeds(&self) -> u64 {
        self.group_unavailable
    }

    /// Blocks currently quarantined (reported unloadable by some slave).
    pub fn quarantined_blocks(&self) -> usize {
        self.quarantined.len()
    }

    /// Mark `b` unloadable: discard pooled seeds in it (they can never be
    /// integrated) and stop scheduling into it.
    fn quarantine(&mut self, b: BlockId) {
        if self.quarantined.insert(b) {
            if let Some(seeds) = self.pool.remove(&b) {
                self.group_unavailable += seeds.len() as u64;
            }
        }
    }

    /// Report remaining to the root (or record it locally if we are root).
    fn report_remaining(&mut self, ctx: &mut dyn Context<Msg>) {
        let remaining = self.remaining();
        if self.last_reported_remaining == Some(remaining)
            && self.last_reported_extra == self.epochs_ingested
        {
            return;
        }
        self.last_reported_remaining = Some(remaining);
        self.last_reported_extra = self.epochs_ingested;
        if self.rank == ROOT_MASTER {
            self.reported.insert(self.rank, remaining);
            self.reported_extra.insert(self.rank, self.epochs_ingested);
            self.check_done(ctx);
        } else {
            let m = Msg::GroupRemaining {
                remaining,
                extra_ingested: self.epochs_ingested,
                by_epoch: Vec::new(),
            };
            let bytes = m.wire_bytes(self.comm_geometry);
            ctx.send(ROOT_MASTER, m, bytes);
        }
    }

    fn check_done(&mut self, ctx: &mut dyn Context<Msg>) {
        debug_assert_eq!(self.rank, ROOT_MASTER);
        let all_reported = self.masters.iter().all(|m| self.reported.contains_key(m));
        // Open-loop: no group may be declared drained while ingest epochs it
        // has not observed are still due (closed runs have n_epochs == 1, so
        // the gate is vacuous there).
        let all_ingested = self
            .masters
            .iter()
            .all(|m| self.reported_extra.get(m).copied().unwrap_or(0) + 1 >= self.n_epochs);
        if all_reported && all_ingested && self.reported.values().sum::<u64>() == 0 {
            self.done = true;
            // Tell every slave to wind down, then stop the world.
            let slaves: Vec<usize> = self.records.keys().copied().collect();
            for s in slaves {
                self.send_cmd(s, Command::Terminate, ctx);
            }
            ctx.stop_all();
        }
    }

    /// Take up to `n` seeds from the pool block with the most seeds.
    fn take_seeds(
        &mut self,
        n: usize,
        prefer: Option<BlockId>,
    ) -> Option<(BlockId, Vec<(StreamlineId, Vec3)>)> {
        let block = match prefer {
            Some(b) if self.pool.contains_key(&b) => b,
            _ => *self.pool.iter().max_by_key(|(id, v)| (v.len(), std::cmp::Reverse(id.0)))?.0,
        };
        let list = self.pool.get_mut(&block).expect("chosen block exists");
        let take = n.min(list.len());
        let seeds: Vec<_> = list.drain(list.len() - take..).collect();
        if list.is_empty() {
            self.pool.remove(&block);
        }
        Some((block, seeds))
    }

    /// Choose a Send-force destination among slaves with `b` loaded and
    /// headroom under `N_O`. Preference goes to the slave holding the most
    /// of `b`'s neighbour blocks: migrated streamlines then tend to stay on
    /// that slave as they cross block faces, so geometry is communicated
    /// once per region instead of once per block (this is the coherency
    /// exploitation the paper's abstract advertises).
    fn pick_force_target(&self, from: usize, b: BlockId, c: u32, overload: u64) -> Option<usize> {
        let neighbors = self.decomp.neighbors(b);
        self.records
            .iter()
            .filter(|(&t, rec)| {
                t != from && rec.loaded.contains(&b) && rec.active + c as u64 <= overload
            })
            .max_by_key(|(&t, rec)| {
                let affinity = neighbors.iter().filter(|n| rec.loaded.contains(n)).count();
                (affinity, std::cmp::Reverse(rec.active), std::cmp::Reverse(t))
            })
            .map(|(&t, _)| t)
    }

    /// §4.3 step 1 (and 3): Send-force streamlines in unloaded blocks from
    /// `from` to slaves that have those blocks loaded, respecting `N_O`.
    fn force_offload(&mut self, from: usize, ctx: &mut dyn Context<Msg>) {
        let overload = self.params.overload_limit() as u64;
        let source = self.records.get(&from).expect("known slave");
        let candidates: Vec<(BlockId, u32)> = source
            .queued
            .iter()
            .filter(|(b, _)| !source.loaded.contains(b))
            .map(|(&b, &c)| (b, c))
            .collect();
        for (b, c) in candidates {
            let target = self.pick_force_target(from, b, c, overload);
            if let Some(t) = target {
                self.send_cmd(from, Command::SendForce { block: b, to: t }, ctx);
                self.records.get_mut(&from).expect("known").queued.remove(&b);
                let tr = self.records.get_mut(&t).expect("known");
                tr.active += c as u64;
                tr.out_of_work = false;
            }
        }
    }

    /// Step 3's other direction: after `loader` loads `block`, other slaves
    /// can force their parked streamlines in `block` toward it.
    fn force_toward(&mut self, loader: usize, block: BlockId, ctx: &mut dyn Context<Msg>) {
        let overload = self.params.overload_limit() as u64;
        let others: Vec<(usize, u32)> = self
            .records
            .iter()
            .filter(|(&u, rec)| {
                u != loader && !rec.loaded.contains(&block) && rec.queued.contains_key(&block)
            })
            .map(|(&u, rec)| (u, rec.queued[&block]))
            .collect();
        for (u, c) in others {
            let loader_active = self.records[&loader].active;
            if loader_active + c as u64 > overload {
                continue;
            }
            self.send_cmd(u, Command::SendForce { block, to: loader }, ctx);
            self.records.get_mut(&u).expect("known").queued.remove(&block);
            self.records.get_mut(&loader).expect("known").active += c as u64;
        }
    }

    /// Try to give slave `s` work following the 7-step sequence of §4.3.
    /// Returns true when work was assigned to `s`.
    fn try_assign(&mut self, s: usize, ctx: &mut dyn Context<Msg>) -> bool {
        // 1. Offload s's streamlines stuck in unloaded blocks to slaves that
        //    have those blocks loaded.
        self.force_offload(s, ctx);

        // 2. If s has more than N_L streamlines in an unloaded block, load it.
        let n_load = self.params.n_load as u32;
        let rec = &self.records[&s];
        let heavy = rec
            .queued
            .iter()
            .filter(|(b, &c)| !rec.loaded.contains(b) && c >= n_load)
            .max_by_key(|(b, &c)| (c, std::cmp::Reverse(b.0)))
            .map(|(&b, &c)| (b, c));
        if let Some((b, c)) = heavy {
            self.send_cmd(s, Command::Load { block: b }, ctx);
            let rec = self.records.get_mut(&s).expect("known");
            rec.loaded.push(b);
            rec.queued.remove(&b);
            rec.active += c as u64;
            rec.pending = true;
            rec.out_of_work = false;
            // 3. The loaded-set changed: let others force toward s.
            self.force_toward(s, b, ctx);
            return true;
        }

        // 4. Assign-loaded: seeds in a block s already has.
        let loaded_with_seeds = {
            let rec = &self.records[&s];
            let mut blocks: Vec<BlockId> =
                rec.loaded.iter().copied().filter(|b| self.pool.contains_key(b)).collect();
            blocks.sort();
            blocks.first().copied()
        };
        if let Some(b) = loaded_with_seeds {
            let (block, seeds) =
                self.take_seeds(self.params.n_assign, Some(b)).expect("pool has b");
            let n = seeds.len() as u64;
            self.send_cmd(s, Command::AssignSeeds { block, seeds }, ctx);
            let rec = self.records.get_mut(&s).expect("known");
            rec.active += n;
            rec.pending = true;
            rec.out_of_work = false;
            return true;
        }

        // 5. Assign-unloaded: any seeds at all; the slave loads the block.
        if let Some((block, seeds)) = self.take_seeds(self.params.n_assign, None) {
            let n = seeds.len() as u64;
            self.send_cmd(s, Command::AssignSeeds { block, seeds }, ctx);
            let rec = self.records.get_mut(&s).expect("known");
            if !rec.loaded.contains(&block) {
                rec.loaded.push(block);
            }
            rec.active += n;
            rec.pending = true;
            rec.out_of_work = false;
            return true;
        }

        // 6. Load the block with the most parked streamlines, even below N_L.
        let best = {
            let rec = &self.records[&s];
            rec.queued
                .iter()
                .filter(|(b, _)| !rec.loaded.contains(b))
                .max_by_key(|(b, &c)| (c, std::cmp::Reverse(b.0)))
                .map(|(&b, &c)| (b, c))
        };
        if let Some((b, c)) = best {
            self.send_cmd(s, Command::Load { block: b }, ctx);
            let rec = self.records.get_mut(&s).expect("known");
            rec.loaded.push(b);
            rec.queued.remove(&b);
            rec.active += c as u64;
            rec.pending = true;
            rec.out_of_work = false;
            self.force_toward(s, b, ctx);
            return true;
        }

        // 7. Send-hint: ask the busiest slave to consider offloading to s.
        // Throttled: a starving slave triggers at most one hint per
        // half-group of status arrivals, or idle groups would spam hints.
        if self.hint_after.get(&s).copied().unwrap_or(0) > self.status_counter {
            return false;
        }
        let busiest: Vec<usize> = {
            let max_active =
                self.records.iter().filter(|(&t, _)| t != s).map(|(_, r)| r.active).max();
            match max_active {
                Some(m) if m > 0 => self
                    .records
                    .iter()
                    .filter(|(&t, r)| t != s && r.active == m)
                    .map(|(&t, _)| t)
                    .collect(),
                _ => Vec::new(),
            }
        };
        if !busiest.is_empty() {
            let pick = busiest[self.rng.gen_range(0..busiest.len())];
            let blocks: Vec<BlockId> = {
                let rec = &self.records[&pick];
                rec.queued.keys().copied().filter(|b| !rec.loaded.contains(b)).collect()
            };
            if !blocks.is_empty() {
                self.send_cmd(pick, Command::SendHint { blocks, to: s }, ctx);
                self.hint_after
                    .insert(s, self.status_counter + (self.slaves.len() as u64 / 2).max(4));
            }
        }
        // A master never asks its peers for seeds: they are chunked by block
        // across masters up front and per ingest epoch.
        false
    }

    /// Apply the rules to every idle, non-pending slave.
    fn assign_idle(&mut self, ctx: &mut dyn Context<Msg>) {
        let idle: Vec<usize> = self
            .records
            .iter()
            .filter(|(_, r)| r.out_of_work && !r.pending)
            .map(|(&s, _)| s)
            .collect();
        for s in idle {
            // Records change as earlier slaves get work; re-check.
            if self.records[&s].out_of_work && !self.records[&s].pending {
                self.try_assign(s, ctx);
            }
        }
    }

    /// A slave is dead: drop its record (it leaves every scheduling rule)
    /// and requeue every seed from its quarantine ledger. Its durable
    /// completions are reconciled at collect time — here its count restarts
    /// from the requeued seeds, so the group's remaining count stays an
    /// over-approximation that still drains to zero (or the run ends by
    /// natural drain; either way no schedule can hang the group).
    fn apply_slave_death(&mut self, slave: usize, now: f64, ctx: &mut dyn Context<Msg>) {
        let Some(r) = self.resil.as_mut() else { return };
        if !r.live.mark_dead(slave, now, true) {
            return;
        }
        let seeds = match r.assigned.binary_search_by_key(&(slave as u32), |(s, _)| *s) {
            Ok(j) => std::mem::take(&mut r.assigned[j].1),
            Err(_) => Vec::new(),
        };
        if self.records.remove(&slave).is_none() {
            return; // a peer master or an already-forgotten rank
        }
        r.live.reassigned += seeds.len() as u64;
        self.slaves.retain(|&s| s != slave);
        self.hint_after.remove(&slave);
        for (id, p) in seeds {
            match self.decomp.locate(p) {
                Some(b) if self.quarantined.contains(&b) => self.group_unavailable += 1,
                Some(b) => self.pool.entry(b).or_default().push((id, p)),
                None => self.group_pre_terminated += 1,
            }
        }
        self.report_remaining(ctx);
        self.assign_idle(ctx);
    }

    fn on_status(&mut self, from: usize, st: SlaveStatus, ctx: &mut dyn Context<Msg>) {
        self.status_counter += 1;
        // Failed blocks are cumulative/monotone (like terminated counts), so
        // they are safe to fold in even from stale statuses.
        for &b in &st.failed_blocks {
            self.quarantine(b);
        }
        let Some(rec) = self.records.get_mut(&from) else {
            // Resilient runs: a status from a slave this master already
            // declared dead (false suspicion, or one that raced the sweep).
            // Its work was requeued; the stray report carries nothing to act
            // on. Fault-free runs still treat this as a protocol bug.
            debug_assert!(self.resil.is_some(), "status from unknown slave");
            return;
        };
        if st.acked_cmds < rec.cmds_sent {
            // Stale: sent before a command we issued reached the slave.
            // Folding it into the record would revert our predictions and
            // make us re-issue the same command. Only monotone counters are
            // safe to take.
            rec.terminated = rec.terminated.max(st.terminated_total);
            self.report_remaining(ctx);
            return;
        }
        rec.active = st.active as u64;
        rec.loaded = st.loaded;
        rec.queued = st.queued_by_block.into_iter().collect();
        rec.terminated = rec.terminated.max(st.terminated_total);
        rec.out_of_work = st.out_of_work;
        rec.pending = false;
        self.report_remaining(ctx);
        self.assign_idle(ctx);
    }
}

impl Process<Msg> for MasterProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        if let Some(r) = self.resil.as_mut() {
            r.live.heard(&ev, ctx.now());
        }
        match ev {
            Event::Start => {
                if let Some(r) = self.resil.as_mut() {
                    for &s in &self.slaves {
                        r.live.monitor.watch(s, ctx.now());
                    }
                    r.live.arm(ctx);
                }
                // Initial allocation: every slave gets N seeds through
                // Assign-unloaded ("all slaves receive their initial
                // allocation of work through the Assign-unloaded rule").
                let slaves = self.slaves.clone();
                for s in slaves {
                    if let Some((block, seeds)) = self.take_seeds(self.params.n_assign, None) {
                        let n = seeds.len() as u64;
                        self.send_cmd(s, Command::AssignSeeds { block, seeds }, ctx);
                        let rec = self.records.get_mut(&s).expect("known");
                        rec.loaded.push(block);
                        rec.active += n;
                        rec.pending = true;
                    }
                }
                self.report_remaining(ctx);
            }
            Event::Message { from, msg } => match msg {
                Msg::Status(st) => self.on_status(from, st, ctx),
                Msg::GroupRemaining { remaining, extra_ingested, .. } => {
                    debug_assert_eq!(self.rank, ROOT_MASTER);
                    self.reported.insert(from, remaining);
                    self.reported_extra.insert(from, extra_ingested);
                    self.check_done(ctx);
                }
                Msg::Ingest { epoch, seeds } => {
                    // An open-loop batch for this master's group (possibly
                    // empty — the epoch is still observed and reported).
                    self.epochs_ingested = self.epochs_ingested.max(epoch);
                    self.group_total += seeds.len() as u64;
                    for (id, p) in seeds {
                        match self.decomp.locate(p) {
                            Some(b) if self.quarantined.contains(&b) => self.group_unavailable += 1,
                            Some(b) => self.pool.entry(b).or_default().push((id, p)),
                            None => self.group_pre_terminated += 1,
                        }
                    }
                    self.report_remaining(ctx);
                    self.assign_idle(ctx);
                }
                Msg::OutOfMemory { .. } => {}
                _ => {}
            },
            Event::Wake(WAKE_BEAT) => {
                // Sweep (requeueing the work of any newly dead slave), then
                // send MasterBeat to the surviving slaves so they know this
                // master lives, and re-arm until the deadline.
                let now = ctx.now();
                let Some((newly, beat)) = self.resil.as_mut().map(|r| r.live.tick(now)) else {
                    return;
                };
                for rank in newly {
                    self.apply_slave_death(rank, now, ctx);
                }
                if let Some(r) = self.resil.as_mut().filter(|_| beat) {
                    for &s in self.records.keys() {
                        ctx.send(
                            s,
                            Msg::MasterBeat,
                            Msg::MasterBeat.wire_bytes(self.comm_geometry),
                        );
                    }
                    r.live.arm(ctx);
                }
            }
            Event::Wake(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};

    fn master_with_seeds(n_seeds: usize, n_slaves: usize) -> MasterProc {
        let ds = uniform_x_dataset();
        let seeds = (0..n_seeds)
            .map(|i| {
                (
                    StreamlineId(i as u32),
                    Vec3::new(0.05 + 0.9 * (i as f64 / n_seeds.max(1) as f64), 0.3, 0.3),
                )
            })
            .collect();
        MasterProc::new(
            0,
            ds.decomp,
            HybridParams::default(),
            true,
            (1..=n_slaves).collect(),
            vec![0],
            seeds,
            7,
            None,
        )
    }

    fn commands_to(ctx: &NullCtx, rank: usize) -> Vec<&Command> {
        ctx.sent
            .iter()
            .filter_map(|(to, m, _)| match m {
                Msg::Command(c) if *to == rank => Some(c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_assigns_n_seeds_per_slave() {
        let mut m = master_with_seeds(100, 3);
        let mut ctx = NullCtx::default();
        m.on_event(Event::Start, &mut ctx);
        for s in 1..=3 {
            let cmds = commands_to(&ctx, s);
            assert_eq!(cmds.len(), 1, "slave {s}");
            match cmds[0] {
                Command::AssignSeeds { seeds, .. } => assert_eq!(seeds.len(), 10),
                other => panic!("expected AssignSeeds, got {other:?}"),
            }
        }
        // 30 of 100 seeds handed out.
        let pooled: usize = m.pool.values().map(|v| v.len()).sum();
        assert_eq!(pooled, 70);
    }

    #[test]
    fn idle_slave_with_heavy_unloaded_block_gets_load_command() {
        let mut m = master_with_seeds(0, 2);
        let mut ctx = NullCtx::default();
        // Slave 1 idles with 50 streamlines parked in unloaded block 3.
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(3), 50)],
                loaded: vec![BlockId(0)],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let cmds = commands_to(&ctx, 1);
        assert!(
            cmds.iter().any(|c| matches!(c, Command::Load { block } if *block == BlockId(3))),
            "expected Load(B3), got {cmds:?}"
        );
    }

    #[test]
    fn idle_slave_with_light_parked_block_gets_send_force() {
        let mut m = master_with_seeds(0, 2);
        let mut ctx = NullCtx::default();
        // Slave 2 has block 3 loaded and capacity.
        m.on_status(
            2,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![BlockId(3)],
                active: 5,
                terminated_total: 0,
                out_of_work: false,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        // Slave 1 idles with 5 streamlines parked in block 3 (below N_L).
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(3), 5)],
                loaded: vec![BlockId(0)],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let cmds = commands_to(&ctx, 1);
        assert!(
            cmds.iter().any(
                |c| matches!(c, Command::SendForce { block, to } if *block == BlockId(3) && *to == 2)
            ),
            "expected SendForce(B3 → 2), got {cmds:?}"
        );
    }

    #[test]
    fn send_force_respects_overload_limit() {
        let mut m = master_with_seeds(0, 2);
        let mut ctx = NullCtx::default();
        // Slave 2 has block 3 loaded but is at the overload limit (200).
        m.on_status(
            2,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![BlockId(3)],
                active: 200,
                terminated_total: 0,
                out_of_work: false,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(3), 5)],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let cmds = commands_to(&ctx, 1);
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::SendForce { .. })),
            "must not overload slave 2: {cmds:?}"
        );
        // Falls through to rule 6: load its own block.
        assert!(cmds.iter().any(|c| matches!(c, Command::Load { .. })));
    }

    #[test]
    fn starving_slave_triggers_hint_to_busiest() {
        let mut m = master_with_seeds(0, 3);
        let mut ctx = NullCtx::default();
        // Slave 2 is busy with parked work in unloaded block 5.
        m.on_status(
            2,
            SlaveStatus {
                queued_by_block: vec![(BlockId(5), 30)],
                loaded: vec![BlockId(1)],
                active: 40,
                terminated_total: 0,
                out_of_work: false,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        // Slave 1 idles with nothing at all.
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let hints = commands_to(&ctx, 2);
        assert!(
            hints.iter().any(|c| matches!(c, Command::SendHint { to, .. } if *to == 1)),
            "expected hint to slave 2 on behalf of 1, got {hints:?}"
        );
    }

    #[test]
    fn termination_when_all_groups_report_zero() {
        let mut m = master_with_seeds(10, 1);
        let mut ctx = NullCtx::default();
        m.on_event(Event::Start, &mut ctx);
        assert!(!ctx.stopped);
        // The slave terminates everything it was given (10 seeds).
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![BlockId(0)],
                active: 0,
                terminated_total: 10,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        assert!(ctx.stopped, "root master must stop the run at zero remaining");
        assert!(m.done);
        // A Terminate command was sent to the slave.
        assert!(commands_to(&ctx, 1).iter().any(|c| matches!(c, Command::Terminate)));
    }

    #[test]
    fn idle_master_sends_nothing_to_its_peers() {
        // A non-root master of three, with an empty pool and two idle
        // slaves: it reports its remaining count to the root and otherwise
        // leaves its peers alone, however often its slaves report idle.
        let ds = uniform_x_dataset();
        let mut m = MasterProc::new(
            5,
            ds.decomp,
            HybridParams::default(),
            true,
            vec![6, 7],
            vec![0, 5, 9],
            vec![],
            7,
            None,
        );
        let mut ctx = NullCtx::default();
        m.on_event(Event::Start, &mut ctx);
        let idle = SlaveStatus {
            queued_by_block: vec![],
            loaded: vec![],
            active: 0,
            terminated_total: 0,
            out_of_work: true,
            acked_cmds: u64::MAX,
            failed_blocks: vec![],
        };
        for _ in 0..10 {
            for s in [6, 7] {
                m.on_event(Event::Message { from: s, msg: Msg::Status(idle.clone()) }, &mut ctx);
            }
        }
        let to_peers: Vec<&(usize, Msg, usize)> =
            ctx.sent.iter().filter(|(to, _, _)| [0, 9].contains(to)).collect();
        assert!(
            to_peers.iter().all(|(to, msg, _)| *to == ROOT_MASTER
                && matches!(msg, Msg::GroupRemaining { remaining: 0, .. })),
            "{to_peers:?}"
        );
        assert_eq!(to_peers.len(), 1, "the unchanged count is reported once");
    }

    #[test]
    fn stale_status_does_not_revert_decisions() {
        // Regression for the command/status race: after the master issues
        // Load(B3), a status that was already in flight (acking fewer
        // commands) must NOT make it re-issue Load(B3).
        let mut m = master_with_seeds(0, 1);
        let mut ctx = NullCtx::default();
        // Fresh status: slave 1 idle with 50 parked in unloaded B3.
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(3), 50)],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: 0,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let loads_before = m.cmd_counts[3];
        assert_eq!(loads_before, 1, "first status triggers the Load");
        // A stale duplicate (acked_cmds still 0 < cmds_sent 1) arrives.
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(3), 50)],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: 0,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        assert_eq!(m.cmd_counts[3], loads_before, "stale status re-issued a Load");
        // The acknowledging status unblocks further assignment. (This
        // zero-seed master also sent a Terminate on its first status —
        // remaining hit zero immediately — so two commands are in flight.)
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![(BlockId(5), 50)],
                loaded: vec![BlockId(3)],
                active: 0,
                terminated_total: 30,
                out_of_work: true,
                acked_cmds: m.records[&1].cmds_sent,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        assert_eq!(m.cmd_counts[3], loads_before + 1, "fresh status resumes work");
    }

    #[test]
    fn stale_status_still_counts_terminations() {
        // Terminated counts are monotone and must be folded in even from
        // stale statuses, or the global count would stall.
        let mut m = master_with_seeds(10, 1);
        let mut ctx = NullCtx::default();
        m.on_event(Event::Start, &mut ctx); // sends AssignSeeds (1 command)
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![],
                active: 0,
                terminated_total: 10,
                out_of_work: true,
                acked_cmds: 0, // stale!
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        assert_eq!(m.remaining(), 0, "stale status must still deliver terminations");
        assert!(ctx.stopped, "root master stops at zero remaining");
    }

    #[test]
    fn hint_is_throttled() {
        let mut m = master_with_seeds(0, 3);
        let mut ctx = NullCtx::default();
        // Slave 2 busy with parked work in an unloaded block (hint target).
        m.on_status(
            2,
            SlaveStatus {
                queued_by_block: vec![(BlockId(5), 30)],
                loaded: vec![BlockId(1)],
                active: 40,
                terminated_total: 0,
                out_of_work: false,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        // Slave 1 idles repeatedly; only the first idle status may hint.
        for _ in 0..5 {
            m.on_status(
                1,
                SlaveStatus {
                    queued_by_block: vec![],
                    loaded: vec![],
                    active: 0,
                    terminated_total: 0,
                    out_of_work: true,
                    acked_cmds: u64::MAX,
                    failed_blocks: vec![],
                },
                &mut ctx,
            );
        }
        // The throttle admits at most one hint per half-group of statuses:
        // far fewer than the five idle reports.
        assert!(m.cmd_counts[2] <= 2, "hints must be throttled, got {}", m.cmd_counts[2]);
    }

    #[test]
    fn failed_blocks_quarantine_pool_seeds() {
        // 100 seeds spread along x over a 2x2x2 decomposition; none handed
        // out yet. A slave reporting block 0 as unloadable must make the
        // master discard block 0's pooled seeds and count them terminated.
        let mut m = master_with_seeds(100, 2);
        let mut ctx = NullCtx::default();
        let pooled_in_b0 = m.pool.get(&BlockId(0)).map(|v| v.len()).unwrap_or(0);
        assert!(pooled_in_b0 > 0, "test needs seeds in block 0");
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![BlockId(0)],
            },
            &mut ctx,
        );
        assert!(!m.pool.contains_key(&BlockId(0)));
        assert_eq!(m.unavailable_seeds(), pooled_in_b0 as u64);
        assert_eq!(m.quarantined_blocks(), 1);
        assert_eq!(m.remaining(), 100 - pooled_in_b0 as u64);
        // Quarantine is idempotent: a repeat report changes nothing.
        m.on_status(
            1,
            SlaveStatus {
                queued_by_block: vec![],
                loaded: vec![],
                active: 0,
                terminated_total: 0,
                out_of_work: true,
                acked_cmds: u64::MAX,
                failed_blocks: vec![BlockId(0)],
            },
            &mut ctx,
        );
        assert_eq!(m.unavailable_seeds(), pooled_in_b0 as u64);
    }

    #[test]
    fn snapshot_roundtrips_and_preserves_behaviour() {
        let mut m = master_with_seeds(60, 3);
        let mut ctx = NullCtx::default();
        m.on_event(Event::Start, &mut ctx);
        // Drive some state: one slave reports idle with parked work, another
        // reports busy — this exercises records, hints, and the RNG.
        m.on_status(
            2,
            SlaveStatus {
                queued_by_block: vec![(BlockId(5), 30)],
                loaded: vec![BlockId(1)],
                active: 40,
                terminated_total: 3,
                out_of_work: false,
                acked_cmds: u64::MAX,
                failed_blocks: vec![],
            },
            &mut ctx,
        );
        let snap = m.snapshot();

        let mut restored = master_with_seeds(60, 3);
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap, "snapshot must round-trip exactly");

        // Behaviour equivalence: the same subsequent status produces the
        // same outgoing messages (including any RNG-driven hint picks).
        let storm = SlaveStatus {
            queued_by_block: vec![],
            loaded: vec![],
            active: 0,
            terminated_total: 0,
            out_of_work: true,
            acked_cmds: u64::MAX,
            failed_blocks: vec![],
        };
        let mut ctx_a = NullCtx::default();
        let mut ctx_b = NullCtx::default();
        m.on_status(1, storm.clone(), &mut ctx_a);
        restored.on_status(1, storm, &mut ctx_b);
        assert_eq!(ctx_a.sent, ctx_b.sent, "restored master must act identically");
        assert_eq!(m.snapshot(), restored.snapshot());
    }
}
