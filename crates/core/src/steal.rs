//! Decentralized work stealing / diffusive load balancing — the masterless
//! fourth driver.
//!
//! The paper's hybrid scheduler routes every balancing decision through a
//! master rank; the follow-up load-balancing literature (diffusive particle
//! balancing, lifeline work stealing) removes that bottleneck by letting
//! ranks trade work peer-to-peer. This driver implements both halves:
//!
//! * **Lifelines** — rank `r` is linked to `(r + 2^j) mod n` for
//!   `j in 0..neighbor_degree`. An idle rank sweeps its lifelines with
//!   [`Msg::StealRequest`] probes; a victim answers with a
//!   [`Msg::WorkTransfer`] batch (empty = refusal), always keeping at least
//!   one streamline for itself.
//! * **Diffusion** — every `diffusion_period` virtual seconds a busy rank
//!   reports its parked-streamline count to its lifelines
//!   ([`Msg::LoadReport`]); a significantly under-loaded receiver pulls a
//!   batch with a single steal probe. Reports from busy ranks are also what
//!   re-activate quiescent ranks after a failed sweep.
//! * **Termination** — no master counts terminations. Safra's algorithm
//!   runs over the ring of `j = 0` lifeline edges: each rank keeps a
//!   cumulative basic-message balance (sent − received) and a dirty bit set
//!   on every basic receive; rank 0 launches a [`Msg::TermToken`] when
//!   passive, every passive rank folds its balance in and whitens itself,
//!   and rank 0 declares global termination when a white token returns with
//!   a zero total balance. Rank 0 owns no work and assigns none — the token
//!   wave is symmetric, so the driver stays masterless.
//!
//! Integration itself is untouched: work drains exactly like a Load On
//! Demand rank (advance everything resident, then load the block with the
//! most waiters), so on closed fault-free workloads the streamline states
//! are bit-identical to every other driver.

use crate::config::{MemoryBudget, StealParams};
use crate::ingest::EpochMap;
use crate::liveness::{Liveness, WAKE_BEAT};
use crate::msg::Msg;
use crate::rank::{repark, Parked, RankCore, RankCoreSnapshot};
use crate::termination::FrontierDetector;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use streamline_desim::{Context, Event, Process};
use streamline_field::block::BlockId;
use streamline_integrate::{Streamline, StreamlineId};
use streamline_iosim::StoreError;
use streamline_math::Vec3;

/// Zero-delay processing round (same idiom as `LodProc`).
const WAKE_ROUND: u64 = 0;
/// Periodic diffusion tick: report load to lifeline neighbors.
const WAKE_TICK: u64 = 1;
/// Rank 0 re-arms the termination token after a failed circulation.
const WAKE_TOKEN_RETRY: u64 = 2;

/// Lifeline out-neighbors of `rank`: `(rank + 2^j) mod n` for
/// `j in 0..degree`, deduplicated, never including `rank` itself. The
/// `j = 0` edge (`rank + 1`) is always present, so the edges form the ring
/// the termination token travels.
pub fn lifeline_neighbors(rank: usize, n_ranks: usize, degree: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stride = 1usize;
    for _ in 0..degree {
        let to = (rank + stride % n_ranks) % n_ranks;
        if to != rank && !out.contains(&to) {
            out.push(to);
        }
        stride = stride.saturating_mul(2);
    }
    out
}

/// One work-stealing rank.
pub struct StealProc {
    rank: usize,
    n_ranks: usize,
    params: StealParams,
    comm_geometry: bool,
    neighbors: Vec<usize>,
    /// Workspace, finished list, memory budget, ping-pong record and the
    /// per-epoch retirement ledger. Work migrates freely between steal
    /// ranks, so the ledger's `opened` side is meaningless here — only
    /// retirements are recorded, for driver-level frontier folding.
    pub(crate) core: RankCore,
    seeds: Vec<(StreamlineId, Vec3)>,
    /// Streamlines waiting for a non-resident block.
    parked: Parked,
    pub done: bool,
    /// A diffusion tick is pending; ticks re-arm only while this rank has
    /// work, so an idle cluster schedules no events at all.
    tick_armed: bool,
    /// A steal probe is outstanding (idle sweep or report-triggered pull).
    hunting: bool,
    /// Index into `neighbors` of the probe in flight; `>= neighbors.len()`
    /// marks a single-victim probe that gives up on the first refusal.
    hunt_cursor: usize,
    /// The idle sweep already ran since work last drained — don't re-sweep
    /// on stray wakes; diffusion reports re-activate this rank instead.
    hunted_since_idle: bool,
    /// Safra: cumulative basic messages sent minus received.
    msg_balance: i64,
    /// Safra: a basic message arrived since this rank last forwarded (or
    /// launched) the token.
    black: bool,
    /// Safra: token held until this rank is passive.
    held_token: Option<(i64, bool)>,
    /// Ingest-epoch fold carried by the held token.
    held_extra: u32,
    /// Rank 0 only: a token is circulating.
    token_out: bool,
    /// Rank 0 only: a retry wake is pending after a failed circulation.
    retry_armed: bool,
    /// Balancing-protocol traffic (reports, probes, transfers, tokens).
    pub balance_msgs: u64,
    pub balance_bytes: u64,
    /// Resilient mode: ring heartbeats (beat the live successor, watch the
    /// live predecessor), membership-aware lifelines and termination.
    /// `None` outside rank-chaos runs so fault-free schedules are
    /// untouched.
    resil: Option<StealResil>,
    /// Highest ingest epoch observed at this rank (0 for closed runs). The
    /// termination token folds the minimum across ranks: a wave can only
    /// succeed once every live rank has seen every epoch, which is what
    /// makes Safra's invariant hold under external seed arrival.
    extra_ingested: u32,
    /// Total epochs of the run's ingest plan (1 for closed runs).
    n_epochs: u32,
}

/// Resilient-mode state of a steal rank: its failure detector and
/// membership view, plus what its recovery needs — per-peer Safra balances
/// (so lost messages to/from dead ranks can be excluded exactly), the probe
/// to repair if its victim dies, and the dead set a held token carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealResil {
    pub live: Liveness,
    /// Safra per-peer balance: basic messages sent to / received from each
    /// rank, so the balance can be restricted to live peers exactly.
    pub sent_to: Vec<i64>,
    pub recv_from: Vec<i64>,
    /// Rank the outstanding steal probe went to (for repair when it dies).
    pub probe_target: Option<usize>,
    /// Dead set carried by the held token (empty when none held).
    pub held_dead: Vec<u32>,
}

impl StealResil {
    /// Basic-message balance restricted to peers this rank believes alive.
    fn live_balance(&self) -> i64 {
        (0..self.sent_to.len())
            .filter(|&p| !self.live.is_dead(p))
            .map(|p| self.sent_to[p] - self.recv_from[p])
            .sum()
    }
}

/// Serializable image of a [`StealProc`] mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealSnapshot {
    pub core: RankCoreSnapshot,
    pub seeds: Vec<(StreamlineId, Vec3)>,
    pub parked: Vec<(BlockId, Vec<Streamline>)>,
    pub done: bool,
    pub tick_armed: bool,
    pub hunting: bool,
    pub hunt_cursor: usize,
    pub hunted_since_idle: bool,
    pub msg_balance: i64,
    pub black: bool,
    pub held_token: Option<(i64, bool)>,
    pub token_out: bool,
    pub retry_armed: bool,
    pub balance_msgs: u64,
    pub balance_bytes: u64,
    pub resil: Option<StealResil>,
    pub extra_ingested: u32,
    /// Epoch fold of the held token, if any; 0 matches closed runs.
    pub held_extra: u32,
}

impl StealProc {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        n_ranks: usize,
        ws: Workspace,
        seeds: Vec<(StreamlineId, Vec3)>,
        memory: MemoryBudget,
        comm_geometry: bool,
        h0: f64,
        params: StealParams,
        live: Option<Liveness>,
    ) -> Self {
        StealProc {
            rank,
            n_ranks,
            params,
            comm_geometry,
            neighbors: lifeline_neighbors(rank, n_ranks, params.neighbor_degree),
            core: RankCore::new(ws, memory, h0, FrontierDetector::default(), EpochMap::default()),
            seeds,
            parked: Parked::new(),
            done: false,
            tick_armed: false,
            hunting: false,
            hunt_cursor: 0,
            hunted_since_idle: false,
            msg_balance: 0,
            black: false,
            held_token: None,
            held_extra: 0,
            token_out: false,
            retry_armed: false,
            balance_msgs: 0,
            balance_bytes: 0,
            resil: live.map(|live| StealResil {
                live,
                sent_to: vec![0; n_ranks],
                recv_from: vec![0; n_ranks],
                probe_target: None,
                held_dead: Vec::new(),
            }),
            extra_ingested: 0,
            n_epochs: 1,
        }
    }

    /// Switch this rank into open-loop mode: `n_epochs` ingest epochs will
    /// be observed (epoch 0 at start, the rest as [`Msg::Ingest`] events),
    /// with `emap` recovering any streamline's epoch from its id.
    pub fn with_ingest(mut self, n_epochs: u32, emap: EpochMap) -> Self {
        self.core.emap = emap;
        self.n_epochs = n_epochs.max(1);
        self
    }

    pub fn core(&self) -> &RankCore {
        &self.core
    }

    /// This rank's failure detector and membership view, in resilient mode.
    pub fn liveness(&self) -> Option<&Liveness> {
        self.resil.as_ref().map(|r| &r.live)
    }

    /// Capture this rank's mid-run state for a checkpoint.
    pub fn snapshot(&self) -> StealSnapshot {
        StealSnapshot {
            core: self.core.snapshot(),
            seeds: self.seeds.clone(),
            parked: self.parked.iter().map(|(&b, v)| (b, v.clone())).collect(),
            done: self.done,
            tick_armed: self.tick_armed,
            hunting: self.hunting,
            hunt_cursor: self.hunt_cursor,
            hunted_since_idle: self.hunted_since_idle,
            msg_balance: self.msg_balance,
            black: self.black,
            held_token: self.held_token,
            token_out: self.token_out,
            retry_armed: self.retry_armed,
            balance_msgs: self.balance_msgs,
            balance_bytes: self.balance_bytes,
            resil: self.resil.clone(),
            extra_ingested: self.extra_ingested,
            held_extra: self.held_extra,
        }
    }

    /// Restore a snapshot onto a freshly built rank (same config/dataset).
    pub fn restore(&mut self, snap: &StealSnapshot) -> Result<(), StoreError> {
        self.core.restore(&snap.core)?;
        self.seeds = snap.seeds.clone();
        self.parked = snap.parked.iter().cloned().collect();
        self.done = snap.done;
        self.tick_armed = snap.tick_armed;
        self.hunting = snap.hunting;
        self.hunt_cursor = snap.hunt_cursor;
        self.hunted_since_idle = snap.hunted_since_idle;
        self.msg_balance = snap.msg_balance;
        self.black = snap.black;
        self.held_token = snap.held_token;
        self.token_out = snap.token_out;
        self.retry_armed = snap.retry_armed;
        self.balance_msgs = snap.balance_msgs;
        self.balance_bytes = snap.balance_bytes;
        self.resil = snap.resil.clone();
        self.extra_ingested = snap.extra_ingested;
        self.held_extra = snap.held_extra;
        if self.resil.is_some() {
            self.recompute_neighbors();
        }
        Ok(())
    }

    fn my_load(&self) -> usize {
        self.parked.values().map(|v| v.len()).sum()
    }

    /// Ranks this rank believes alive, ascending. Always contains `rank`.
    fn live_ranks(&self) -> Vec<usize> {
        match &self.resil {
            Some(r) => r.live.live_ranks(self.rank, self.n_ranks),
            None => (0..self.n_ranks).collect(),
        }
    }

    /// Rebuild the lifeline graph over the live membership: lifelines are
    /// computed in live-index space and mapped back to rank space, so the
    /// `j = 0` edges always form a ring over exactly the live ranks.
    fn recompute_neighbors(&mut self) {
        let live = self.live_ranks();
        let i = live.iter().position(|&r| r == self.rank).expect("self is alive");
        self.neighbors = lifeline_neighbors(i, live.len(), self.params.neighbor_degree)
            .into_iter()
            .map(|j| live[j])
            .collect();
    }

    /// Next live rank along the token ring.
    fn ring_successor(&self) -> usize {
        match &self.resil {
            Some(_) => {
                let live = self.live_ranks();
                let i = live.iter().position(|&r| r == self.rank).expect("self is alive");
                live[(i + 1) % live.len()]
            }
            None => (self.rank + 1) % self.n_ranks,
        }
    }

    /// The token initiator: rank 0 normally; after its death, the lowest
    /// rank this rank believes alive (views may briefly disagree — duplicate
    /// tokens are tolerated, termination is declared by whoever sees a clean
    /// wave).
    fn is_initiator(&self) -> bool {
        match &self.resil {
            Some(r) => (0..self.rank).all(|p| r.live.is_dead(p)),
            None => self.rank == 0,
        }
    }

    /// The Safra balance this rank folds into the token: restricted to live
    /// peers in resilient mode (messages to/from the dead are lost, not in
    /// flight), the plain cumulative balance otherwise.
    fn current_balance(&self) -> i64 {
        match &self.resil {
            Some(r) => r.live_balance(),
            None => self.msg_balance,
        }
    }

    /// A steal probe is outgoing: remember (and watch) the victim so its
    /// death cannot strand this rank hunting forever.
    fn note_probe(&mut self, to: usize, now: f64) {
        if let Some(r) = self.resil.as_mut() {
            r.probe_target = Some(to);
            if r.live.ring_watch != Some(to) {
                r.live.monitor.watch(to, now);
            }
        }
    }

    /// The outstanding probe resolved (answer arrived or sweep moved on).
    fn clear_probe(&mut self) {
        if let Some(r) = self.resil.as_mut() {
            if let Some(t) = r.probe_target.take() {
                if r.live.ring_watch != Some(t) {
                    r.live.monitor.unwatch(t);
                }
            }
        }
    }

    /// Fold a peer's (or the token's) view of the dead into our own.
    fn merge_dead(&mut self, dead: &[u32], now: f64, ctx: &mut dyn Context<Msg>) {
        for &d in dead {
            self.apply_death(d as usize, now, false, ctx);
        }
    }

    /// A rank is now known dead: update membership, repair the lifeline
    /// graph, the watch chain, any stranded probe, and let the initiator
    /// relaunch a token that may have died with the rank.
    fn apply_death(
        &mut self,
        rank: usize,
        now: f64,
        own_detection: bool,
        ctx: &mut dyn Context<Msg>,
    ) {
        if rank == self.rank {
            return; // a false suspicion of ourselves, gossiped back
        }
        let Some(r) = self.resil.as_mut() else { return };
        if !r.live.mark_dead(rank, now, own_detection) {
            return;
        }
        r.live.watch_ring_predecessor(self.rank, self.n_ranks, now);
        let stranded = self.hunting && r.probe_target == Some(rank);
        self.recompute_neighbors();
        // Probe repair: the victim died before answering — treat it as a
        // refusal and restart the idle sweep over the repaired lifelines.
        if stranded {
            self.clear_probe();
            self.hunting = false;
            self.hunted_since_idle = false;
            if !self.done && self.parked.is_empty() {
                self.enter_idle(ctx);
            }
        }
        // A token in flight to (or held by) the dead rank is lost; clearing
        // `token_out` lets the initiator launch a fresh wave. A surviving
        // duplicate token is tolerated — it just circulates dirty.
        if self.is_initiator() {
            self.token_out = false;
        }
    }

    /// Passive in Safra's sense: no local work and no probe in flight. A
    /// passive rank sends nothing but the termination token.
    fn passive(&self) -> bool {
        self.parked.is_empty() && !self.hunting
    }

    /// Send a basic (non-token) balancing message: counts toward the Safra
    /// balance and the diagnostics.
    fn send_basic(&mut self, to: usize, msg: Msg, ctx: &mut dyn Context<Msg>) {
        let bytes = msg.wire_bytes(self.comm_geometry);
        self.msg_balance += 1;
        if let Some(r) = self.resil.as_mut() {
            r.sent_to[to] += 1;
        }
        self.balance_msgs += 1;
        self.balance_bytes += bytes as u64;
        ctx.send(to, msg, bytes);
    }

    /// Account a basic message arriving (Safra receive rule).
    fn recv_basic(&mut self, from: usize) {
        self.msg_balance -= 1;
        if let Some(r) = self.resil.as_mut() {
            r.recv_from[from] += 1;
        }
        self.black = true;
    }

    fn send_token(&mut self, count: i64, black: bool, extra: u32, ctx: &mut dyn Context<Msg>) {
        let dead = self.resil.as_ref().map_or_else(Vec::new, |r| r.live.dead.clone());
        let msg = Msg::TermToken { count, black, dead, extra_ingested: extra };
        let bytes = msg.wire_bytes(self.comm_geometry);
        self.balance_msgs += 1;
        self.balance_bytes += bytes as u64;
        ctx.send(self.ring_successor(), msg, bytes);
    }

    /// Admit `seeds` as new streamlines owned here and park each at its
    /// block.
    fn admit_seeds(&mut self, seeds: Vec<(StreamlineId, Vec3)>, now: f64) {
        for (id, seed) in seeds {
            self.core.note_arrival(id, now);
            if let Some((b, sl)) = self.core.place_seed(id, seed) {
                self.parked.entry(b).or_default().push(sl);
            }
        }
    }

    /// One round: advance everything whose block is resident (the Load On
    /// Demand rule), then load at most one block and yield. With no work
    /// left the rank turns to its lifelines.
    fn round(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.done || !self.core.drain_resident(&mut self.parked, ctx, repark) {
            return;
        }
        if self.parked.is_empty() {
            self.enter_idle(ctx);
            return;
        }
        self.hunted_since_idle = false;
        self.arm_tick(ctx);
        if !self.core.load_most_wanted(&mut self.parked, ctx) {
            return;
        }
        ctx.wake_after(0.0, WAKE_ROUND);
    }

    /// Work just drained. Alone there is nothing to wait for; otherwise
    /// sweep the lifelines once, then go quiescent until a diffusion report
    /// or a transfer re-activates this rank.
    fn enter_idle(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.n_ranks == 1 {
            // A lone rank is done only once every ingest epoch has been
            // observed; otherwise it idles until the next `Ingest` event.
            if self.extra_ingested + 1 >= self.n_epochs {
                self.done = true;
            }
            return;
        }
        if !self.hunting && !self.hunted_since_idle && !self.neighbors.is_empty() {
            self.hunted_since_idle = true;
            self.hunting = true;
            self.hunt_cursor = 0;
            let to = self.neighbors[0];
            self.note_probe(to, ctx.now());
            self.send_basic(to, Msg::StealRequest, ctx);
        }
    }

    /// A probe was refused: try the next lifeline, or give up the sweep.
    fn advance_hunt(&mut self, ctx: &mut dyn Context<Msg>) {
        self.hunt_cursor += 1;
        if self.hunt_cursor < self.neighbors.len() {
            let to = self.neighbors[self.hunt_cursor];
            self.note_probe(to, ctx.now());
            self.send_basic(to, Msg::StealRequest, ctx);
        } else {
            self.hunting = false;
        }
    }

    fn arm_tick(&mut self, ctx: &mut dyn Context<Msg>) {
        if !self.tick_armed && self.n_ranks > 1 {
            self.tick_armed = true;
            ctx.wake_after(self.params.diffusion_period, WAKE_TICK);
        }
    }

    /// Diffusion tick: report load to every lifeline while busy. Idle ranks
    /// stop ticking — the cluster is event-driven at the end of a run, which
    /// keeps the event count bounded by useful work.
    fn on_tick(&mut self, ctx: &mut dyn Context<Msg>) {
        self.tick_armed = false;
        let load = self.my_load();
        if load == 0 {
            return;
        }
        for i in 0..self.neighbors.len() {
            let to = self.neighbors[i];
            self.send_basic(to, Msg::LoadReport { load: load as u32 }, ctx);
        }
        self.arm_tick(ctx);
    }

    /// A neighbor advertised its load. If this rank is under-loaded by at
    /// least a batch, pull with a single-victim probe (this is also how a
    /// quiescent rank is re-activated after a failed sweep).
    fn on_load_report(&mut self, from: usize, load: u32, ctx: &mut dyn Context<Msg>) {
        self.recv_basic(from);
        if self.done || self.hunting {
            return;
        }
        if self.my_load() + self.params.steal_batch <= load as usize {
            self.hunting = true;
            self.hunt_cursor = self.neighbors.len();
            self.note_probe(from, ctx.now());
            self.send_basic(from, Msg::StealRequest, ctx);
        }
    }

    /// Pick the grant for a steal request: up to `steal_batch` streamlines
    /// from the blocks this rank would visit last, always keeping at least
    /// one streamline so victim and thief cannot swap the same work forever.
    fn grant_batch(&mut self) -> Vec<(BlockId, Streamline)> {
        let total = self.my_load();
        if total <= 1 {
            return Vec::new();
        }
        let mut budget = self.params.steal_batch.min(total - 1);
        let mut out = Vec::new();
        while budget > 0 {
            // Mirror of round()'s priority: fewest waiters first, ties to
            // the highest block id — the work this rank needs last.
            let Some((&block, _)) =
                self.parked.iter().min_by_key(|(id, v)| (v.len(), std::cmp::Reverse(id.0)))
            else {
                break;
            };
            let list = self.parked.get_mut(&block).expect("key just found");
            while budget > 0 {
                let Some(sl) = list.pop() else { break };
                self.core.ws.release(&sl);
                out.push((block, sl));
                budget -= 1;
            }
            if list.is_empty() {
                self.parked.remove(&block);
            }
        }
        out
    }

    fn on_steal_request(&mut self, from: usize, ctx: &mut dyn Context<Msg>) {
        self.recv_basic(from);
        let sls = self.grant_batch();
        self.send_basic(from, Msg::WorkTransfer { sls }, ctx);
    }

    fn on_work_transfer(
        &mut self,
        from: usize,
        sls: Vec<(BlockId, Streamline)>,
        ctx: &mut dyn Context<Msg>,
    ) {
        self.recv_basic(from);
        if self.resil.as_ref().is_some_and(|r| r.probe_target == Some(from)) {
            self.clear_probe();
        }
        if sls.is_empty() {
            // A refusal: continue the sweep (or give up).
            if self.hunting {
                self.advance_hunt(ctx);
            }
            return;
        }
        self.hunting = false;
        self.hunted_since_idle = false;
        let now = ctx.now();
        for (block, sl) in sls {
            self.core.note_arrival(sl.id, now);
            self.core.ws.admit(&sl);
            self.parked.entry(block).or_default().push(sl);
        }
        if self.core.check_memory(ctx) {
            return;
        }
        self.arm_tick(ctx);
        ctx.wake_after(0.0, WAKE_ROUND);
    }

    /// Safra token rules, applied after every event. A held token moves the
    /// moment this rank is passive; the initiator (rank 0, or after its
    /// death the lowest live rank) additionally launches fresh tokens and
    /// evaluates returning ones.
    fn maybe_advance_token(&mut self, ctx: &mut dyn Context<Msg>) {
        if self.done || self.core.failed_oom || self.n_ranks < 2 || !self.passive() {
            return;
        }
        // Sole survivor: nobody left to count with — local quiescence is
        // global quiescence (once every ingest epoch has been delivered).
        if self.resil.as_ref().is_some_and(|r| r.live.dead.len() + 1 >= self.n_ranks)
            && self.extra_ingested + 1 >= self.n_epochs
        {
            self.done = true;
            ctx.stop_all();
            return;
        }
        let held_dead = |s: &mut Self| {
            s.resil.as_mut().map_or_else(Vec::new, |r| std::mem::take(&mut r.held_dead))
        };
        if self.is_initiator() {
            if let Some((count, black)) = self.held_token.take() {
                let tdead = held_dead(self);
                // The circulation only counts if every rank folded the same
                // membership we hold now; a view change mid-hold dirties it.
                let consistent = self.resil.as_ref().is_none_or(|r| r.live.dead == tdead);
                // Every live rank must have observed every ingest epoch —
                // the token carries the minimum fold, so a wave that beat an
                // arrival to any rank cannot declare termination.
                let all_ingested = self.held_extra.min(self.extra_ingested) + 1 >= self.n_epochs;
                if !black
                    && !self.black
                    && consistent
                    && all_ingested
                    && count + self.current_balance() == 0
                {
                    // White token, clean initiator, zero global balance: no
                    // work and no messages exist anywhere among the living.
                    self.done = true;
                    ctx.stop_all();
                } else {
                    // Dirty circulation: retry after a diffusion period so
                    // token traffic stays bounded.
                    self.token_out = false;
                    if !self.retry_armed {
                        self.retry_armed = true;
                        ctx.wake_after(self.params.diffusion_period, WAKE_TOKEN_RETRY);
                    }
                }
            } else if !self.token_out && !self.retry_armed {
                self.token_out = true;
                self.black = false;
                let extra = self.extra_ingested;
                self.send_token(0, false, extra, ctx);
            }
        } else if let Some((count, black)) = self.held_token.take() {
            let _ = held_dead(self);
            let fwd = count + self.current_balance();
            let dirty = black || self.black;
            let fold = self.held_extra.min(self.extra_ingested);
            self.black = false;
            self.send_token(fwd, dirty, fold, ctx);
        }
    }
}

impl Process<Msg> for StealProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        if let Some(r) = self.resil.as_mut() {
            r.live.heard(&ev, ctx.now());
        }
        match ev {
            Event::Start => {
                let seeds = std::mem::take(&mut self.seeds);
                self.admit_seeds(seeds, ctx.now());
                if let Some(r) = self.resil.as_mut() {
                    r.live.watch_ring_predecessor(self.rank, self.n_ranks, ctx.now());
                    r.live.arm(ctx);
                }
                self.round(ctx);
            }
            Event::Wake(WAKE_ROUND) => self.round(ctx),
            Event::Wake(WAKE_TICK) => self.on_tick(ctx),
            Event::Wake(WAKE_TOKEN_RETRY) => self.retry_armed = false,
            Event::Wake(WAKE_BEAT) => {
                // Sweep, then beat the ring successor and re-arm until the
                // deadline.
                let now = ctx.now();
                if let Some((newly, beat)) = self.resil.as_mut().map(|r| r.live.tick(now)) {
                    for rank in newly {
                        self.apply_death(rank, now, true, ctx);
                    }
                    let to = self.ring_successor();
                    if let Some(r) = self.resil.as_mut().filter(|_| beat) {
                        let bytes = Msg::Beat.wire_bytes(self.comm_geometry);
                        self.balance_msgs += 1;
                        self.balance_bytes += bytes as u64;
                        ctx.send(to, Msg::Beat, bytes);
                        r.live.arm(ctx);
                    }
                }
            }
            Event::Wake(_) => {}
            Event::Message { from, msg } => {
                match msg {
                    Msg::LoadReport { load } => self.on_load_report(from, load, ctx),
                    Msg::StealRequest => self.on_steal_request(from, ctx),
                    Msg::WorkTransfer { sls } => self.on_work_transfer(from, sls, ctx),
                    Msg::Ingest { epoch, seeds } => {
                        // External arrival — not a basic message, so it never
                        // touches the Safra balance; it does blacken the rank
                        // so a token that beat the arrival circulates dirty.
                        self.extra_ingested = self.extra_ingested.max(epoch);
                        self.black = true;
                        let had_seeds = !seeds.is_empty();
                        self.admit_seeds(seeds, ctx.now());
                        if self.core.check_memory(ctx) {
                            return;
                        }
                        if had_seeds {
                            self.hunted_since_idle = false;
                            self.arm_tick(ctx);
                            ctx.wake_after(0.0, WAKE_ROUND);
                        } else if self.n_ranks == 1 && self.parked.is_empty() {
                            // A lone rank may have been waiting on this
                            // (empty) final epoch to declare itself done.
                            self.enter_idle(ctx);
                        }
                    }
                    Msg::TermToken { count, black, dead, extra_ingested } => {
                        // A token carrying a different membership view than
                        // ours dirties this circulation (either side may be
                        // ahead) before the views merge.
                        if self.resil.as_ref().is_some_and(|r| r.live.dead != dead) {
                            self.black = true;
                        }
                        self.merge_dead(&dead, ctx.now(), ctx);
                        self.held_token = Some((count, black));
                        self.held_extra = extra_ingested;
                        if let Some(r) = self.resil.as_mut() {
                            r.held_dead = r.live.dead.clone();
                        }
                    }
                    Msg::Beat => {}
                    // Protocol messages of the other drivers never reach a
                    // steal rank.
                    _ => {}
                }
            }
        }
        self.core.note_retirements(ctx.now());
        self.maybe_advance_token(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{uniform_x_dataset, NullCtx};
    use std::sync::Arc;
    use streamline_integrate::StepLimits;
    use streamline_iosim::{DiskModel, MemoryStore};

    fn proc_with(seeds: Vec<(StreamlineId, Vec3)>, n_ranks: usize, rank: usize) -> StealProc {
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
        StealProc::new(
            rank,
            n_ranks,
            ws,
            seeds,
            MemoryBudget::unlimited(),
            true,
            1e-2,
            StealParams::default(),
            None,
        )
    }

    fn run_rounds(p: &mut StealProc, ctx: &mut NullCtx) {
        p.on_event(Event::Start, ctx);
        while let Some((_, token)) = ctx.take_wake() {
            p.on_event(Event::Wake(token), ctx);
        }
    }

    #[test]
    fn lifeline_topology_is_ring_plus_hypercube_chords() {
        // j = 0 gives the ring successor; higher j double the stride.
        assert_eq!(lifeline_neighbors(0, 8, 3), vec![1, 2, 4]);
        assert_eq!(lifeline_neighbors(6, 8, 3), vec![7, 0, 2]);
        // Wrap-around strides deduplicate and never point at self.
        assert_eq!(lifeline_neighbors(0, 2, 3), vec![1]);
        assert_eq!(lifeline_neighbors(0, 1, 4), Vec::<usize>::new());
        for r in 0..5 {
            let n = lifeline_neighbors(r, 5, 3);
            assert!(!n.contains(&r));
            assert_eq!(n[0], (r + 1) % 5, "ring edge must be first");
        }
    }

    #[test]
    fn single_rank_completes_without_messages() {
        let seeds = (0..6)
            .map(|i| (StreamlineId(i), Vec3::new(0.1, 0.08 + 0.14 * i as f64, 0.3)))
            .collect();
        let mut p = proc_with(seeds, 1, 0);
        let mut ctx = NullCtx::default();
        run_rounds(&mut p, &mut ctx);
        assert!(p.done);
        assert_eq!(p.core.finished.len(), 6);
        assert!(ctx.sent.is_empty(), "a lone rank has nobody to balance with");
        assert_eq!(p.balance_msgs, 0);
    }

    #[test]
    fn idle_rank_sweeps_its_lifelines_then_goes_quiescent() {
        // NullCtx reports n_ranks = 1, so build the proc as 1-of-4 manually.
        let mut p = proc_with(Vec::new(), 4, 1);
        let mut ctx = NullCtx::default();
        p.on_event(Event::Start, &mut ctx);
        // First probe went to the first lifeline.
        assert!(p.hunting);
        assert_eq!(ctx.sent.len(), 1);
        assert!(matches!(ctx.sent[0], (2, Msg::StealRequest, 8)));
        // A refusal advances to the next lifeline; the final refusal ends
        // the sweep and the rank is passive.
        p.on_event(Event::Message { from: 2, msg: Msg::WorkTransfer { sls: vec![] } }, &mut ctx);
        assert!(matches!(ctx.sent[1], (3, Msg::StealRequest, 8)));
        p.on_event(Event::Message { from: 3, msg: Msg::WorkTransfer { sls: vec![] } }, &mut ctx);
        assert!(!p.hunting);
        assert!(p.passive());
        assert_eq!(ctx.sent.len(), 2, "a quiescent rank stops probing");
        // Sent two probes, received two refusals: balance is back to zero.
        assert_eq!(p.msg_balance, 0);
        assert!(p.black, "basic receives must blacken the rank");
    }

    #[test]
    fn grant_keeps_at_least_one_streamline() {
        let mut p = proc_with(Vec::new(), 4, 0);
        // Park three streamlines on one block, bypassing Start.
        let block = BlockId(7);
        for i in 0..3 {
            let sl = Streamline::new_lean(StreamlineId(i), Vec3::new(0.8, 0.8, 0.8), 1e-2);
            p.core.ws.admit(&sl);
            p.parked.entry(block).or_default().push(sl);
        }
        let mut ctx = NullCtx::default();
        p.on_event(Event::Message { from: 2, msg: Msg::StealRequest }, &mut ctx);
        let (to, msg, _) = ctx.sent.last().expect("a grant must be sent");
        assert_eq!(*to, 2);
        match msg {
            Msg::WorkTransfer { sls } => {
                assert_eq!(sls.len(), 2, "batch of 8 capped at load - 1");
                assert!(sls.iter().all(|(b, _)| *b == block));
            }
            other => panic!("expected WorkTransfer, got {other:?}"),
        }
        assert_eq!(p.my_load(), 1, "the victim must keep work for itself");

        // With a single streamline left, the next request is refused.
        p.on_event(Event::Message { from: 3, msg: Msg::StealRequest }, &mut ctx);
        match &ctx.sent.last().unwrap().1 {
            Msg::WorkTransfer { sls } => assert!(sls.is_empty()),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn pingpong_detected_once_per_returning_streamline() {
        let mut p = proc_with(Vec::new(), 4, 0);
        p.core.note_arrival(StreamlineId(5), 0.1);
        assert!(p.core.pingponged().is_empty(), "first ownership is not a ping-pong");
        p.core.note_arrival(StreamlineId(5), 0.2);
        p.core.note_arrival(StreamlineId(5), 0.3);
        assert_eq!(p.core.pingponged().len(), 1);
        assert_eq!(p.core.pingpong_times(), &[0.2], "counted at first return only");
        p.core.note_arrival(StreamlineId(9), 0.4);
        assert_eq!(p.core.pingponged().len(), 1);
    }

    #[test]
    fn transfer_restarts_a_quiescent_rank() {
        let mut p = proc_with(Vec::new(), 4, 1);
        let mut ctx = NullCtx::default();
        p.on_event(Event::Start, &mut ctx);
        p.on_event(Event::Message { from: 2, msg: Msg::WorkTransfer { sls: vec![] } }, &mut ctx);
        p.on_event(Event::Message { from: 3, msg: Msg::WorkTransfer { sls: vec![] } }, &mut ctx);
        assert!(p.passive());
        ctx.wakes.clear();
        // A real transfer arrives: the rank admits the work and wakes.
        let sl = Streamline::new_lean(StreamlineId(0), Vec3::new(0.1, 0.2, 0.2), 1e-2);
        let block = BlockId(0);
        p.on_event(
            Event::Message { from: 2, msg: Msg::WorkTransfer { sls: vec![(block, sl)] } },
            &mut ctx,
        );
        assert_eq!(p.my_load(), 1);
        assert!(!p.passive());
        // Pump to completion: the streamline integrates and terminates.
        while let Some((_, token)) = ctx.take_wake() {
            p.on_event(Event::Wake(token), &mut ctx);
        }
        assert_eq!(p.core.finished.len(), 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let seeds: Vec<(StreamlineId, Vec3)> =
            (0..4).map(|i| (StreamlineId(i), Vec3::new(0.1, 0.1 + 0.2 * i as f64, 0.4))).collect();
        let mut p = proc_with(seeds.clone(), 4, 0);
        let mut ctx = NullCtx::default();
        p.on_event(Event::Start, &mut ctx);
        if let Some((_, token)) = ctx.take_wake() {
            p.on_event(Event::Wake(token), &mut ctx);
        }
        p.core.note_arrival(StreamlineId(0), 0.5);
        let snap = p.snapshot();
        let mut q = proc_with(seeds, 4, 0);
        q.restore(&snap).expect("store has every block");
        assert_eq!(q.snapshot(), snap, "restore must reproduce the cut");
    }
}
