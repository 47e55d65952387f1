//! The serving engine: N replicas behind a block→replica owner lookup.
//!
//! A [`Replica`] holds a block cache, per-block circuit breakers, per-block
//! queues of parked streamlines, admission seats, worker threads and as
//! many I/O threads. [`crate::Service`] runs one replica with
//! [`ServiceConfig::workers`] workers; the cluster front runs one worker
//! per replica and adds failure detection, hot-set upkeep and bootstrap on
//! top of the same engine.
//!
//! # Life of a request
//!
//! 1. [`Engine::submit`] locates every seed, looks up the replica owning its
//!    block on the [`Ring`], and reserves one admission seat per seed on
//!    that replica. Seeds that terminate at once (outside the domain, or no
//!    live owner) take their seat on the request's *home* replica, the
//!    owner of its first parked seed. Any replica over capacity rejects the
//!    whole request with [`SubmitError::Overloaded`], immediately and
//!    without enqueuing anything. Ids follow seed order, exactly like the
//!    single-shot driver.
//! 2. Work parked on a block that is neither resident nor loading queues
//!    that block for the replica's I/O threads, which start loads in the
//!    order work arrived on the blocks, one load per thread at a time. A
//!    block with parked work is pinned: eviction never drops it. A
//!    replica's workers only ever claim the *entire queue* of a *resident*
//!    block — the one with the most parked items, ties toward the lowest
//!    block id — and advance every parked streamline through it, so no
//!    worker waits on block I/O. That is the paper's §4.2 Load On Demand
//!    rule: load a block only for work that cannot proceed on the blocks
//!    in memory.
//! 3. A streamline that exits into another block is parked with that
//!    block's owner: locally when this replica owns it (always, with one
//!    replica), otherwise as a hand-off — the paper's rank hand-off, charged
//!    the curve's wire bytes. Hot blocks may instead stay on any of their
//!    first `replication` ring successors.
//! 4. A seed's seat stays on its home replica until the seed resolves, so
//!    conservation is exact per replica. When the last seed of a request
//!    resolves, the [`Response`] is sent and the client's [`Ticket`]
//!    unblocks.
//!
//! Workers and I/O threads exit once the engine is shutting down and no
//! seat is held on any replica: a hand-off can land anywhere until the last
//! seed resolves.
//!
//! Advancement is [`advance_batch_in_block`], the batch drivers' kernel, so
//! served streamlines are bit-identical to single-shot runs with the same
//! [`StepLimits`] — on any replica, at any batch width.

use crate::breaker::{Admit, BlockBreakers, RetryPolicy};
use crate::cache::{Begin, Follower, Leader, SharedBlockCache};
use crate::metrics::LatencyHistogram;
use crate::ring::Ring;
use crate::service::{Outcome, Request, Response, ServiceConfig, SubmitError, Ticket};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use streamline_core::advance::advance_batch_in_block;
use streamline_core::workspace::BlockExit;
use streamline_field::block::{Block, BlockId};
use streamline_field::decomp::BlockDecomposition;
use streamline_integrate::{StepLimits, Streamline, StreamlineBatch, StreamlineId, Termination};
use streamline_iosim::BlockStore;
use streamline_obs::{Counter, MetricsRegistry, Phase, WallTimeline};

/// The engine's counters. Every handle defaults to a standalone one; a
/// front registers the ones it exports under its own metric names.
#[derive(Default)]
pub struct Counters {
    pub submitted: Counter,
    pub completed: Counter,
    pub rejected: Counter,
    pub deadline_expired: Counter,
    pub partial: Counter,
    pub load_retries: Counter,
    pub load_failures: Counter,
    pub streamlines_completed: Counter,
    pub streamlines_unavailable: Counter,
    pub total_steps: Counter,
    pub sampler_hits: Counter,
    pub sampler_misses: Counter,
    pub batched_lanes: Counter,
    pub worker_panics: Counter,
    pub requests_gone: Counter,
    pub handoffs: Counter,
    pub handoff_bytes: Counter,
    pub redispatches: Counter,
    pub redispatch_bytes: Counter,
    pub replica_deaths: Counter,
    pub hot_local_hits: Counter,
    /// Submission-to-answer latency of every answered request.
    pub latency: LatencyHistogram,
}

/// Per-replica counters, standalone by default like [`Counters`].
#[derive(Default)]
pub struct ReplicaCounters {
    /// Streamlines resolved while holding a seat on this replica.
    pub streamlines_completed: Counter,
    /// Streamlines this replica handed to another.
    pub handoffs_out: Counter,
    /// Latency of the requests whose home is this replica.
    pub latency: LatencyHistogram,
}

/// How blocks map to replicas.
pub struct Routing {
    pub ring: Ring,
    /// Replicas allowed to keep a hot block: its owner plus
    /// `replication - 1` ring successors. 1 disables replication.
    pub replication: usize,
    /// How many of the most-accessed blocks count as hot.
    pub hot_k: usize,
}

impl Routing {
    /// One replica owning every block.
    pub fn single() -> Routing {
        Routing { ring: Ring::new(1, 1), replication: 1, hot_k: 0 }
    }
}

/// One streamline parked on a replica, plus its parent request and the
/// replica holding its admission seat (seats stay home even when the
/// trajectory is handed off, so conservation is exact per replica).
struct WorkItem {
    sl: Streamline,
    req: Arc<RequestState>,
    home: usize,
}

/// Shared, mostly-atomic state of one in-flight request.
struct RequestState {
    id: u64,
    limits: StepLimits,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Replica charged with this request's latency sample.
    home: usize,
    /// Set once the deadline is observed expired; later items short-circuit.
    expired: AtomicBool,
    /// Set when a worker panic (or a replica kill) destroyed part of this
    /// request's state. Completion then resolves the ticket as
    /// [`crate::ServiceGone`] (the sender is dropped without an answer)
    /// instead of sending a partial lie.
    poisoned: AtomicBool,
    /// Seeds not yet resolved; the item that drops this to zero completes
    /// the request.
    remaining: AtomicUsize,
    /// Seeds abandoned because the deadline passed.
    dropped: AtomicUsize,
    /// Seeds terminated `BlockUnavailable`.
    unavailable: AtomicUsize,
    finished: Mutex<Vec<Streamline>>,
    tx: Sender<Response>,
}

impl RequestState {
    fn new(id: u64, req: &Request, home: usize, tx: Sender<Response>) -> Self {
        RequestState {
            id,
            limits: req.limits,
            deadline: req.deadline,
            submitted: Instant::now(),
            home,
            expired: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            remaining: AtomicUsize::new(req.seeds.len()),
            dropped: AtomicUsize::new(0),
            unavailable: AtomicUsize::new(0),
            finished: Mutex::new(Vec::with_capacity(req.seeds.len())),
            tx,
        }
    }
}

/// A replica's batch former.
#[derive(Default)]
struct Sched {
    queues: BTreeMap<BlockId, Vec<WorkItem>>,
    /// The I/O threads' FIFO: blocks whose parked work waits for a load, in
    /// the order that work arrived. Entries go stale when the block loads
    /// or its work leaves; the I/O threads skip those.
    cold: VecDeque<BlockId>,
    /// Set when the replica is declared dead; nothing may park here
    /// afterwards (parkers re-route to the block's new owner).
    dead: bool,
}

/// One replica: cache, breakers, per-block queues, admission seats.
pub struct Replica {
    pub cache: SharedBlockCache,
    pub breakers: BlockBreakers,
    pub counters: ReplicaCounters,
    sched: Mutex<Sched>,
    /// Signalled when work arrives, when a block loads, on a kill, and on
    /// the final drain.
    work_ready: Condvar,
    /// Signalled when a block joins the I/O threads' FIFO, on a kill, and
    /// on the final drain.
    io_ready: Condvar,
    /// Seeds admitted with their seat here and not yet resolved.
    seats: AtomicUsize,
    /// Cleared once, when the replica is declared dead.
    alive: AtomicBool,
    /// When [`Engine::kill`] stopped this replica's workers.
    killed_at: OnceLock<Instant>,
}

impl Replica {
    /// Seeds admitted with their seat here and not yet resolved.
    pub fn queue_depth(&self) -> usize {
        self.seats.load(Ordering::SeqCst)
    }

    /// `false` once the replica has been declared dead.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// When the replica was killed, if it was.
    pub fn killed_at(&self) -> Option<Instant> {
        self.killed_at.get().copied()
    }
}

/// The shared state of a running engine. See the [module docs](self).
pub struct Engine {
    pub decomp: BlockDecomposition,
    pub store: Arc<dyn BlockStore>,
    pub routing: Routing,
    pub replicas: Vec<Replica>,
    /// Worker threads per replica.
    pub workers: usize,
    /// Admission bound per replica.
    pub queue_capacity: usize,
    pub registry: Arc<MetricsRegistry>,
    pub counters: Counters,
    pub started: Instant,
    /// Wall-clock phase timeline, one rank per worker thread, present only
    /// when [`ServiceConfig::trace_bucket`] was set.
    pub trace: Option<WallTimeline>,
    /// Batch width for the advection kernel (≥ 1).
    pub(crate) batch: usize,
    retry: RetryPolicy,
    shutting_down: AtomicBool,
    next_request_id: AtomicU64,
    /// Per-block access counts feeding the hot set and ranking eviction.
    access: Arc<[AtomicU64]>,
    /// Per-block "currently hot" flags, set by [`Engine::refresh_hot_set`].
    hot: Vec<AtomicBool>,
    /// Hand-off wall times (secs since start), collected while tracing.
    handoff_times: Mutex<Vec<f64>>,
    /// Declared replica deaths as `(replica, secs since start)`.
    deaths: Mutex<Vec<(usize, f64)>>,
    /// Test-only fault injection (see [`ServiceConfig::panic_on_block`]).
    panic_on_block: Option<BlockId>,
    panic_fired: AtomicBool,
}

impl Engine {
    /// Build an engine of `routing.ring.replicas()` replicas, each with
    /// `cfg`'s cache, breakers, admission bound and worker count. No thread
    /// runs until [`EngineHandle::start`].
    pub fn new(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cfg: &ServiceConfig,
        routing: Routing,
        registry: Arc<MetricsRegistry>,
        counters: Counters,
        replica_counters: impl FnMut(usize) -> ReplicaCounters,
    ) -> Engine {
        let n_blocks = decomp.num_blocks();
        let access: Arc<[AtomicU64]> = (0..n_blocks).map(|_| AtomicU64::new(0)).collect();
        let replicas: Vec<Replica> = (0..routing.ring.replicas())
            .map(replica_counters)
            .map(|counters| Replica {
                cache: SharedBlockCache::new(cfg.cache_blocks)
                    .with_access_counts(Arc::clone(&access)),
                breakers: BlockBreakers::new(cfg.breaker),
                counters,
                sched: Mutex::new(Sched::default()),
                work_ready: Condvar::new(),
                io_ready: Condvar::new(),
                seats: AtomicUsize::new(0),
                alive: AtomicBool::new(true),
                killed_at: OnceLock::new(),
            })
            .collect();
        let workers = cfg.workers.max(1);
        Engine {
            decomp,
            store,
            trace: cfg.trace_bucket.map(|w| WallTimeline::new(replicas.len() * workers, w)),
            replicas,
            routing,
            workers,
            queue_capacity: cfg.queue_capacity.max(1),
            registry,
            counters,
            started: Instant::now(),
            batch: cfg.batch.max(1),
            retry: cfg.retry,
            shutting_down: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
            access,
            hot: (0..n_blocks).map(|_| AtomicBool::new(false)).collect(),
            handoff_times: Mutex::new(Vec::new()),
            deaths: Mutex::new(Vec::new()),
            panic_on_block: cfg.panic_on_block,
            panic_fired: AtomicBool::new(false),
        }
    }

    /// Submit a request. On success every seed holds a seat and a
    /// [`Ticket`] is returned at once; rejection leaves no trace.
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        let n = req.seeds.len();
        if n == 0 {
            return Err(SubmitError::Empty);
        }
        // Route every seed before touching shared state: `Ok` parks on the
        // block's owner, `Err` terminates here on the client thread.
        let alive = self.alive_mask();
        let routes: Vec<Result<(BlockId, usize), Termination>> = req
            .seeds
            .iter()
            .map(|&p| {
                let block = self.decomp.locate(p).ok_or(Termination::ExitedDomain)?;
                let owner =
                    self.routing.ring.owner(block, &alive).ok_or(Termination::BlockUnavailable)?;
                Ok((block, owner))
            })
            .collect();
        let home = routes.iter().find_map(|r| r.ok()).map_or(0, |(_, r)| r);
        let mut want = vec![0usize; self.replicas.len()];
        for route in &routes {
            want[route.map_or(home, |(_, r)| r)] += 1;
        }

        // Optimistic admission: reserve seats replica by replica, roll
        // everything back on the first refusal.
        for (r, &k) in want.iter().enumerate().filter(|&(_, &k)| k > 0) {
            let prev = self.replicas[r].seats.fetch_add(k, Ordering::SeqCst);
            if prev + k > self.queue_capacity {
                self.release_all(&want[..=r]);
                self.counters.rejected.inc();
                return Err(SubmitError::Overloaded {
                    queue_depth: prev,
                    capacity: self.queue_capacity,
                    requested: n,
                });
            }
        }
        // Workers exit only when shutting down with no seat held anywhere,
        // so once these seats are visible no worker exits under us; if the
        // drain began first, roll back untouched.
        if self.shutting_down.load(Ordering::SeqCst) {
            self.release_all(&want);
            return Err(SubmitError::ShuttingDown);
        }

        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        let state = Arc::new(RequestState::new(id, &req, home, tx));
        let mut parked: BTreeMap<(usize, BlockId), Vec<WorkItem>> = BTreeMap::new();
        let mut terminated = Vec::new();
        for (i, (&p, route)) in req.seeds.iter().zip(routes).enumerate() {
            let sl = Streamline::new_lean(StreamlineId(i as u32), p, req.limits.h0);
            match route {
                Ok((block, r)) => parked.entry((r, block)).or_default().push(WorkItem {
                    sl,
                    req: Arc::clone(&state),
                    home: r,
                }),
                Err(why) => terminated.push((WorkItem { sl, req: Arc::clone(&state), home }, why)),
            }
        }
        self.counters.submitted.inc();
        for ((r, block), items) in parked {
            self.park(r, block, items);
        }
        // Possibly completing the whole request right here.
        for (item, why) in terminated {
            self.terminate(item, why);
        }
        Ok(Ticket { request_id: id, rx })
    }

    /// Stop admitting; workers exit once every seat is released.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Shutting down, and no seed holds a seat on any replica.
    pub fn drained(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
            && self.replicas.iter().all(|r| r.seats.load(Ordering::SeqCst) == 0)
    }

    /// Fail-stop injection: replica `r`'s workers stop at their next safe
    /// point; batches they had claimed resolve their requests as
    /// [`crate::ServiceGone`]. Work parked there waits for
    /// [`Engine::declare_dead`]. Returns `false` if `r` was already killed
    /// or is out of range.
    pub fn kill(&self, r: usize) -> bool {
        let Some(rep) = self.replicas.get(r) else { return false };
        if rep.killed_at.set(Instant::now()).is_err() {
            return false;
        }
        let _st = rep.sched.lock();
        rep.work_ready.notify_all();
        rep.io_ready.notify_all();
        true
    }

    /// Declare replica `r` dead, once: routing skips it from now on, its
    /// queues are sealed, and every streamline parked there is re-dispatched
    /// intact to its block's new owner — recovery traffic, counted apart
    /// from steady-state hand-offs.
    pub fn declare_dead(&self, r: usize) {
        let rep = &self.replicas[r];
        if !rep.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        self.counters.replica_deaths.inc();
        self.deaths.lock().push((r, self.secs()));
        // Seal under the lock so every later parker sees `dead` and
        // re-routes — no hand-off can slip in after the evacuation.
        let evacuated = {
            let mut st = rep.sched.lock();
            st.dead = true;
            rep.work_ready.notify_all();
            rep.io_ready.notify_all();
            st.cold.clear();
            let queues = std::mem::take(&mut st.queues);
            for &block in queues.keys() {
                rep.cache.unpin(block);
            }
            queues
        };
        let comm_start = self.trace.as_ref().map(|_| Instant::now());
        for (block, items) in evacuated {
            self.counters.redispatches.add(items.len() as u64);
            self.counters.redispatch_bytes.add(wire_bytes(&items));
            self.park(r, block, items);
        }
        if let (Some(tl), Some(t0)) = (self.trace.as_ref(), comm_start) {
            tl.record(r * self.workers, Phase::Comm, t0, t0.elapsed());
        }
    }

    /// Recompute the hot set: the `hot_k` most-accessed blocks.
    pub fn refresh_hot_set(&self) {
        let mut counts: Vec<(u64, usize)> = self
            .access
            .iter()
            .enumerate()
            .map(|(b, a)| (a.load(Ordering::Relaxed), b))
            .filter(|&(c, _)| c > 0)
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.truncate(self.routing.hot_k);
        let mut hot = vec![false; self.hot.len()];
        for &(_, b) in &counts {
            hot[b] = true;
        }
        for (flag, h) in self.hot.iter().zip(hot) {
            flag.store(h, Ordering::Relaxed);
        }
    }

    /// Blocks currently in the hot set.
    pub fn hot_blocks(&self) -> usize {
        self.hot.iter().filter(|h| h.load(Ordering::Relaxed)).count()
    }

    /// Which replicas are alive, indexed by replica.
    pub fn alive_mask(&self) -> Vec<bool> {
        self.replicas.iter().map(Replica::is_alive).collect()
    }

    /// Hand-off times and declared deaths (secs since start), the
    /// schedule-trace series. Hand-offs are collected only while tracing.
    pub fn schedule_marks(&self) -> (Vec<f64>, Vec<(usize, f64)>) {
        (self.handoff_times.lock().clone(), self.deaths.lock().clone())
    }

    fn secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn wake_all(&self) {
        for rep in &self.replicas {
            let _st = rep.sched.lock();
            rep.work_ready.notify_all();
            rep.io_ready.notify_all();
        }
    }

    /// Release `k` seats on `replica`; the release that completes a drain
    /// wakes every worker so it can exit.
    fn release(&self, replica: usize, k: usize) {
        self.replicas[replica].seats.fetch_sub(k, Ordering::SeqCst);
        if self.drained() {
            self.wake_all();
        }
    }

    fn release_all(&self, per_replica: &[usize]) {
        for (r, &k) in per_replica.iter().enumerate().filter(|&(_, &k)| k > 0) {
            self.release(r, k);
        }
    }

    /// Park `items` in `target`'s queue for `block`, pinning the block in
    /// the cache, and queue it for the I/O threads if it is not resident. If
    /// `target` is dead, re-route to the block's current owner; with no
    /// live owner at all the items terminate `BlockUnavailable` — typed,
    /// never a hang.
    fn park(&self, mut target: usize, block: BlockId, mut items: Vec<WorkItem>) {
        loop {
            let rep = &self.replicas[target];
            let mut st = rep.sched.lock();
            if !st.dead {
                let queue = st.queues.entry(block).or_default();
                let first = queue.is_empty();
                queue.append(&mut items);
                // A block a warm-start is loading goes on the FIFO too: an
                // I/O thread then waits for that load and wakes the workers
                // once it lands.
                if first && !rep.cache.pin(block) {
                    st.cold.push_back(block);
                    rep.io_ready.notify_one();
                } else {
                    rep.work_ready.notify_one();
                }
                return;
            }
            drop(st);
            match self.routing.ring.owner(block, &self.alive_mask()) {
                Some(next) if next != target => target = next,
                _ => {
                    for item in items {
                        self.terminate(item, Termination::BlockUnavailable);
                    }
                    return;
                }
            }
        }
    }

    /// Re-park streamlines that left `replica`'s block into `next`: here
    /// when this replica owns `next` (or keeps it as a hot-block replica),
    /// otherwise with the owner as a hand-off. The engine's one routing
    /// decision; with one replica it always keeps the work local.
    fn route(&self, replica: usize, next: BlockId, items: Vec<WorkItem>, alive: &[bool]) {
        let Routing { ring, replication, .. } = &self.routing;
        let owner = ring.owner(next, alive);
        let is_hot = || self.hot.get(next.0 as usize).is_some_and(|h| h.load(Ordering::Relaxed));
        let keep_local = alive[replica]
            && match owner {
                Some(o) if o == replica => true,
                Some(_) if *replication > 1 && is_hot() => {
                    ring.successors(next, alive, *replication).contains(&replica)
                }
                _ => false,
            };
        match owner {
            _ if keep_local => {
                if owner != Some(replica) {
                    self.counters.hot_local_hits.add(items.len() as u64);
                }
                self.park(replica, next, items);
            }
            Some(o) => {
                let n = items.len() as u64;
                self.counters.handoffs.add(n);
                self.replicas[replica].counters.handoffs_out.add(n);
                self.counters.handoff_bytes.add(wire_bytes(&items));
                if self.trace.is_some() {
                    let t = self.secs();
                    self.handoff_times.lock().extend(std::iter::repeat_n(t, items.len()));
                }
                self.park(o, next, items);
            }
            None => {
                for item in items {
                    self.terminate(item, Termination::BlockUnavailable);
                }
            }
        }
    }

    /// Terminate one seed's streamline with `why` and resolve it.
    fn terminate(&self, mut item: WorkItem, why: Termination) {
        item.sl.terminate(why);
        if why == Termination::BlockUnavailable {
            item.req.unavailable.fetch_add(1, Ordering::Relaxed);
            self.counters.streamlines_unavailable.inc();
        }
        self.finish_item(item.home, &item.req, Some(item.sl));
    }

    /// Resolve one seed: record the streamline (if it terminated rather
    /// than being dropped), release its seat on `home`, and complete the
    /// request if it was the last one.
    fn finish_item(&self, home: usize, req: &Arc<RequestState>, sl: Option<Streamline>) {
        match sl {
            Some(sl) => {
                self.counters.streamlines_completed.inc();
                self.replicas[home].counters.streamlines_completed.inc();
                req.finished.lock().push(sl);
            }
            None => {
                req.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.release(home, 1);
        if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete_request(req);
        }
    }

    /// Resolve one seed whose streamline was destroyed (worker panic or
    /// replica kill): poison the request so its completion resolves the
    /// ticket as [`crate::ServiceGone`], release the seat, and complete if
    /// last. Every admitted seed still releases its seat exactly once.
    fn abandon_item(&self, home: usize, req: &Arc<RequestState>) {
        req.poisoned.store(true, Ordering::Release);
        self.release(home, 1);
        if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete_request(req);
        }
    }

    fn complete_request(&self, req: &Arc<RequestState>) {
        if req.poisoned.load(Ordering::Acquire) {
            // Part of this request's state was destroyed; there is no
            // honest answer to send. Dropping the sender (with the last
            // `Arc<RequestState>`) resolves the ticket as the typed
            // `ServiceGone` — never a hang, never a partial lie.
            self.counters.requests_gone.inc();
            return;
        }
        let latency = req.submitted.elapsed();
        let dropped = req.dropped.load(Ordering::Relaxed);
        let unavailable = req.unavailable.load(Ordering::Relaxed);
        let outcome = if dropped > 0 || req.expired.load(Ordering::Relaxed) {
            self.counters.deadline_expired.inc();
            Outcome::DeadlineExceeded { dropped }
        } else if unavailable > 0 {
            self.counters.partial.inc();
            Outcome::Partial { unavailable }
        } else {
            Outcome::Completed
        };
        let mut streamlines = std::mem::take(&mut *req.finished.lock());
        streamlines.sort_by_key(|sl| sl.id);
        self.counters.latency.record(latency);
        self.replicas[req.home].counters.latency.record(latency);
        self.counters.completed.inc();
        // The client may have dropped its ticket; that's fine.
        let _ = req.tx.send(Response { request_id: req.id, outcome, streamlines, latency });
    }

    /// Claim the fullest queue of `replica` whose block is resident (ties
    /// toward the lowest block id), with the block itself; work on cold
    /// blocks waits for the I/O threads. Returns `None` once the replica is
    /// killed, or when the engine is drained.
    fn claim_batch(&self, replica: usize) -> Option<(BlockId, Arc<Block>, Vec<WorkItem>)> {
        let rep = &self.replicas[replica];
        let mut st = rep.sched.lock();
        loop {
            if rep.killed_at.get().is_some() {
                return None;
            }
            if let Some(block_id) = st
                .queues
                .iter()
                .filter(|(&id, _)| rep.cache.contains(id))
                .min_by_key(|(id, items)| (std::cmp::Reverse(items.len()), **id))
                .map(|(id, _)| *id)
            {
                let items = st.queues.remove(&block_id).expect("queue just observed");
                let block = rep.cache.claim(block_id).expect("a pinned block stays resident");
                rep.cache.unpin(block_id);
                return Some((block_id, block, items));
            }
            if self.drained() {
                return None;
            }
            rep.work_ready.wait(&mut st);
        }
    }

    /// Test-only fault injection: panic the first batch claiming the
    /// configured block. Fires once, so recovery — not the injection —
    /// dominates everything after.
    fn maybe_inject_panic(&self, block_id: BlockId) {
        if self.panic_on_block == Some(block_id) && !self.panic_fired.swap(true, Ordering::AcqRel) {
            panic!("injected worker panic on {block_id:?}");
        }
    }

    fn worker_loop(&self, replica: usize, rank: usize) {
        // One reusable batch-kernel scratch per worker: the SoA arrays are
        // allocated once and recycled across every batch this worker drains.
        let mut scratch = StreamlineBatch::new();
        loop {
            // Time spent inside claim_batch is overwhelmingly condvar
            // waiting: the worker is starved for parked work — the serving
            // analogue of the paper's §8 processor starvation.
            let wait_start = self.trace.as_ref().map(|_| Instant::now());
            let claimed = self.claim_batch(replica);
            if let (Some(tl), Some(ws)) = (self.trace.as_ref(), wait_start) {
                tl.record(rank, Phase::Idle, ws, ws.elapsed());
            }
            let Some((block_id, block, items)) = claimed else { break };
            self.process_batch(replica, rank, block_id, &block, items, &mut scratch);
        }
    }

    /// One of the replica's I/O threads: load the blocks parked work waits
    /// on, one at a time, taking them in the order the work arrived. Exits
    /// once the replica is killed or the engine is drained.
    fn io_loop(&self, replica: usize) {
        let rep = &self.replicas[replica];
        loop {
            let task = {
                let mut st = rep.sched.lock();
                loop {
                    if rep.killed_at.get().is_some() || self.drained() {
                        return;
                    }
                    match self.next_load(rep, &mut st) {
                        Some(task) => break task,
                        None => rep.io_ready.wait(&mut st),
                    }
                }
            };
            match task {
                IoTask::Load(block_id, leader) => self.load_block(replica, block_id, leader),
                IoTask::Follow(block_id, follower) => self.follow_load(replica, block_id, follower),
                IoTask::Full(seen) => rep.cache.wait_for_room(seen),
            }
        }
    }

    /// An I/O thread's next task: the first block on the FIFO that still
    /// has parked work and is not resident. `None` when there is none.
    /// Never blocks; when no slot is free the block stays first in line.
    fn next_load<'a>(&self, rep: &'a Replica, st: &mut Sched) -> Option<IoTask<'a>> {
        while let Some(&block_id) = st.cold.front() {
            let task = if !st.queues.contains_key(&block_id) {
                None
            } else {
                match rep.cache.reserve(block_id) {
                    Begin::Hit(_) => {
                        rep.work_ready.notify_one();
                        None
                    }
                    Begin::Follow(follower) => Some(IoTask::Follow(block_id, follower)),
                    Begin::Lead(leader) => Some(IoTask::Load(block_id, leader)),
                    Begin::Full(seen) => return Some(IoTask::Full(seen)),
                }
            };
            st.cold.pop_front();
            if task.is_some() {
                return task;
            }
        }
        None
    }

    /// Load `block_id` into its reserved slot for the work parked on it:
    /// breaker admission, then the retry budget. On success the workers
    /// are woken to claim it. Otherwise the parked work takes the degraded
    /// path: it terminates `BlockUnavailable` — typed, with the curve
    /// computed so far — instead of wedging its requests, and
    /// already-expired items are dropped as usual.
    fn load_block(&self, replica: usize, block_id: BlockId, mut leader: Leader<'_>) {
        let rep = &self.replicas[replica];
        let loaded = match rep.breakers.admit(block_id) {
            Admit::FastFail => false,
            admit => {
                let ok = self.load_with_retry(&mut leader, block_id, admit == Admit::Probe);
                if ok {
                    rep.breakers.on_success(block_id);
                } else {
                    self.counters.load_failures.inc();
                    rep.breakers.on_failure(block_id);
                }
                ok
            }
        };
        // A failed leader releases its slot.
        drop(leader);
        let mut st = rep.sched.lock();
        if loaded {
            rep.work_ready.notify_one();
            return;
        }
        // On a killed replica the parked work waits for its re-dispatch.
        if rep.killed_at.get().is_some() {
            return;
        }
        let Some(items) = st.queues.remove(&block_id) else { return };
        rep.cache.unpin(block_id);
        drop(st);
        for item in items {
            if item.req.expired.load(Ordering::Relaxed) {
                self.finish_item(item.home, &item.req, None);
            } else {
                self.terminate(item, Termination::BlockUnavailable);
            }
        }
    }

    /// Wait for another caller's load of `block_id` (a warm-start racing
    /// traffic), then wake a worker to claim it; if that load failed, put
    /// the block back first in line for an I/O thread.
    fn follow_load(&self, replica: usize, block_id: BlockId, follower: Follower<'_>) {
        let rep = &self.replicas[replica];
        let loaded = follower.wait().is_some();
        let mut st = rep.sched.lock();
        if loaded {
            rep.work_ready.notify_one();
        } else if st.queues.contains_key(&block_id) {
            st.cold.push_front(block_id);
            rep.io_ready.notify_one();
        }
    }

    /// Attempt `leader`'s load up to the configured retry budget (one
    /// attempt only for a half-open probe). Each retry sleeps the
    /// deterministic backoff schedule salted by the block id.
    fn load_with_retry(&self, leader: &mut Leader<'_>, block_id: BlockId, probe: bool) -> bool {
        let attempts = if probe { 1 } else { self.retry.max_attempts.max(1) };
        for attempt in 1..=attempts {
            match leader.attempt(self.store.as_ref()) {
                Ok(_) => return true,
                Err(_) if attempt < attempts => {
                    self.counters.load_retries.inc();
                    std::thread::sleep(self.retry.backoff(attempt, u64::from(block_id.0)));
                }
                Err(_) => {}
            }
        }
        false
    }

    fn process_batch(
        &self,
        replica: usize,
        rank: usize,
        block_id: BlockId,
        block: &Block,
        items: Vec<WorkItem>,
        scratch: &mut StreamlineBatch,
    ) {
        let rep = &self.replicas[replica];
        let trace = self.trace.as_ref();
        if let Some(a) = self.access.get(block_id.0 as usize) {
            a.fetch_add(items.len() as u64, Ordering::Relaxed);
        }
        // A kill between claim and processing is the fail-stop window: the
        // claimed items were checked out by a worker that died with them.
        if rep.killed_at.get().is_some() {
            for item in items {
                self.abandon_item(item.home, &item.req);
            }
            return;
        }

        let mut finished: Vec<(usize, Arc<RequestState>, Option<Streamline>)> = Vec::new();
        let compute_start = trace.map(|_| Instant::now());
        let now = Instant::now();
        // Deadline check first: expired requests stop consuming compute
        // before any batch forms.
        let mut live: Vec<WorkItem> = Vec::with_capacity(items.len());
        for item in items {
            let expired = item.req.expired.load(Ordering::Relaxed)
                || item.req.deadline.is_some_and(|d| {
                    let hit = now >= d;
                    if hit {
                        item.req.expired.store(true, Ordering::Relaxed);
                    }
                    hit
                });
            if expired {
                finished.push((item.home, item.req, None));
            } else {
                live.push(item);
            }
        }
        // Batched advance: runs of items sharing the same limits coalesce
        // into batch-kernel calls chunked to the configured width.
        // Per-streamline results are bit-identical to the scalar path at any
        // width, on any replica. The whole phase runs under `catch_unwind`:
        // a panicking kernel (or the test injection hook) must not take the
        // worker thread — and every admission seat this batch holds — down
        // with it.
        let tags: Vec<(usize, Arc<RequestState>)> =
            live.iter().map(|it| (it.home, Arc::clone(&it.req))).collect();
        let advanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.maybe_inject_panic(block_id);
            let mut cmoved: BTreeMap<BlockId, Vec<WorkItem>> = BTreeMap::new();
            let mut cdone: Vec<(usize, Arc<RequestState>, Option<Streamline>)> = Vec::new();
            let mut rest = live;
            while !rest.is_empty() {
                let limits = rest[0].req.limits;
                let run_len = rest.iter().take_while(|it| it.req.limits == limits).count();
                let tail = rest.split_off(run_len);
                let (mut sls, tags): (Vec<Streamline>, Vec<(usize, Arc<RequestState>)>) =
                    rest.into_iter().map(|it| (it.sl, (it.home, it.req))).unzip();
                let mut exits = Vec::with_capacity(sls.len());
                for chunk in sls.chunks_mut(self.batch) {
                    let (ex, stats) =
                        advance_batch_in_block(chunk, block, &self.decomp, &limits, scratch);
                    self.counters.total_steps.add(stats.steps);
                    self.counters.sampler_hits.add(stats.sampler_hits);
                    self.counters.sampler_misses.add(stats.sampler_misses);
                    self.counters.batched_lanes.add(stats.batched_lanes);
                    exits.extend(ex);
                }
                for ((sl, (home, req)), exit) in sls.into_iter().zip(tags).zip(exits) {
                    match exit {
                        BlockExit::MovedTo(next) => {
                            cmoved.entry(next).or_default().push(WorkItem { sl, req, home })
                        }
                        BlockExit::Done(_) => cdone.push((home, req, Some(sl))),
                    }
                }
                rest = tail;
            }
            (cmoved, cdone)
        }));
        if let (Some(tl), Some(t0)) = (trace, compute_start) {
            tl.record(rank, Phase::Compute, t0, t0.elapsed());
        }
        let Ok((moved, mut cdone)) = advanced else {
            // Contain the panic: the unwind destroyed this batch's live
            // streamlines, so resolve the expired items collected before the
            // advance as usual and abandon the rest — their requests resolve
            // `ServiceGone`, their seats are released, and the worker goes
            // back to claiming work.
            self.counters.worker_panics.inc();
            *scratch = StreamlineBatch::new();
            for (home, req, sl) in finished {
                self.finish_item(home, &req, sl);
            }
            for (home, req) in tags {
                self.abandon_item(home, &req);
            }
            return;
        };
        finished.append(&mut cdone);

        // Routing moved streamlines and completing responses is this
        // design's communication: handing work and results to other parties.
        let comm_start = trace.map(|_| Instant::now());
        let alive = self.alive_mask();
        for (next, batch) in moved {
            self.route(replica, next, batch, &alive);
        }
        for (home, req, sl) in finished {
            self.finish_item(home, &req, sl);
        }
        if let (Some(tl), Some(t0)) = (trace, comm_start) {
            tl.record(rank, Phase::Comm, t0, t0.elapsed());
        }
    }
}

/// What one of a replica's I/O threads does next.
enum IoTask<'a> {
    /// Load this block into the slot reserved for it.
    Load(BlockId, Leader<'a>),
    /// Wait for another caller's load of this block, then wake a worker.
    Follow(BlockId, Follower<'a>),
    /// Every slot is pinned or loading: wait for one to free.
    Full(u64),
}

/// Modelled wire bytes of moving `items` between replicas: each curve
/// travels geometry and all, exactly what `Msg::Handoff` charges the batch
/// drivers (§8). The "network" is a queue move; the cost model is the
/// paper's.
fn wire_bytes(items: &[WorkItem]) -> u64 {
    items.iter().map(|it| it.sl.comm_bytes_full() as u64).sum()
}

/// A running engine: the shared state plus every thread serving it.
/// Dereferences to the [`Engine`]; dropping it drains like
/// [`EngineHandle::shutdown`].
pub struct EngineHandle {
    engine: Arc<Engine>,
    threads: Vec<JoinHandle<()>>,
}

impl EngineHandle {
    /// Spawn `engine.workers` worker threads and as many I/O threads per
    /// replica. Each worker used to load its own blocks; its I/O thread
    /// keeps those loads overlapping without a worker waiting on one.
    pub fn start(engine: Engine) -> EngineHandle {
        let mut handle = EngineHandle { engine: Arc::new(engine), threads: Vec::new() };
        for r in 0..handle.replicas.len() {
            for w in 0..handle.workers {
                let rank = r * handle.workers + w;
                handle.spawn(&format!("serve-r{r}-w{w}"), move |e| e.worker_loop(r, rank));
                handle.spawn(&format!("serve-r{r}-io{w}"), move |e| e.io_loop(r));
            }
        }
        handle
    }

    /// Run `f` on a named thread that [`EngineHandle::shutdown`] joins after
    /// the drain has begun.
    pub fn spawn(&mut self, name: &str, f: impl FnOnce(&Engine) + Send + 'static) {
        let engine = Arc::clone(&self.engine);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || f(&engine))
            .expect("spawn engine thread");
        self.threads.push(thread);
    }

    /// Stop admitting, drain every parked and in-flight seed (hand-offs
    /// included), and join every thread. Every pending ticket is resolved
    /// when this returns. Idempotent.
    pub fn shutdown(&mut self) {
        self.engine.begin_shutdown();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::ops::Deref for EngineHandle {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        // A dropped front still drains: pending tickets get answers.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
    use streamline_iosim::{FaultPlan, FaultStore, MemoryStore};

    fn tiny_dataset() -> Dataset {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        Dataset::thermal_hydraulics(dcfg)
    }

    /// An engine with no threads: every step is driven by hand.
    fn engine(
        dataset: &Dataset,
        store: Arc<dyn BlockStore>,
        cfg: &ServiceConfig,
        routing: Routing,
    ) -> Engine {
        let registry = Arc::new(MetricsRegistry::new());
        Engine::new(dataset.decomp, store, cfg, routing, registry, Counters::default(), |_| {
            ReplicaCounters::default()
        })
    }

    /// `n` work items of one request, at `p`, with their seat on replica 0.
    fn items(p: streamline_math::Vec3, n: usize) -> Vec<WorkItem> {
        let (tx, _rx) = bounded(1);
        let request = Request::new(vec![p; n]);
        let req = Arc::new(RequestState::new(0, &request, 0, tx));
        (0..n)
            .map(|i| WorkItem {
                sl: Streamline::new_lean(StreamlineId(i as u32), p, request.limits.h0),
                req: Arc::clone(&req),
                home: 0,
            })
            .collect()
    }

    /// One step of one of `replica`'s I/O threads, driven by hand.
    fn io_step(engine: &Engine, replica: usize) -> Option<IoTask<'_>> {
        let rep = &engine.replicas[replica];
        engine.next_load(rep, &mut rep.sched.lock())
    }

    fn load_next(engine: &Engine, replica: usize) -> BlockId {
        match io_step(engine, replica) {
            Some(IoTask::Load(block_id, leader)) => {
                engine.load_block(replica, block_id, leader);
                block_id
            }
            _ => panic!("an I/O thread has a block to load"),
        }
    }

    #[test]
    fn expired_handoff_on_a_failed_load_releases_its_home_seat() {
        let dataset = tiny_dataset();
        let seed = dataset.seeds_with_count(Seeding::Sparse, 1).points[0];
        let block = dataset.decomp.locate(seed).expect("seed in domain");
        let mem: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let store = Arc::new(FaultStore::new(mem, FaultPlan::new().permanent(block)));
        let cfg = ServiceConfig {
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            ..ServiceConfig::default()
        };
        let routing = Routing { ring: Ring::new(2, 8), replication: 1, hot_k: 0 };
        let engine = engine(&dataset, store, &cfg, routing);

        // A seed admitted on replica 0, handed off to replica 1, and past
        // its deadline by the time replica 1's load of its block fails. No
        // threads: replica 1's I/O is driven by hand.
        let (tx, rx) = bounded(1);
        let request =
            Request::new(vec![seed]).with_deadline(Instant::now() - Duration::from_millis(1));
        let req = Arc::new(RequestState::new(0, &request, 0, tx));
        req.expired.store(true, Ordering::Relaxed);
        engine.replicas[0].seats.fetch_add(1, Ordering::SeqCst);
        let sl = Streamline::new_lean(StreamlineId(0), seed, request.limits.h0);
        let item = WorkItem { sl, req, home: 0 };
        engine.park(1, block, vec![item]);
        assert_eq!(load_next(&engine, 1), block);

        for (r, rep) in engine.replicas.iter().enumerate() {
            assert_eq!(rep.queue_depth(), 0, "replica {r} holds a seat after the item resolved");
        }
        let resp = rx.recv().expect("the request is answered");
        assert_eq!(resp.outcome, Outcome::DeadlineExceeded { dropped: 1 });
        assert_eq!(engine.counters.load_failures.get(), 1);
        assert!(!engine.replicas[1].cache.contains(block), "a failed load leaves no slot behind");
    }

    #[test]
    fn claim_takes_a_shorter_resident_queue_over_a_longer_cold_one() {
        let dataset = tiny_dataset();
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let engine =
            engine(&dataset, Arc::clone(&store), &ServiceConfig::default(), Routing::single());
        let (cold, warm) = (BlockId(0), BlockId(1));
        let p = dataset.decomp.block_bounds(cold).center();
        engine.replicas[0].cache.get_or_load(warm, store.as_ref()).expect("loads");
        engine.park(0, cold, items(p, 5));
        engine.park(0, warm, items(p, 2));

        let (block_id, _, claimed) = engine.claim_batch(0).expect("a resident queue");
        assert_eq!((block_id, claimed.len()), (warm, 2));
        assert!(!engine.replicas[0].cache.contains(cold), "no worker loaded the cold block");

        // An I/O thread loads the cold block; then it is claimable.
        assert_eq!(load_next(&engine, 0), cold);
        let (block_id, _, claimed) = engine.claim_batch(0).expect("now resident");
        assert_eq!((block_id, claimed.len()), (cold, 5));
        assert!(io_step(&engine, 0).is_none(), "nothing left to load");
    }

    #[test]
    fn work_parked_on_a_block_another_caller_is_loading_follows_that_load() {
        let dataset = tiny_dataset();
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let engine =
            engine(&dataset, Arc::clone(&store), &ServiceConfig::default(), Routing::single());
        let cache = &engine.replicas[0].cache;
        let (a, b) = (BlockId(0), BlockId(1));
        let p = dataset.decomp.block_bounds(a).center();

        // A warm-start is mid-load on `a` when work parks there: the I/O
        // thread follows that load instead of issuing its own.
        let Begin::Lead(mut warm) = cache.begin(a) else { panic!("the warm-start leads") };
        engine.park(0, a, items(p, 3));
        let Some(IoTask::Follow(block_id, follower)) = io_step(&engine, 0) else {
            panic!("the I/O thread follows the warm-start's load")
        };
        warm.attempt(store.as_ref()).expect("loads");
        engine.follow_load(0, block_id, follower);
        let (claimed, _, items_a) = engine.claim_batch(0).expect("`a` landed");
        assert_eq!((claimed, items_a.len()), (a, 3));
        assert_eq!(cache.stats().loaded, 1, "one store call between them");

        // If the other load fails, the block goes back to the I/O thread.
        let Begin::Lead(warm) = cache.begin(b) else { panic!("the warm-start leads") };
        engine.park(0, b, items(p, 1));
        let Some(IoTask::Follow(block_id, follower)) = io_step(&engine, 0) else {
            panic!("the I/O thread follows the warm-start's load")
        };
        drop(warm);
        engine.follow_load(0, block_id, follower);
        assert_eq!(load_next(&engine, 0), b);
        assert_eq!(engine.claim_batch(0).expect("`b` loaded").0, b);
    }

    #[test]
    fn parked_work_pins_its_block_and_the_io_thread_waits_for_a_slot() {
        let dataset = tiny_dataset();
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let cfg = ServiceConfig { cache_blocks: 1, ..ServiceConfig::default() };
        let engine = engine(&dataset, store, &cfg, Routing::single());
        let cache = &engine.replicas[0].cache;
        let (a, b) = (BlockId(0), BlockId(1));
        let p = dataset.decomp.block_bounds(a).center();

        engine.park(0, a, items(p, 1));
        assert_eq!(load_next(&engine, 0), a);
        engine.park(0, b, items(p, 1));
        // The one slot holds `a`, pinned by its parked work: `b` must wait.
        assert!(matches!(io_step(&engine, 0), Some(IoTask::Full(_))));
        assert!(cache.contains(a));
        assert!(!cache.contains(b));
        assert_eq!((cache.stats().loaded, cache.stats().purged), (1, 0));

        // Claiming `a` unpins it; now an I/O thread may evict it for `b`.
        let (block_id, _, _) = engine.claim_batch(0).expect("`a` is resident");
        assert_eq!(block_id, a);
        assert_eq!(load_next(&engine, 0), b);
        assert!(cache.contains(b));
        assert!(!cache.contains(a));
        assert_eq!((cache.stats().loaded, cache.stats().purged), (2, 1));
        assert_eq!(cache.stats().hits, 0, "each claim's acquisition was its block's load");
    }
}
