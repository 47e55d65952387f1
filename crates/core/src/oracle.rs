//! The run's segment oracle: block advances integrated ahead of the
//! schedule, on the host's spare cores.
//!
//! Advancing a lane through a block — "integrate all streamlines to the
//! edge of the loaded blocks" — is a pure function of (lane state, block):
//! the batch kernel is bit-identical per lane whatever the lanes beside it.
//! So the work can be done by any thread at any time, and only its
//! *booking* belongs to the rank that owns the lane. One [`Oracle`] per run
//! holds the queue: a lane is queued when its rank places it in its block
//! and again at every `MovedTo` exit its rank commits. Helper threads of a
//! process-wide pool (`available_parallelism() − 1` of them) advance queued
//! lanes in block-grouped batches of the run's batch width — lanes of a
//! block some rank is advancing right now first, then the block with the
//! most queued lanes — and park each result as the lane's one outstanding
//! segment.
//!
//! [`Oracle::advance`] is the rank's side. For each lane of a chunk, a
//! segment recorded for exactly this entry (block, and every bit of the
//! solver state) is applied; one a helper is still computing is waited
//! for; a lane that is only queued is taken back and computed inline with
//! the chunk's other misses. The rank then commits the chunk as before —
//! cache tick, compute charge, counters, routing — so trajectories, virtual
//! times and every report counter are those of the serial loop, whoever
//! computed what.
//!
//! The oracle never loads a block: it reads only blocks a rank has already
//! acquired, through weak references, and a block it cannot upgrade stays
//! queued for the rank to compute inline. Lanes that record geometry are
//! never queued. It is a cache, not state: checkpoints do not carry it, and
//! when the world stops, queued work is dropped and the helpers leave. A
//! one-core host starts no helpers and every chunk runs inline.

use crate::advance::{advance_batch_in_block, advance_batch_lanes, AdvanceStats, StreamlineBatch};
use crate::workspace::BlockExit;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread;
use std::time::{Duration, Instant};
use streamline_field::block::{Block, BlockId};
use streamline_field::decomp::BlockDecomposition;
use streamline_field::SamplerStats;
use streamline_integrate::{SolverState, StepLimits, Streamline, StreamlineId, StreamlineStatus};
use streamline_obs::{names, MetricsRegistry};

/// No work runs under these locks and every update under them leaves the
/// data consistent, so a guard poisoned by an unrelated panic still guards
/// valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Reusable SoA scratch for the batch kernel, one per thread that runs
    /// it. The kernel resets it per call, so which thread's scratch a batch
    /// uses never shows.
    static SCRATCH: RefCell<StreamlineBatch> = RefCell::new(StreamlineBatch::new());
}

/// Advance `group` inside `block` with the batch kernel on this thread's
/// scratch: a pure function of its arguments.
pub(crate) fn batch_kernel(
    group: &mut [Streamline],
    block: &Block,
    decomp: &BlockDecomposition,
    limits: &StepLimits,
) -> (Vec<BlockExit>, AdvanceStats) {
    SCRATCH.with(|s| advance_batch_in_block(group, block, decomp, limits, &mut s.borrow_mut()))
}

/// How long an idle helper keeps watching its oracle for work before it
/// leaves: waking a parked helper costs more than a short batch takes.
const LINGER: Duration = Duration::from_micros(200);

/// How long a lingering helper lets newly posted work settle before it
/// picks: the rank that just queued lanes takes back the ones it advances
/// next itself, instead of waiting on a helper batch that holds them.
const SETTLE: Duration = Duration::from_micros(50);

/// Work a helper can join: do some until none is left, then return.
trait Help: Send + Sync {
    fn help(&self);
}

#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<Arc<dyn Help>>>,
    wake: Condvar,
}

impl Queue {
    fn serve(&self) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    jobs = self.wake.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.help();
        }
    }
}

/// Helper threads that join published jobs. Every run's oracle shares the
/// process-wide pool, so concurrent runs never multiply its threads.
struct Pool {
    queue: Arc<Queue>,
    helpers: usize,
}

impl Pool {
    /// Start up to `helpers` threads; `None` if none started. The helpers
    /// live as long as the process and are never joined.
    fn start(helpers: usize) -> Option<Arc<Pool>> {
        let queue = Arc::new(Queue::default());
        let helpers = (0..helpers)
            .filter(|i| {
                let q = Arc::clone(&queue);
                let name = format!("oracle-{i}");
                thread::Builder::new().name(name).spawn(move || q.serve()).is_ok()
            })
            .count();
        (helpers > 0).then(|| Arc::new(Pool { queue, helpers }))
    }

    /// The process-wide pool, started on first use: one helper per core
    /// beyond the caller's own.
    fn global() -> Option<Arc<Pool>> {
        static GLOBAL: OnceLock<Option<Arc<Pool>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cores = thread::available_parallelism().map_or(1, |n| n.get());
                Pool::start(cores - 1)
            })
            .clone()
    }

    /// Invite `wanted` helpers to join `job`.
    fn offer(&self, job: Arc<dyn Help>, wanted: usize) {
        let mut jobs = lock(&self.queue.jobs);
        for _ in 0..wanted {
            jobs.push_back(Arc::clone(&job));
            self.queue.wake.notify_one();
        }
    }
}

/// What the oracle did over a run. Host-side numbers: they depend on
/// thread timing, so they stay out of the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleStats {
    /// Segments helpers computed.
    pub helper_segments: u64,
    /// Lanes the advancing rank computed itself.
    pub inline_segments: u64,
    /// Helper segments that were ready when their lane was advanced.
    pub hits: u64,
    /// Helper segments the advancing rank waited for.
    pub waits: u64,
    /// Helper segments never consumed: their lane moved on another way
    /// (a rank death, a failed block) or the world stopped first.
    pub wasted: u64,
    /// Helper batch-kernel calls.
    pub helper_batches: u64,
    /// Mean filled fraction of the batch width over helper batches.
    pub occupancy: f64,
    /// Bytes of the table holding outstanding (queued, computing or
    /// unconsumed) segments at its largest: one slot per streamline id.
    pub peak_outstanding_bytes: u64,
}

impl OracleStats {
    /// Record these numbers in `registry` under the `streamline_host_oracle_*`
    /// names.
    pub fn record(&self, registry: &MetricsRegistry) {
        registry.set_counter(names::HOST_ORACLE_HELPER_SEGMENTS_TOTAL, self.helper_segments);
        registry.set_counter(names::HOST_ORACLE_INLINE_SEGMENTS_TOTAL, self.inline_segments);
        registry.set_counter(names::HOST_ORACLE_HITS_TOTAL, self.hits);
        registry.set_counter(names::HOST_ORACLE_WAITS_TOTAL, self.waits);
        registry.set_counter(names::HOST_ORACLE_WASTED_SEGMENTS_TOTAL, self.wasted);
        registry.set_gauge(names::HOST_ORACLE_BATCH_OCCUPANCY, self.occupancy);
        let bytes = self.peak_outstanding_bytes as f64;
        registry.set_gauge(names::HOST_ORACLE_PEAK_OUTSTANDING_BYTES, bytes);
    }
}

/// A lane's next advance, as a helper finished it.
#[derive(Clone, Copy)]
struct Segment {
    state: SolverState,
    status: StreamlineStatus,
    exit: BlockExit,
    steps: u64,
    sampler: SamplerStats,
}

enum Phase {
    Queued,
    Computing,
    Done(Segment),
}

/// A lane's one outstanding segment: its entry into `block`, and how far
/// its advance through it has got.
struct Entry {
    ticket: u64,
    block: BlockId,
    from: SolverState,
    phase: Phase,
}

/// Every bit of two solver states is equal.
fn same(a: &SolverState, b: &SolverState) -> bool {
    let bits = |s: &SolverState| {
        [
            s.position.x.to_bits(),
            s.position.y.to_bits(),
            s.position.z.to_bits(),
            s.time.to_bits(),
            s.h.to_bits(),
            s.steps,
            s.arc_length.to_bits(),
        ]
    };
    bits(a) == bits(b)
}

/// Whether `e` was recorded for `sl` entering `block` as it is now.
fn matches(e: &Entry, sl: &Streamline, block: BlockId) -> bool {
    e.block == block && same(&e.from, &sl.state) && sl.is_active() && !sl.records_geometry()
}

/// Queued lanes of one block. `ids` may hold ids no longer queued here
/// (taken, re-queued elsewhere); `live` counts the ones that are.
#[derive(Default)]
struct Pending {
    ids: Vec<StreamlineId>,
    live: usize,
    /// Whether the block is in [`State::ready`].
    ready: bool,
}

/// Key of a readable block in [`State::ready`]: the last is the fullest,
/// ties to the lowest id.
type ReadyKey = (usize, Reverse<u32>);

/// The list a rank is advancing through `block`: the ids of its chunks
/// after the first, in chunk order. Helpers take them from the back while
/// the rank works from the front.
struct Advancing {
    token: u64,
    block: BlockId,
    ids: Vec<StreamlineId>,
}

/// A helper's batch: the block, and (id, ticket, entry state) per lane.
type Batch = (Arc<Block>, Vec<(StreamlineId, u64, SolverState)>);

enum Claim {
    Hit(Segment),
    Wait(u64),
    Miss,
}

#[derive(Default)]
struct State {
    /// Outstanding segment per streamline id.
    entries: Vec<Option<Entry>>,
    outstanding: usize,
    /// Largest capacity `entries` reached.
    peak_slots: usize,
    /// How many streamline ids the run has: ids are dense, so the table is
    /// sized for all of them at the first queue.
    ids: usize,
    queued: HashMap<BlockId, Pending>,
    /// Blocks with queued lanes that helpers can read, by fill.
    ready: BTreeSet<ReadyKey>,
    /// Blocks some rank has acquired.
    blocks: HashMap<BlockId, Weak<Block>>,
    advancing: Vec<Advancing>,
    next_ticket: u64,
    /// Helpers offered this oracle and not yet gone.
    invited: usize,
    /// Helper batches being computed.
    in_flight: usize,
    stopped: bool,
    stats: OracleStats,
}

impl State {
    fn readable(&self, block: BlockId) -> bool {
        self.blocks.get(&block).is_some_and(|w| w.strong_count() > 0)
    }

    /// Record a weak reference to `block` unless a live one is held; true
    /// when helpers could start on lanes queued there that they could not
    /// read before.
    fn note_block(&mut self, block: &Arc<Block>) -> bool {
        if self.readable(block.id) {
            return false;
        }
        self.blocks.insert(block.id, Arc::downgrade(block));
        match self.queued.get_mut(&block.id) {
            Some(p) if !p.ready => {
                p.ready = true;
                self.ready.insert((p.live, Reverse(block.id.0)));
                true
            }
            _ => false,
        }
    }

    /// Change the number of lanes queued in `block` by one; on the way in,
    /// `ready` says whether helpers can read the block.
    fn count(&mut self, block: BlockId, up: bool, ready: bool) {
        let p = self.queued.entry(block).or_default();
        if p.ready {
            self.ready.remove(&(p.live, Reverse(block.0)));
        }
        p.ready |= ready;
        if up {
            p.live += 1;
        } else {
            p.live -= 1;
        }
        if p.live == 0 {
            self.queued.remove(&block);
        } else if p.ready {
            self.ready.insert((p.live, Reverse(block.0)));
        }
    }

    /// Drop `id`'s entry, if any; a finished segment nobody used is waste.
    fn discard(&mut self, id: StreamlineId) -> Option<Entry> {
        let e = self.entries.get_mut(id.index())?.take()?;
        self.outstanding -= 1;
        match e.phase {
            Phase::Queued => self.count(e.block, false, false),
            Phase::Done(_) => self.stats.wasted += 1,
            Phase::Computing => {}
        }
        Some(e)
    }

    /// Queue `sl` entering `block`; true when a helper could start on it.
    fn queue(&mut self, sl: &Streamline, block: BlockId) -> bool {
        if sl.records_geometry() || !sl.is_active() {
            return false;
        }
        let i = sl.id.index();
        if i >= self.entries.len() {
            let len = (i + 1).max(self.ids);
            self.entries.reserve_exact(len - self.entries.len());
            self.entries.resize_with(len, || None);
            self.peak_slots = self.peak_slots.max(self.entries.capacity());
        }
        if self.entries[i].as_ref().is_some_and(|e| matches(e, sl, block)) {
            return false;
        }
        self.discard(sl.id);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.entries[i] = Some(Entry { ticket, block, from: sl.state, phase: Phase::Queued });
        self.outstanding += 1;
        let ready = self.readable(block);
        self.queued.entry(block).or_default().ids.push(sl.id);
        self.count(block, true, ready);
        ready
    }

    /// The rank's claim on `sl`'s segment through `block`.
    fn claim(&mut self, sl: &Streamline, block: BlockId) -> Claim {
        let Some(Some(e)) = self.entries.get(sl.id.index()) else { return Claim::Miss };
        if !matches(e, sl, block) {
            self.discard(sl.id);
            return Claim::Miss;
        }
        match e.phase {
            Phase::Computing => Claim::Wait(e.ticket),
            Phase::Queued => {
                self.discard(sl.id);
                Claim::Miss
            }
            Phase::Done(seg) => {
                self.entries[sl.id.index()] = None;
                self.outstanding -= 1;
                Claim::Hit(seg)
            }
        }
    }

    /// Mark `id` computing if it is queued in `block`; its ticket and
    /// entry state.
    fn start(&mut self, id: StreamlineId, block: BlockId) -> Option<(u64, SolverState)> {
        let e = self.entries.get_mut(id.index())?.as_mut()?;
        if e.block != block || !matches!(e.phase, Phase::Queued) {
            return None;
        }
        e.phase = Phase::Computing;
        let taken = (e.ticket, e.from);
        self.count(block, false, false);
        Some(taken)
    }

    /// Up to `width` queued lanes of one readable block: the last chunks of
    /// a list a rank is advancing (newest list first), else the lanes of
    /// the block with the most queued.
    fn pick(&mut self, width: usize) -> Option<Batch> {
        if self.stopped {
            return None;
        }
        let mut lanes = Vec::with_capacity(width);
        for k in (0..self.advancing.len()).rev() {
            let block = self.advancing[k].block;
            let Some(arc) = self.blocks.get(&block).and_then(Weak::upgrade) else { continue };
            while lanes.len() < width {
                let Some(id) = self.advancing[k].ids.pop() else { break };
                if let Some((ticket, from)) = self.start(id, block) {
                    lanes.push((id, ticket, from));
                }
            }
            if !lanes.is_empty() {
                return Some((arc, lanes));
            }
        }
        while let Some(&(_, Reverse(b))) = self.ready.last() {
            let block = BlockId(b);
            let Some(arc) = self.blocks.get(&block).and_then(Weak::upgrade) else {
                // No rank holds the block any more.
                let key = self.ready.pop_last().expect("just seen");
                if let Some(p) = self.queued.get_mut(&block) {
                    debug_assert_eq!(key.0, p.live);
                    p.ready = false;
                }
                continue;
            };
            while lanes.len() < width {
                let Some(id) = self.queued.get_mut(&block).and_then(|p| p.ids.pop()) else {
                    break;
                };
                if let Some((ticket, from)) = self.start(id, block) {
                    lanes.push((id, ticket, from));
                }
            }
            debug_assert!(!lanes.is_empty(), "a queued block holds its lanes' ids");
            return Some((arc, lanes));
        }
        None
    }

    /// Park a helper's result for `id`, unless its entry moved on.
    fn finish(&mut self, id: StreamlineId, ticket: u64, seg: Option<Segment>) {
        let slot = self.entries.get_mut(id.index());
        match slot.filter(|s| s.as_ref().is_some_and(|e| e.ticket == ticket)) {
            Some(slot) => match seg {
                Some(seg) => slot.as_mut().expect("just matched").phase = Phase::Done(seg),
                // The helper panicked: whoever needs the lane computes it.
                None => {
                    *slot = None;
                    self.outstanding -= 1;
                }
            },
            None => self.stats.wasted += u64::from(seg.is_some()),
        }
    }

    /// Ask the pool for the helpers this oracle lacks.
    fn invite(&mut self, pool: &Pool) -> usize {
        let wanted = pool.helpers.saturating_sub(self.invited);
        self.invited += wanted;
        wanted
    }
}

struct Inner {
    pool: Option<Arc<Pool>>,
    decomp: BlockDecomposition,
    limits: StepLimits,
    width: usize,
    /// Bumped whenever work a helper could start is posted, so a lingering
    /// helper can watch for it without the lock. A hint only: the work
    /// itself is read under the state lock, so `Relaxed` suffices.
    posted: AtomicU64,
    /// Lanes advancing ranks computed themselves (kept outside the lock so
    /// a helperless oracle takes none).
    inline_segments: AtomicU64,
    state: Mutex<State>,
    /// Signalled whenever a helper batch ends.
    done: Condvar,
}

impl Inner {
    /// The next batch for a helper, lingering for one when there is none
    /// ([`LINGER`], [`SETTLE`]). `None` when the helper should leave.
    fn next_batch(&self) -> Option<Batch> {
        let mut idle_since: Option<Instant> = None;
        loop {
            let seen = self.posted.load(Ordering::Relaxed);
            let mut st = lock(&self.state);
            if let Some(batch) = st.pick(self.width) {
                st.in_flight += 1;
                return Some(batch);
            }
            let since = *idle_since.get_or_insert_with(Instant::now);
            if st.stopped || since.elapsed() >= LINGER {
                st.invited -= 1;
                return None;
            }
            drop(st);
            while since.elapsed() < LINGER {
                if self.posted.load(Ordering::Relaxed) != seen {
                    let posted = Instant::now();
                    while posted.elapsed() < SETTLE {
                        std::hint::spin_loop();
                    }
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }
}

impl Help for Inner {
    fn help(&self) {
        let mut lanes: Vec<Streamline> = Vec::new();
        let mut sampler = Vec::new();
        while let Some((block, batch)) = self.next_batch() {
            let n = batch.len();
            while lanes.len() < n {
                lanes.push(Streamline::new_lean(StreamlineId(0), Default::default(), 0.0));
            }
            for (sl, &(id, _, from)) in lanes.iter_mut().zip(&batch) {
                sl.id = id;
                sl.state = from;
                sl.status = StreamlineStatus::Active;
            }
            sampler.clear();
            let group = &mut lanes[..n];
            let exits = catch_unwind(AssertUnwindSafe(|| {
                SCRATCH.with(|s| {
                    let scratch = &mut s.borrow_mut();
                    let (decomp, limits) = (&self.decomp, &self.limits);
                    advance_batch_lanes(group, &block, decomp, limits, scratch, &mut sampler)
                })
            }));
            drop(block);
            let mut st = lock(&self.state);
            st.in_flight -= 1;
            st.stats.helper_batches += 1;
            match exits {
                Ok(exits) => {
                    st.stats.helper_segments += n as u64;
                    for (k, &(id, ticket, from)) in batch.iter().enumerate() {
                        let sl = &lanes[k];
                        let seg = Segment {
                            state: sl.state,
                            status: sl.status,
                            exit: exits[k],
                            steps: sl.state.steps - from.steps,
                            sampler: sampler[k],
                        };
                        st.finish(id, ticket, Some(seg));
                    }
                }
                Err(_) => {
                    for &(id, ticket, _) in &batch {
                        st.finish(id, ticket, None);
                    }
                }
            }
            drop(st);
            self.done.notify_all();
        }
    }
}

/// One run's segment oracle; clones share it.
#[derive(Clone)]
pub(crate) struct Oracle {
    inner: Arc<Inner>,
}

/// Withdraws a rank's [`Oracle::advancing`] registration when dropped.
pub(crate) struct AdvancingGuard {
    oracle: Oracle,
    token: u64,
}

impl Drop for AdvancingGuard {
    fn drop(&mut self) {
        let mut st = lock(&self.oracle.inner.state);
        st.advancing.retain(|a| a.token != self.token);
    }
}

impl Oracle {
    /// The oracle of a run of `ids` streamlines over `decomp` with these
    /// limits, batching `width` lanes per helper call, on the process-wide
    /// pool.
    pub(crate) fn new(
        decomp: BlockDecomposition,
        limits: StepLimits,
        width: usize,
        ids: usize,
    ) -> Self {
        let oracle = Self::on(Pool::global(), decomp, limits, width);
        oracle.state().ids = ids;
        oracle
    }

    fn on(
        pool: Option<Arc<Pool>>,
        decomp: BlockDecomposition,
        limits: StepLimits,
        width: usize,
    ) -> Self {
        assert!(width >= 1, "need at least one batch lane");
        Oracle {
            inner: Arc::new(Inner {
                pool,
                decomp,
                limits,
                width,
                posted: AtomicU64::new(0),
                inline_segments: AtomicU64::new(0),
                state: Mutex::new(State::default()),
                done: Condvar::new(),
            }),
        }
    }

    /// An oracle with no helpers: every chunk runs inline, as on a one-core
    /// host.
    #[cfg(test)]
    pub(crate) fn off(decomp: BlockDecomposition, limits: StepLimits, width: usize) -> Self {
        Self::on(None, decomp, limits, width)
    }

    /// An oracle on a test pool of two helpers, so tests exercise helpers
    /// whatever the host's core count.
    #[cfg(test)]
    pub(crate) fn helped(decomp: BlockDecomposition, limits: StepLimits, width: usize) -> Self {
        static TEST_POOL: OnceLock<Option<Arc<Pool>>> = OnceLock::new();
        Self::on(TEST_POOL.get_or_init(|| Pool::start(2)).clone(), decomp, limits, width)
    }

    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.inner.state)
    }

    /// Release the state lock, tell lingering helpers there is work, and
    /// invite the helpers the oracle lacks when `invite` is set.
    fn post(&self, mut st: MutexGuard<'_, State>, invite: bool) {
        let Some(pool) = &self.inner.pool else { return };
        let wanted = if invite { st.invite(pool) } else { 0 };
        drop(st);
        self.inner.posted.fetch_add(1, Ordering::Relaxed);
        if wanted > 0 {
            pool.offer(Arc::clone(&self.inner) as Arc<dyn Help>, wanted);
        }
    }

    /// Queue each lane for its advance through the paired block.
    pub(crate) fn queue<'s>(&self, lanes: impl IntoIterator<Item = (&'s Streamline, BlockId)>) {
        if self.inner.pool.is_none() {
            return;
        }
        let mut st = self.state();
        if st.stopped {
            return;
        }
        let mut ready = false;
        for (sl, block) in lanes {
            ready |= st.queue(sl, block);
        }
        if ready {
            self.post(st, true);
        }
    }

    /// A rank acquired `block`: helpers may read it from now on.
    pub(crate) fn note_block(&self, block: &Arc<Block>) {
        if self.inner.pool.is_none() {
            return;
        }
        let mut st = self.state();
        if !st.stopped && st.note_block(block) {
            self.post(st, true);
        }
    }

    /// `id` left the schedule without an advance (its block is gone).
    pub(crate) fn forget(&self, id: StreamlineId) {
        if self.inner.pool.is_some() {
            self.state().discard(id);
        }
    }

    /// A rank starts advancing `chunks` through `block`, first to last.
    /// Helpers take the lanes of every chunk after the first from the back
    /// while the rank works from the front, until the guard drops.
    pub(crate) fn advancing(
        &self,
        block: &Arc<Block>,
        chunks: &[Vec<Streamline>],
    ) -> Option<AdvancingGuard> {
        if self.inner.pool.is_none() || chunks.len() < 2 {
            return None;
        }
        let ids = chunks[1..].iter().flatten().map(|sl| sl.id).collect();
        let mut st = self.state();
        if st.stopped {
            return None;
        }
        st.note_block(block);
        let token = st.next_ticket;
        st.next_ticket += 1;
        st.advancing.push(Advancing { token, block: block.id, ids });
        self.post(st, true);
        Some(AdvancingGuard { oracle: self.clone(), token })
    }

    /// Advance `chunk` through `block`: each lane's recorded segment where
    /// one matches it, the rest inline as one batch. Bit-identical to
    /// [`batch_kernel`] over the whole chunk; the stats are its sums, with
    /// `batched_lanes` the chunk's length.
    pub(crate) fn advance(
        &self,
        chunk: &mut [Streamline],
        block: &Block,
    ) -> (Vec<BlockExit>, AdvanceStats) {
        let inner = &*self.inner;
        if inner.pool.is_none() {
            inner.inline_segments.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            return batch_kernel(chunk, block, &inner.decomp, &inner.limits);
        }
        let n = chunk.len();
        // Every slot is overwritten: by a segment, or by the inline batch.
        let mut exits = vec![BlockExit::MovedTo(block.id); n];
        let mut total = AdvanceStats { batched_lanes: n as u64, ..AdvanceStats::default() };
        let apply = |sl: &mut Streamline, seg: Segment, total: &mut AdvanceStats| {
            sl.state = seg.state;
            sl.status = seg.status;
            total.steps += seg.steps;
            total.sampler_hits += seg.sampler.hits;
            total.sampler_misses += seg.sampler.misses;
            seg.exit
        };
        let mut misses = Vec::new();
        let mut waits = Vec::new();
        {
            let mut st = self.state();
            for (k, sl) in chunk.iter_mut().enumerate() {
                match st.claim(sl, block.id) {
                    Claim::Hit(seg) => {
                        st.stats.hits += 1;
                        exits[k] = apply(sl, seg, &mut total);
                    }
                    Claim::Wait(ticket) => waits.push((k, ticket)),
                    Claim::Miss => misses.push(k),
                }
            }
        }
        self.inline(chunk, &misses, block, &mut exits, &mut total);
        if waits.is_empty() {
            return (exits, total);
        }
        let mut late = Vec::new();
        let mut st = self.state();
        for (k, ticket) in waits {
            let id = chunk[k].id.index();
            loop {
                let e = st.entries.get(id).and_then(Option::as_ref).filter(|e| e.ticket == ticket);
                match e.map(|e| &e.phase) {
                    Some(Phase::Computing) => {
                        st = inner.done.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(&Phase::Done(seg)) => {
                        st.entries[id] = None;
                        st.outstanding -= 1;
                        st.stats.waits += 1;
                        exits[k] = apply(&mut chunk[k], seg, &mut total);
                        break;
                    }
                    // Its helper panicked, or the world stopped.
                    _ => {
                        late.push(k);
                        break;
                    }
                }
            }
        }
        drop(st);
        self.inline(chunk, &late, block, &mut exits, &mut total);
        (exits, total)
    }

    /// Run the lanes at `picks` (ascending) through the kernel as one batch.
    fn inline(
        &self,
        chunk: &mut [Streamline],
        picks: &[usize],
        block: &Block,
        exits: &mut [BlockExit],
        total: &mut AdvanceStats,
    ) {
        if picks.is_empty() {
            return;
        }
        // Swap the picked lanes to the front in order, run them, swap back.
        for (k, &i) in picks.iter().enumerate() {
            chunk.swap(k, i);
        }
        let m = picks.len();
        let (decomp, limits) = (&self.inner.decomp, &self.inner.limits);
        let (sub, stats) = batch_kernel(&mut chunk[..m], block, decomp, limits);
        for (k, &i) in picks.iter().enumerate().rev() {
            chunk.swap(k, i);
        }
        for (&i, exit) in picks.iter().zip(sub) {
            exits[i] = exit;
        }
        total.steps += stats.steps;
        total.sampler_hits += stats.sampler_hits;
        total.sampler_misses += stats.sampler_misses;
        self.inner.inline_segments.fetch_add(m as u64, Ordering::Relaxed);
    }

    /// The world stopped: drop every outstanding segment, send the helpers
    /// away, and wait for the batches in flight to land.
    pub(crate) fn stop(&self) {
        let mut st = self.state();
        st.stopped = true;
        let done = st.entries.iter().flatten().filter(|e| matches!(e.phase, Phase::Done(_)));
        st.stats.wasted += done.count() as u64;
        st.entries = Vec::new();
        st.outstanding = 0;
        st.queued.clear();
        st.ready.clear();
        st.blocks.clear();
        st.advancing.clear();
        while st.in_flight > 0 {
            st = self.inner.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// What the oracle has done so far.
    pub(crate) fn stats(&self) -> OracleStats {
        let st = self.state();
        let mut stats = st.stats;
        stats.inline_segments = self.inner.inline_segments.load(Ordering::Relaxed);
        let slots = stats.helper_batches * self.inner.width as u64;
        stats.occupancy = if slots > 0 { stats.helper_segments as f64 / slots as f64 } else { 0.0 };
        stats.peak_outstanding_bytes =
            (st.peak_slots * std::mem::size_of::<Option<Entry>>()) as u64;
        stats
    }

    /// Segments queued, computing or waiting to be consumed.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> usize {
        self.state().outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, MemoryBudget, RankChaos, RunConfig};
    use crate::ingest::SeedSource;
    use crate::report::RunOutcome;
    use crate::run::{Run, RunOutput};
    use std::sync::atomic::AtomicUsize;
    use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
    use streamline_field::seeds::SeedSet;
    use streamline_iosim::{BlockStore, DiskModel, FaultPlan, FaultStore, MemoryStore, StoreError};
    use streamline_math::Vec3;

    fn limits() -> StepLimits {
        StepLimits { h0: 1e-3, h_max: 0.02, max_steps: 60, ..StepLimits::default() }
    }

    /// The tiny thermal problem's centre block and `n` lean lanes seeded
    /// across it.
    fn block_with_lanes(n: usize) -> (Dataset, Arc<Block>, Vec<Streamline>) {
        let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
        let bounds = ds.decomp.domain;
        let id = ds.decomp.locate(bounds.min + bounds.size() * 0.5).expect("inside");
        let block = Arc::new(ds.build_block(id));
        let b = block.bounds;
        let lanes = (0..n)
            .map(|i| {
                let f = |k: f64| 0.05 + 0.9 * ((i as f64 + 0.5) * k).fract();
                let p =
                    b.min + b.size().mul_elem(Vec3::new(f(0.618_034), f(0.754_878), f(0.569_840)));
                Streamline::new_lean(StreamlineId(i as u32), p, limits().h0)
            })
            .collect();
        (ds, block, lanes)
    }

    /// Wait until helpers have computed `n` segments.
    fn settle(oracle: &Oracle, n: u64) {
        let start = Instant::now();
        while oracle.stats().helper_segments < n {
            assert!(start.elapsed() < Duration::from_secs(30), "helpers never finished");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The chunk advanced by the bare kernel: the reference.
    fn reference(ds: &Dataset, block: &Block, lanes: &[Streamline]) -> Advanced {
        let mut lanes = lanes.to_vec();
        let (exits, stats) = batch_kernel(&mut lanes, block, &ds.decomp, &limits());
        (lanes, exits, stats)
    }

    type Advanced = (Vec<Streamline>, Vec<BlockExit>, AdvanceStats);

    fn advance(oracle: &Oracle, block: &Block, lanes: &[Streamline]) -> Advanced {
        let mut lanes = lanes.to_vec();
        let (exits, stats) = oracle.advance(&mut lanes, block);
        (lanes, exits, stats)
    }

    #[test]
    fn computed_segments_are_applied_bit_for_bit() {
        let (ds, block, lanes) = block_with_lanes(24);
        let oracle = Oracle::helped(ds.decomp, limits(), 8);
        oracle.note_block(&block);
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        settle(&oracle, 24);
        assert_eq!(oracle.outstanding(), 24, "one segment per lane, none consumed yet");
        assert_eq!(advance(&oracle, &block, &lanes), reference(&ds, &block, &lanes));
        let stats = oracle.stats();
        assert_eq!((stats.hits, stats.inline_segments, stats.wasted), (24, 0, 0));
        assert_eq!(stats.helper_batches, 3, "block-grouped batches of the width");
        assert_eq!(stats.occupancy, 1.0);
        assert_eq!(oracle.outstanding(), 0);
    }

    /// A segment recorded for another entry state is not applied: the lane
    /// runs inline and the segment is counted as waste.
    #[test]
    fn a_stale_segment_is_wasted_not_applied() {
        let (ds, block, lanes) = block_with_lanes(4);
        let oracle = Oracle::helped(ds.decomp, limits(), 16);
        oracle.note_block(&block);
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        settle(&oracle, 4);
        let mut moved = lanes.clone();
        moved[2].state.h *= 0.5;
        assert_eq!(advance(&oracle, &block, &moved), reference(&ds, &block, &moved));
        let stats = oracle.stats();
        assert_eq!((stats.hits, stats.inline_segments, stats.wasted), (3, 1, 1));
    }

    /// Without a helper every lane runs inline, and queueing keeps nothing.
    #[test]
    fn a_helperless_oracle_runs_every_chunk_inline() {
        let (ds, block, lanes) = block_with_lanes(10);
        let oracle = Oracle::off(ds.decomp, limits(), 4);
        oracle.note_block(&block);
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        assert_eq!(oracle.outstanding(), 0);
        assert_eq!(advance(&oracle, &block, &lanes), reference(&ds, &block, &lanes));
        let stats = oracle.stats();
        assert_eq!((stats.helper_segments, stats.inline_segments), (0, 10));
    }

    /// Lanes that record geometry are never queued: a segment carries no
    /// vertices.
    #[test]
    fn geometry_lanes_are_never_queued() {
        let (ds, block, _) = block_with_lanes(0);
        let sl = Streamline::new(StreamlineId(0), block.bounds.center(), limits().h0);
        let oracle = Oracle::helped(ds.decomp, limits(), 4);
        oracle.note_block(&block);
        oracle.queue([(&sl, block.id)]);
        assert_eq!(oracle.outstanding(), 0);
        let lanes = [sl];
        assert_eq!(advance(&oracle, &block, &lanes), reference(&ds, &block, &lanes));
    }

    /// A block no rank has acquired is never read: its lanes stay queued
    /// and are taken back inline.
    #[test]
    fn an_unacquired_block_is_left_to_the_rank() {
        let (ds, block, lanes) = block_with_lanes(6);
        let oracle = Oracle::helped(ds.decomp, limits(), 4);
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(oracle.stats().helper_segments, 0);
        assert_eq!(advance(&oracle, &block, &lanes), reference(&ds, &block, &lanes));
        assert_eq!(oracle.stats().inline_segments, 6);
    }

    #[test]
    fn stopping_drops_computed_segments_as_waste() {
        let (ds, block, lanes) = block_with_lanes(12);
        let oracle = Oracle::helped(ds.decomp, limits(), 16);
        oracle.note_block(&block);
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        settle(&oracle, 12);
        oracle.stop();
        assert_eq!(oracle.outstanding(), 0);
        let stats = oracle.stats();
        assert_eq!((stats.wasted, stats.peak_outstanding_bytes > 0), (12, true));
        // Queueing after the stop keeps nothing; advancing still works.
        oracle.queue(lanes.iter().map(|sl| (sl, block.id)));
        assert_eq!(oracle.outstanding(), 0);
        assert_eq!(advance(&oracle, &block, &lanes), reference(&ds, &block, &lanes));
    }

    /// Counts every load attempt, so a test can show the oracle adds none.
    struct Counting {
        inner: Arc<dyn BlockStore>,
        loads: AtomicUsize,
    }

    impl BlockStore for Counting {
        fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            self.inner.try_load(id)
        }
        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
    }

    fn fixture() -> (Dataset, SeedSet, Arc<dyn BlockStore>) {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 40);
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        (ds, seeds, store)
    }

    /// One run with the oracle off or on: its output and the store's load
    /// count.
    fn run(
        ds: &Dataset,
        cfg: &RunConfig,
        source: &SeedSource,
        store: Arc<dyn BlockStore>,
        on: bool,
    ) -> (RunOutput, usize) {
        let width = cfg.batch.resolve();
        let oracle = if on {
            Oracle::helped(ds.decomp, cfg.limits, width)
        } else {
            Oracle::off(ds.decomp, cfg.limits, width)
        };
        let counting = Arc::new(Counting { inner: store, loads: AtomicUsize::new(0) });
        let store = Arc::clone(&counting) as Arc<dyn BlockStore>;
        let out = Run::new(ds, cfg, source.clone()).store(store).oracle(oracle).go().unwrap();
        let s = out.oracle;
        assert_eq!(s.hits + s.waits + s.inline_segments, out.report.batched_lanes, "{s:?}");
        assert_eq!(s.helper_segments, s.hits + s.waits + s.wasted, "{s:?}");
        (out, counting.loads.load(Ordering::SeqCst))
    }

    /// The report as its JSON bytes.
    fn json(out: &RunOutput) -> String {
        serde_json::to_string(&out.report).expect("a report serializes")
    }

    /// Every driver under every mode — closed, open-loop, rank chaos, a
    /// block-fault plan — gives the same report, streamlines and store
    /// loads with the oracle's helpers as without them.
    #[test]
    fn helpers_change_no_result_on_any_driver() {
        let (ds, seeds, memory) = fixture();
        let closed = SeedSource::from(&seeds);
        let more = ds.seeds_with_count(Seeding::Dense, 10);
        let arrivals = vec![(1e-4, more.points[..5].to_vec()), (5e-4, more.points[5..].to_vec())];
        let open = SeedSource::new(&seeds, arrivals).unwrap();
        let faults = FaultPlan::new().transient(BlockId(1), 2).permanent(BlockId(6));
        for algo in Algorithm::ALL {
            for mode in ["closed", "open", "rank chaos", "block faults"] {
                let mut cfg = RunConfig::new(algo, 4);
                cfg.limits.max_steps = 300;
                cfg.cache_blocks = 2;
                cfg.memory = MemoryBudget::unlimited();
                cfg.batch.lanes = Some(4);
                if mode == "rank chaos" {
                    cfg.rank_chaos = Some(RankChaos::one_kill(3, 5e-3));
                }
                let source = if mode == "open" { &open } else { &closed };
                let store = || -> Arc<dyn BlockStore> {
                    match mode {
                        "block faults" => {
                            Arc::new(FaultStore::new(Arc::clone(&memory), faults.clone()))
                        }
                        _ => Arc::clone(&memory),
                    }
                };
                let (off, off_loads) = run(&ds, &cfg, source, store(), false);
                let (on, on_loads) = run(&ds, &cfg, source, store(), true);
                assert_eq!(json(&on), json(&off), "{algo:?} {mode}");
                assert_eq!(on.finished, off.finished, "{algo:?} {mode}");
                assert_eq!(on_loads, off_loads, "{algo:?} {mode}: the oracle loaded a block");
                assert_eq!(off.oracle.helper_segments, 0);
            }
        }
    }

    /// Static Allocation running out of memory stops the world with
    /// segments still outstanding: the run returns, and they are counted
    /// as waste.
    #[test]
    fn a_static_oom_run_returns_and_counts_its_waste() {
        let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
        let seeds = ds.seeds_with_count(Seeding::Dense, 400);
        let mut cfg = RunConfig::new(Algorithm::StaticAllocation, 4);
        cfg.limits.max_steps = 200;
        cfg.cache_blocks = 4;
        // Geometry only: resident bytes grow with every step, so the budget
        // breaks halfway through the integration, not at seeding.
        cfg.memory = MemoryBudget { bytes: None, vertex_bytes: 64.0, stream_bytes: 0.0 };
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let source = SeedSource::from(&seeds);
        let (full, _) = run(&ds, &cfg, &source, Arc::clone(&store), false);
        assert!(full.report.outcome.completed());
        cfg.memory.bytes = Some(full.report.total_steps as f64 * 64.0 * 0.5);
        let (off, _) = run(&ds, &cfg, &source, Arc::clone(&store), false);
        let (on, _) = run(&ds, &cfg, &source, store, true);
        assert!(matches!(on.report.outcome, RunOutcome::OutOfMemory { .. }));
        assert_eq!(json(&on), json(&off));
        assert!(off.report.total_steps < full.report.total_steps, "stopped mid-run");
        // `run` checked computed == consumed + wasted and consumed +
        // inline == lanes committed.
        assert!(on.oracle.peak_outstanding_bytes > 0);
    }

    /// Each live lane holds at most one outstanding segment, so the oracle
    /// never holds more segments than there are lanes still integrating.
    #[test]
    fn outstanding_segments_never_exceed_live_lanes() {
        use crate::rank::{repark, Parked, RankCore};
        use crate::testutil::NullCtx;
        use crate::workspace::Workspace;
        let (ds, _, store) = fixture();
        let limits = StepLimits { max_steps: 400, ..limits() };
        let mut ws = Workspace::new(ds.decomp, store, 8, DiskModel::paper_scale(), limits, 1e-6);
        let oracle = Oracle::helped(ds.decomp, limits, 4);
        ws.set_batch_lanes(4);
        ws.set_oracle(oracle.clone());
        let memory = MemoryBudget::unlimited();
        let mut core = RankCore::new(ws, memory, limits.h0, Default::default(), Default::default());
        let mut ctx = NullCtx::default();
        let mut parked = Parked::new();
        let seeds = ds.seeds_with_count(Seeding::Sparse, 30);
        for (i, &p) in seeds.points.iter().enumerate() {
            if let Some((b, sl)) = core.place_seed(StreamlineId(i as u32), p) {
                parked.entry(b).or_default().push(sl);
            }
            assert!(oracle.outstanding() <= i + 1);
        }
        while !parked.is_empty() {
            let live = parked.values().map(Vec::len).sum::<usize>();
            assert!(oracle.outstanding() <= live, "{} > {live}", oracle.outstanding());
            assert!(core.drain_resident(&mut parked, &mut ctx, repark));
            if !parked.is_empty() {
                assert!(core.load_most_wanted(&mut parked, &mut ctx));
            }
        }
        assert_eq!(core.finished.len(), seeds.len());
        assert_eq!(oracle.outstanding(), 0, "every segment consumed");
        assert_eq!(oracle.stats().wasted, 0);
    }
}
