//! One serving replica's block cache, shared by its worker threads and its
//! I/O threads.
//!
//! The single-shot algorithms give each rank a private
//! [`LruCache`](streamline_iosim::LruCache); the service instead pools one
//! cache across all in-flight requests, so a block loaded for one client is
//! a hit for every other client that needs it. Resident blocks plus blocks
//! being loaded never exceed [`capacity`](SharedBlockCache::capacity),
//! which is exactly the configured block count.
//!
//! Loads run *outside* the cache lock and are single-flight: the first
//! caller to miss a block becomes its leader, reserving one slot for it;
//! every later caller for the same block becomes a follower that waits
//! for that load instead of issuing its own. A failed load releases
//! its slot and its followers, who may then try again.
//!
//! Eviction never drops a *pinned* block: the engine pins every block that
//! has work parked on it. Among the others it drops the block with the
//! lowest access count (the engine's per-block counts, which also feed the
//! hot set), least recently used first among equals; a cache without
//! counts is plain LRU. When every slot is pinned or loading, nothing is
//! evicted and the caller waits for a slot to free.
//!
//! Accounting is exact: every [`get_or_load`](SharedBlockCache::get_or_load)
//! call counts exactly one hit, one load or one failed load, so
//! `hits + loaded + failed` equals the number of calls.

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use streamline_field::block::{Block, BlockId};
use streamline_iosim::{BlockStore, CacheStats, StoreError};

/// A bounded, single-flight block cache. See the [module docs](self).
pub struct SharedBlockCache {
    capacity: usize,
    state: Mutex<State>,
    /// Signalled whenever a slot may have freed (see [`Begin::Full`]).
    room: Condvar,
    /// Per-block access counts ranking eviction victims; `None` is LRU.
    access: Option<Arc<[AtomicU64]>>,
}

#[derive(Default)]
struct State {
    tick: u64,
    resident: HashMap<BlockId, Entry>,
    /// Blocks being loaded, each holding one reserved slot.
    loading: HashMap<BlockId, Arc<Flight>>,
    /// Blocks eviction must keep: work is parked on them.
    pinned: HashSet<BlockId>,
    stats: CacheStats,
    /// Bumped whenever a slot may have freed.
    frees: u64,
}

struct Entry {
    block: Arc<Block>,
    last_use: u64,
    /// Loaded on behalf of parked work that has not claimed it yet: that
    /// claim is the load's own acquisition, not a hit.
    fresh: bool,
}

/// One in-flight load: `None` while loading, then the loaded block or
/// `None` if the load failed.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Option<Arc<Block>>>>,
    done: Condvar,
}

impl Flight {
    fn finish(&self, block: Option<Arc<Block>>) {
        *self.outcome.lock() = Some(block);
        self.done.notify_all();
    }

    fn wait(&self) -> Option<Arc<Block>> {
        let mut outcome = self.outcome.lock();
        loop {
            if let Some(block) = outcome.as_ref() {
                return block.clone();
            }
            self.done.wait(&mut outcome);
        }
    }
}

/// What a lookup found. Never blocks.
pub(crate) enum Begin<'a> {
    /// The block is resident.
    Hit(Arc<Block>),
    /// Another caller is loading it: wait for that load.
    Follow(Follower<'a>),
    /// The caller loads it, into the slot reserved here.
    Lead(Leader<'a>),
    /// Every slot is pinned or loading. Pass the value to
    /// [`SharedBlockCache::wait_for_room`] and begin again.
    Full(u64),
}

/// A caller waiting for another caller's load of the same block.
pub(crate) struct Follower<'a> {
    cache: &'a SharedBlockCache,
    flight: Arc<Flight>,
    acquire: bool,
}

impl Follower<'_> {
    /// Wait for the load. A success is counted as a hit; `None` means the
    /// load failed and the caller may begin again.
    pub(crate) fn wait(self) -> Option<Arc<Block>> {
        let block = self.flight.wait()?;
        if self.acquire {
            self.cache.state.lock().stats.hits += 1;
        }
        Some(block)
    }
}

/// The one caller loading a block, holding its reserved slot. Dropping it
/// before a successful [`attempt`](Leader::attempt) releases the slot and
/// tells the followers the load failed.
pub(crate) struct Leader<'a> {
    cache: &'a SharedBlockCache,
    id: BlockId,
    flight: Arc<Flight>,
    fresh: bool,
    loaded: bool,
}

impl Leader<'_> {
    /// One load attempt, outside every lock. Success makes the block
    /// resident, counts one load and hands the block to every follower. An
    /// error counts one failed load and keeps the slot for a retry.
    pub(crate) fn attempt(&mut self, store: &dyn BlockStore) -> Result<Arc<Block>, StoreError> {
        assert!(!self.loaded, "block {} already loaded by this leader", self.id);
        let result = store.try_load(self.id);
        let mut st = self.cache.state.lock();
        let block = match result {
            Ok(block) => block,
            Err(e) => {
                // An errored load is not a load: B_L and the efficiency
                // figure stay truthful; the attempt lands in `failed`.
                st.stats.failed += 1;
                return Err(e);
            }
        };
        st.loading.remove(&self.id);
        st.tick += 1;
        st.stats.loaded += 1;
        st.frees += 1;
        let entry = Entry { block: Arc::clone(&block), last_use: st.tick, fresh: self.fresh };
        st.resident.insert(self.id, entry);
        drop(st);
        self.loaded = true;
        self.cache.room.notify_all();
        self.flight.finish(Some(Arc::clone(&block)));
        Ok(block)
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if self.loaded {
            return;
        }
        let mut st = self.cache.state.lock();
        st.loading.remove(&self.id);
        st.frees += 1;
        drop(st);
        self.cache.room.notify_all();
        self.flight.finish(None);
    }
}

impl SharedBlockCache {
    /// A cache of exactly `capacity_blocks` slots (at least one), evicting
    /// least-recently-used first.
    pub fn new(capacity_blocks: usize) -> Self {
        SharedBlockCache {
            capacity: capacity_blocks.max(1),
            state: Mutex::new(State::default()),
            room: Condvar::new(),
            access: None,
        }
    }

    /// Rank eviction victims by `access[block]`, lowest first; ties go to
    /// the least recently used.
    pub(crate) fn with_access_counts(mut self, access: Arc<[AtomicU64]>) -> Self {
        self.access = Some(access);
        self
    }

    fn accesses(&self, id: BlockId) -> u64 {
        self.access
            .as_ref()
            .and_then(|a| a.get(id.0 as usize))
            .map_or(0, |a| a.load(Ordering::Relaxed))
    }

    /// Find `id` and, on a miss, reserve a slot to load it into, on behalf
    /// of parked work: nothing is acquired now, so nothing is counted. The
    /// work's later [`claim`](Self::claim) is the acquisition.
    pub(crate) fn reserve(&self, id: BlockId) -> Begin<'_> {
        self.start(&mut self.state.lock(), id, false)
    }

    /// The lookup `get_or_load` makes, without blocking: a caller that
    /// stops between its steps, as tests do.
    #[cfg(test)]
    pub(crate) fn begin(&self, id: BlockId) -> Begin<'_> {
        self.start(&mut self.state.lock(), id, true)
    }

    /// Find `id` and, on a miss, reserve a slot to load it into. With
    /// `acquire`, the caller takes the block now: a hit (or a follower's
    /// success) is counted, and a loaded block is not left fresh.
    fn start(&self, st: &mut State, id: BlockId, acquire: bool) -> Begin<'_> {
        st.tick += 1;
        if let Some(e) = st.resident.get_mut(&id) {
            if acquire {
                e.last_use = st.tick;
                st.stats.hits += 1;
            }
            return Begin::Hit(Arc::clone(&e.block));
        }
        if let Some(flight) = st.loading.get(&id) {
            return Begin::Follow(Follower { cache: self, flight: Arc::clone(flight), acquire });
        }
        if !self.make_room(st) {
            return Begin::Full(st.frees);
        }
        let flight = Arc::new(Flight::default());
        st.loading.insert(id, Arc::clone(&flight));
        Begin::Lead(Leader { cache: self, id, flight, fresh: !acquire, loaded: false })
    }

    /// Free a slot if none is: evict the unpinned resident block with the
    /// fewest accesses, least recently used among equals. `false` when
    /// every slot is pinned or loading.
    fn make_room(&self, st: &mut State) -> bool {
        if st.resident.len() + st.loading.len() < self.capacity {
            return true;
        }
        let victim = st
            .resident
            .iter()
            .filter(|(id, _)| !st.pinned.contains(id))
            .min_by_key(|(&id, e)| (self.accesses(id), e.last_use))
            .map(|(&id, _)| id);
        let Some(victim) = victim else { return false };
        st.resident.remove(&victim);
        st.stats.purged += 1;
        true
    }

    /// Block until a slot may have freed since [`Begin::Full`] returned
    /// `seen`.
    pub(crate) fn wait_for_room(&self, seen: u64) {
        let mut st = self.state.lock();
        while st.frees == seen {
            self.room.wait(&mut st);
        }
    }

    /// Get `id` from the cache, loading it from `store` on a miss; `true`
    /// on a hit (a follower of another caller's load is a hit). Waits for
    /// a slot when every one is pinned or loading. Returns the store's
    /// typed error if this call's load fails.
    pub fn get_or_load(
        &self,
        id: BlockId,
        store: &dyn BlockStore,
    ) -> Result<(Arc<Block>, bool), StoreError> {
        let mut st = self.state.lock();
        loop {
            match self.start(&mut st, id, true) {
                Begin::Hit(b) => return Ok((b, true)),
                Begin::Follow(follower) => {
                    drop(st);
                    if let Some(b) = follower.wait() {
                        return Ok((b, true));
                    }
                    st = self.state.lock();
                }
                Begin::Lead(mut leader) => {
                    drop(st);
                    return leader.attempt(store).map(|b| (b, false));
                }
                Begin::Full(_) => self.room.wait(&mut st),
            }
        }
    }

    /// Pin `id` against eviction; `true` if it is resident.
    pub(crate) fn pin(&self, id: BlockId) -> bool {
        let mut st = self.state.lock();
        st.pinned.insert(id);
        st.resident.contains_key(&id)
    }

    /// Lift [`pin`](Self::pin).
    pub(crate) fn unpin(&self, id: BlockId) {
        let mut st = self.state.lock();
        if st.pinned.remove(&id) {
            st.frees += 1;
            drop(st);
            self.room.notify_all();
        }
    }

    /// Take resident `id` for the work that was parked on it. Counts a
    /// hit, except on the first claim of a block that
    /// [`reserve`](Self::reserve) loaded for that work: its acquisition
    /// was the load. `None` if `id` is not resident.
    pub(crate) fn claim(&self, id: BlockId) -> Option<Arc<Block>> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let e = st.resident.get_mut(&id)?;
        e.last_use = tick;
        let block = Arc::clone(&e.block);
        let hit = !std::mem::replace(&mut e.fresh, false);
        st.stats.hits += u64::from(hit);
        Some(block)
    }

    /// Whether `id` is resident (touches nothing).
    pub(crate) fn contains(&self, id: BlockId) -> bool {
        self.state.lock().resident.contains_key(&id)
    }

    /// Slots: resident plus loading blocks never exceed this.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/load/purge/failed counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Resident block ids (unordered).
    pub fn resident(&self) -> Vec<BlockId> {
        self.state.lock().resident.keys().copied().collect()
    }

    /// Residency manifest: resident blocks least recently used first.
    /// Feeding it to [`prefetch`](Self::prefetch) on a fresh cache
    /// reproduces the resident set and its recency order.
    pub fn manifest(&self) -> Vec<BlockId> {
        let st = self.state.lock();
        let mut ids: Vec<(u64, BlockId)> =
            st.resident.iter().map(|(&id, e)| (e.last_use, id)).collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Load `blocks` through the cache in order (a warm-start). Returns how
    /// many are resident afterwards; blocks that fail to load are skipped —
    /// a warm-start is best-effort, never fatal.
    pub fn prefetch(&self, blocks: &[BlockId], store: &dyn BlockStore) -> usize {
        blocks.iter().filter(|&&id| self.get_or_load(id, store).is_ok()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use streamline_iosim::MemoryStore;
    use streamline_math::{Aabb, Vec3};

    fn store(n: u32) -> MemoryStore {
        MemoryStore::from_blocks(
            (0..n)
                .map(|i| Block::zeroed(BlockId(i), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)))
                .collect(),
        )
    }

    /// Counts `try_load` calls.
    struct Counting {
        inner: MemoryStore,
        calls: AtomicUsize,
    }

    impl BlockStore for Counting {
        fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.try_load(id)
        }

        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
    }

    #[test]
    fn hit_and_miss_accounting_is_exact() {
        let cache = SharedBlockCache::new(8);
        let st = store(8);
        for round in 0..3 {
            for i in 0..8 {
                let (b, hit) = cache.get_or_load(BlockId(i), &st).unwrap();
                assert_eq!(b.id, BlockId(i));
                assert_eq!(hit, round > 0);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.loaded, 8);
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.purged, 0);
    }

    #[test]
    fn capacity_bounds_resident_set() {
        let cache = SharedBlockCache::new(4);
        let st = store(32);
        for i in 0..32 {
            cache.get_or_load(BlockId(i), &st).unwrap();
            assert!(cache.len() <= 4);
        }
        assert_eq!(cache.capacity(), 4);
        let stats = cache.stats();
        assert_eq!(stats.loaded - stats.purged, cache.len() as u64);
    }

    #[test]
    fn load_failure_is_propagated_not_cached() {
        let cache = SharedBlockCache::new(4);
        let st = store(2);
        let err = cache.get_or_load(BlockId(9), &st).unwrap_err();
        assert!(matches!(err, StoreError::UnknownBlock { id: BlockId(9), .. }));
        assert_eq!(cache.len(), 0);
        // A subsequent valid load still works.
        assert!(!cache.get_or_load(BlockId(1), &st).unwrap().1);
        // The failure is counted as failed, not as a load.
        let stats = cache.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.loaded, 1);
    }

    #[test]
    fn without_access_counts_eviction_is_plain_lru() {
        let cache = SharedBlockCache::new(2);
        let st = store(3);
        cache.get_or_load(BlockId(0), &st).unwrap();
        cache.get_or_load(BlockId(1), &st).unwrap();
        cache.get_or_load(BlockId(0), &st).unwrap(); // 1 is now LRU
        cache.get_or_load(BlockId(2), &st).unwrap(); // evicts 1
        let resident = cache.resident();
        assert_eq!(resident.len(), 2);
        assert!(!resident.contains(&BlockId(1)));
        assert_eq!(cache.stats().purged, 1);
    }

    #[test]
    fn eviction_takes_the_least_accessed_unpinned_block() {
        let access: Arc<[AtomicU64]> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let cache = SharedBlockCache::new(3).with_access_counts(Arc::clone(&access));
        let st = store(4);
        for i in 0..3 {
            cache.get_or_load(BlockId(i), &st).unwrap();
        }
        // Block 0 is the LRU but the most accessed; block 1 is pinned.
        access[0].store(10, Ordering::Relaxed);
        access[1].store(1, Ordering::Relaxed);
        access[2].store(5, Ordering::Relaxed);
        assert!(cache.pin(BlockId(1)));
        cache.get_or_load(BlockId(3), &st).unwrap();
        let mut resident = cache.resident();
        resident.sort();
        assert_eq!(resident, vec![BlockId(0), BlockId(1), BlockId(3)]);
    }

    #[test]
    fn a_full_cache_of_pinned_blocks_reserves_nothing() {
        let cache = SharedBlockCache::new(1);
        let st = store(2);
        cache.get_or_load(BlockId(0), &st).unwrap();
        cache.pin(BlockId(0));
        let Begin::Full(seen) = cache.begin(BlockId(1)) else { panic!("no slot is free") };
        assert!(cache.contains(BlockId(0)));
        cache.unpin(BlockId(0));
        cache.wait_for_room(seen); // returns at once: the unpin freed a slot
        assert!(matches!(cache.begin(BlockId(1)), Begin::Lead(_)));
        assert_eq!(cache.stats().purged, 1);
    }

    #[test]
    fn single_flight_followers_share_one_store_call() {
        // K callers on one cold block: one leads, K−1 follow while the
        // leader's store call is held open, then all get the same block.
        const K: usize = 5;
        let st = Counting { inner: store(1), calls: AtomicUsize::new(0) };
        let cache = SharedBlockCache::new(1);
        let Begin::Lead(mut leader) = cache.begin(BlockId(0)) else { panic!("first caller leads") };
        let followers: Vec<Follower<'_>> = (1..K)
            .map(|_| match cache.begin(BlockId(0)) {
                Begin::Follow(f) => f,
                _ => panic!("later callers follow the in-flight load"),
            })
            .collect();
        assert_eq!(st.calls.load(Ordering::Relaxed), 0, "the store call is still gated");
        let block = leader.attempt(&st).unwrap();
        for f in followers {
            assert!(Arc::ptr_eq(&f.wait().expect("the load succeeded"), &block));
        }
        assert_eq!(st.calls.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.loaded, stats.hits), (1, K as u64 - 1));
    }

    #[test]
    fn a_failed_lead_releases_its_followers_and_its_slot() {
        let cache = SharedBlockCache::new(1);
        let st = store(1);
        let Begin::Lead(mut leader) = cache.begin(BlockId(7)) else { panic!("leads") };
        let Begin::Follow(follower) = cache.begin(BlockId(7)) else { panic!("follows") };
        assert!(leader.attempt(&st).is_err());
        drop(leader);
        assert!(follower.wait().is_none(), "the follower learns the load failed");
        // The slot is free again.
        assert!(matches!(cache.begin(BlockId(0)), Begin::Lead(_)));
        assert_eq!(cache.stats().failed, 1);
    }

    #[test]
    fn the_first_claim_of_a_reserved_load_is_not_a_hit() {
        let cache = SharedBlockCache::new(2);
        let st = store(2);
        assert!(!cache.pin(BlockId(0)));
        let Begin::Lead(mut leader) = cache.reserve(BlockId(0)) else { panic!("leads") };
        leader.attempt(&st).unwrap();
        assert!(cache.claim(BlockId(0)).is_some());
        assert_eq!(cache.stats().hits, 0, "that claim's acquisition was the load");
        assert!(cache.claim(BlockId(0)).is_some());
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.claim(BlockId(1)).is_none());
    }
}
