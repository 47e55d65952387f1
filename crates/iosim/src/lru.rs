//! The least-recently-used block cache of §4.2/§4.3.
//!
//! "The Load On Demand algorithm makes use of caching of blocks in a LRU
//! fashion; old blocks are discarded if available main memory is
//! insufficient to accommodate new blocks." The cache tracks the counters
//! behind Eq. 2's block efficiency: loads `B_L` and purges `B_P`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use streamline_field::block::{Block, BlockId};

/// Load/purge/hit counters for one cache (aggregated into Eq. 2 per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Blocks loaded (B_L).
    pub loaded: u64,
    /// Blocks purged (B_P).
    pub purged: u64,
    /// Requests served without a load.
    pub hits: u64,
    /// Load attempts that errored. A failed load is *not* a load: nothing
    /// entered the cache, so it must not count toward B_L (which would skew
    /// Eq. 2) nor break the `hits + loaded + failed == gets` invariant.
    /// `#[serde(default)]` keeps reports from before this counter readable.
    #[serde(default)]
    pub failed: u64,
}

impl CacheStats {
    /// Block efficiency `E = (B_L − B_P) / B_L` (Eq. 2); 1.0 when nothing
    /// was ever loaded.
    ///
    /// The numerator is computed in `f64`, not by `u64` subtraction: merged
    /// partial per-worker snapshots taken mid-drain can transiently show
    /// `purged > loaded` (one worker's purge of another worker's load), and
    /// the unsigned subtraction panicked in debug builds. E goes negative in
    /// that window, which is the honest reading.
    pub fn efficiency(&self) -> f64 {
        if self.loaded == 0 {
            1.0
        } else {
            (self.loaded as f64 - self.purged as f64) / self.loaded as f64
        }
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.loaded += other.loaded;
        self.purged += other.purged;
        self.hits += other.hits;
        self.failed += other.failed;
    }

    /// Mirror these counters into `registry` under the stable
    /// `streamline_cache_*` names.
    pub fn export_into(&self, registry: &streamline_obs::MetricsRegistry) {
        use streamline_obs::names;
        registry.set_counter(names::CACHE_LOADED_TOTAL, self.loaded);
        registry.set_counter(names::CACHE_PURGED_TOTAL, self.purged);
        registry.set_counter(names::CACHE_HITS_TOTAL, self.hits);
        registry.set_counter(names::CACHE_FAILED_LOADS_TOTAL, self.failed);
    }
}

struct Entry {
    block: Arc<Block>,
    last_use: u64,
}

/// An LRU cache of blocks with a fixed capacity in block count
/// ("a user defined upper bound", §5).
///
/// ```
/// use std::sync::Arc;
/// use streamline_field::block::{Block, BlockId};
/// use streamline_iosim::LruCache;
/// use streamline_math::{Aabb, Vec3};
///
/// let block = |id| Arc::new(Block::zeroed(BlockId(id), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)));
/// let mut cache = LruCache::new(2);
/// cache.insert(block(1));
/// cache.insert(block(2));
/// cache.get(BlockId(1));                       // refresh 1, so 2 is now LRU
/// assert_eq!(cache.insert(block(3)), Some(BlockId(2)));
/// assert_eq!(cache.stats().purged, 1);         // B_P of Eq. 2
/// ```
pub struct LruCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<BlockId, Entry>,
    stats: CacheStats,
}

impl LruCache {
    /// `capacity` must be at least 1 (a rank must be able to hold the block
    /// it is integrating in).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        LruCache { capacity, tick: 0, entries: HashMap::new(), stats: CacheStats::default() }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `id` is resident (does not touch recency).
    pub fn contains(&self, id: BlockId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Resident block ids (unordered).
    pub fn resident(&self) -> Vec<BlockId> {
        self.entries.keys().copied().collect()
    }

    /// A resident block, without touching its recency or the counters.
    pub fn peek(&self, id: BlockId) -> Option<Arc<Block>> {
        self.entries.get(&id).map(|e| Arc::clone(&e.block))
    }

    /// Get a resident block, refreshing its recency. `None` on miss (the
    /// caller decides whether to load — loading costs I/O time that the
    /// algorithms account for explicitly).
    pub fn get(&mut self, id: BlockId) -> Option<Arc<Block>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.last_use = tick;
                self.stats.hits += 1;
                Some(Arc::clone(&e.block))
            }
            None => None,
        }
    }

    /// Insert a freshly loaded block, evicting the least-recently-used
    /// resident block if at capacity. Returns the evicted id, if any.
    /// Counts one load (and one purge per eviction).
    pub fn insert(&mut self, block: Arc<Block>) -> Option<BlockId> {
        self.tick += 1;
        let id = block.id;
        debug_assert!(!self.entries.contains_key(&id), "inserting resident block {id}");
        self.stats.loaded += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            // O(n) scan; caches hold at most a few hundred blocks.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k)
                .expect("cache at capacity has entries");
            self.entries.remove(&victim);
            self.stats.purged += 1;
            evicted = Some(victim);
        }
        self.entries.insert(id, Entry { block, last_use: self.tick });
        evicted
    }

    /// Record a load attempt that errored and therefore inserted nothing.
    pub fn record_failed(&mut self) {
        self.stats.failed += 1;
    }

    /// Residency manifest for checkpoints: resident block ids in recency
    /// order, least recently used first.
    pub fn manifest(&self) -> Vec<BlockId> {
        let mut ids: Vec<(BlockId, u64)> =
            self.entries.iter().map(|(&id, e)| (id, e.last_use)).collect();
        ids.sort_by_key(|&(_, last_use)| last_use);
        ids.into_iter().map(|(id, _)| id).collect()
    }

    /// Rebuild the cache from a checkpoint: blocks arrive in [`Self::manifest`]
    /// order (coldest first), recency ranks are reassigned contiguously, and
    /// the stats/tick counters are overwritten with the snapshotted values.
    /// Nothing here counts as a load, hit, or purge — the activity already
    /// happened before the snapshot and lives in `stats`.
    pub fn restore(&mut self, blocks: Vec<Arc<Block>>, stats: CacheStats) {
        assert!(blocks.len() <= self.capacity, "snapshot exceeds cache capacity");
        self.entries.clear();
        // Contiguous ranks below any future tick preserve the eviction
        // order; the absolute tick values carry no other meaning.
        self.tick = blocks.len() as u64;
        for (i, block) in blocks.into_iter().enumerate() {
            let id = block.id;
            self.entries.insert(id, Entry { block, last_use: i as u64 });
        }
        self.stats = stats;
    }

    /// Drop everything (counts purges — a purge is a purge).
    pub fn clear(&mut self) {
        self.stats.purged += self.entries.len() as u64;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_math::{Aabb, Vec3};

    fn block(id: u32) -> Arc<Block> {
        Arc::new(Block::zeroed(BlockId(id), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)))
    }

    #[test]
    fn insert_get_hit_miss() {
        let mut c = LruCache::new(2);
        assert!(c.get(BlockId(1)).is_none());
        c.insert(block(1));
        assert!(c.get(BlockId(1)).is_some());
        let s = c.stats();
        assert_eq!(s.loaded, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.purged, 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(block(1));
        c.insert(block(2));
        // Touch 1 so 2 becomes LRU.
        c.get(BlockId(1));
        let evicted = c.insert(block(3));
        assert_eq!(evicted, Some(BlockId(2)));
        assert!(c.contains(BlockId(1)));
        assert!(c.contains(BlockId(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LruCache::new(3);
        for i in 0..50 {
            c.insert(block(i));
            assert!(c.len() <= 3);
        }
        assert_eq!(c.stats().loaded, 50);
        assert_eq!(c.stats().purged, 47);
    }

    #[test]
    fn efficiency_matches_eq2() {
        let mut c = LruCache::new(2);
        for i in 0..4 {
            c.insert(block(i));
        }
        // B_L = 4, B_P = 2 => E = 0.5.
        assert!((c.stats().efficiency() - 0.5).abs() < 1e-12);
        // Untouched cache is perfectly efficient.
        assert_eq!(CacheStats::default().efficiency(), 1.0);
    }

    #[test]
    fn efficiency_survives_purged_exceeding_loaded() {
        // A partial snapshot merged mid-drain can see more purges than
        // loads; the old u64 subtraction panicked in debug builds here.
        let s = CacheStats { loaded: 2, purged: 5, hits: 0, failed: 0 };
        let e = s.efficiency();
        assert!(e.is_finite());
        assert!((e - (-1.5)).abs() < 1e-12, "E = (2-5)/2, got {e}");
    }

    #[test]
    fn clear_counts_purges() {
        let mut c = LruCache::new(4);
        c.insert(block(1));
        c.insert(block(2));
        c.clear();
        assert_eq!(c.stats().purged, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn merge_stats() {
        let mut a = CacheStats { loaded: 3, purged: 1, hits: 7, failed: 2 };
        a.merge(&CacheStats { loaded: 2, purged: 2, hits: 1, failed: 1 });
        assert_eq!(a, CacheStats { loaded: 5, purged: 3, hits: 8, failed: 3 });
    }

    #[test]
    fn failed_load_is_not_a_load() {
        let mut c = LruCache::new(2);
        c.insert(block(1));
        c.record_failed();
        c.record_failed();
        let s = c.stats();
        assert_eq!(s.loaded, 1, "errored loads must not count toward B_L");
        assert_eq!(s.failed, 2);
        // Eq. 2 unaffected by failures: nothing was loaded or purged by them.
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        LruCache::new(0);
    }

    #[test]
    fn manifest_orders_coldest_first() {
        let mut c = LruCache::new(3);
        c.insert(block(1));
        c.insert(block(2));
        c.insert(block(3));
        c.get(BlockId(1)); // 1 becomes hottest; order is now 2, 3, 1
        assert_eq!(c.manifest(), vec![BlockId(2), BlockId(3), BlockId(1)]);
    }

    #[test]
    fn restore_preserves_recency_and_stats_exactly() {
        let mut c = LruCache::new(2);
        c.insert(block(1));
        c.insert(block(2));
        c.get(BlockId(1));
        let manifest = c.manifest();
        let stats = c.stats();

        let mut r = LruCache::new(2);
        r.restore(manifest.iter().map(|id| block(id.0)).collect(), stats);
        assert_eq!(r.stats(), stats, "restore must not count loads or hits");
        assert_eq!(r.manifest(), manifest, "recency order must survive the round trip");
        // Behavioral equivalence: the next eviction picks the same victim.
        let evicted = r.insert(block(9));
        assert_eq!(evicted, Some(BlockId(2)), "block 2 was LRU before the snapshot");
    }

    #[test]
    #[should_panic(expected = "snapshot exceeds cache capacity")]
    fn restore_rejects_oversized_snapshot() {
        let mut c = LruCache::new(1);
        c.restore(vec![block(1), block(2)], CacheStats::default());
    }

    #[test]
    fn stats_export_mirrors_into_registry() {
        use streamline_obs::{names, MetricValue, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let s = CacheStats { loaded: 5, purged: 3, hits: 8, failed: 1 };
        s.export_into(&reg);
        assert_eq!(reg.get(names::CACHE_LOADED_TOTAL), Some(MetricValue::Counter(5)));
        assert_eq!(reg.get(names::CACHE_PURGED_TOTAL), Some(MetricValue::Counter(3)));
        assert_eq!(reg.get(names::CACHE_HITS_TOTAL), Some(MetricValue::Counter(8)));
        assert_eq!(reg.get(names::CACHE_FAILED_LOADS_TOTAL), Some(MetricValue::Counter(1)));
    }
}
