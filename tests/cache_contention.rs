//! Multi-thread contention tests for the service's shared block cache:
//! hammer one `SharedBlockCache` from many threads and verify that no
//! cache-stat update is lost, that single-flight loads keep the books
//! exact under store faults, and that the resident set never exceeds the
//! configured capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use streamline_repro::field::block::{Block, BlockId};
use streamline_repro::iosim::{BlockStore, FaultPlan, FaultStore, MemoryStore};
use streamline_repro::math::{Aabb, Vec3};
use streamline_repro::serve::SharedBlockCache;

fn store(n: u32) -> MemoryStore {
    MemoryStore::from_blocks(
        (0..n)
            .map(|i| Block::zeroed(BlockId(i), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)))
            .collect(),
    )
}

/// Every get is either a hit or a load: after any interleaving of
/// concurrent `get_or_load`s, `hits + loaded` must equal the exact number
/// of calls made, and `loaded - purged` must equal the resident count.
#[test]
fn concurrent_access_loses_no_stat_updates() {
    const THREADS: usize = 8;
    const GETS_PER_THREAD: usize = 5_000;
    const BLOCKS: u32 = 64;

    let cache = Arc::new(SharedBlockCache::new(16));
    let st = Arc::new(store(BLOCKS));
    let observed_hits = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let st = Arc::clone(&st);
            let observed_hits = Arc::clone(&observed_hits);
            std::thread::spawn(move || {
                // Per-thread LCG over a skewed id distribution: half the
                // traffic on 8 hot blocks, half spread over all 64.
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
                for _ in 0..GETS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let id = if x & 1 == 0 {
                        BlockId(((x >> 33) % 8) as u32)
                    } else {
                        BlockId(((x >> 33) % BLOCKS as u64) as u32)
                    };
                    let (block, hit) = cache.get_or_load(id, st.as_ref()).expect("valid id");
                    assert_eq!(block.id, id);
                    if hit {
                        observed_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("cache worker");
    }

    let stats = cache.stats();
    let total_gets = (THREADS * GETS_PER_THREAD) as u64;
    assert_eq!(
        stats.hits + stats.loaded,
        total_gets,
        "lost stat updates: {} hits + {} loads != {} gets",
        stats.hits,
        stats.loaded,
        total_gets
    );
    assert_eq!(stats.hits, observed_hits.load(Ordering::Relaxed));
    assert_eq!(stats.loaded - stats.purged, cache.len() as u64);
    assert!(stats.purged > 0, "64 blocks through 16 slots must evict");
}

/// The resident set stays within capacity at every observation point, not
/// just at the end — sampled concurrently while other threads churn the
/// cache far past its capacity.
#[test]
fn resident_set_never_exceeds_capacity_under_churn() {
    const THREADS: usize = 6;
    const GETS_PER_THREAD: usize = 4_000;
    const BLOCKS: u32 = 96;

    let cache = Arc::new(SharedBlockCache::new(12));
    let capacity = cache.capacity();
    let st = Arc::new(store(BLOCKS));

    let churners: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let st = Arc::clone(&st);
            std::thread::spawn(move || {
                let mut x = (t as u64 + 7).wrapping_mul(0xd1342543de82ef95);
                for _ in 0..GETS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let id = BlockId(((x >> 33) % BLOCKS as u64) as u32);
                    cache.get_or_load(id, st.as_ref()).expect("valid id");
                    // Interleaved observation from the mutating threads
                    // themselves: the bound must hold mid-churn too.
                    assert!(cache.len() <= capacity);
                }
            })
        })
        .collect();

    // And an independent observer sampling while the churn runs.
    let observer = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                let resident = cache.resident();
                assert!(
                    resident.len() <= capacity,
                    "resident {} > capacity {capacity}",
                    resident.len()
                );
            }
        })
    };

    for h in churners {
        h.join().expect("churner");
    }
    observer.join().expect("observer");

    let stats = cache.stats();
    assert_eq!(stats.hits + stats.loaded, (THREADS * GETS_PER_THREAD) as u64);
    assert!(cache.len() <= capacity);
}

/// The bound is exactly the configured capacity, for every capacity: no
/// rounding up across locks, and no overshoot while loads are in flight.
#[test]
fn capacity_is_exactly_the_configured_block_count() {
    const THREADS: usize = 4;
    const GETS_PER_THREAD: usize = 500;
    const BLOCKS: u32 = 48;
    let st = Arc::new(store(BLOCKS));
    for cache_blocks in 1..=20 {
        let cache = Arc::new(SharedBlockCache::new(cache_blocks));
        assert_eq!(cache.capacity(), cache_blocks);
        let churners: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let st = Arc::clone(&st);
                std::thread::spawn(move || {
                    let mut x = (t as u64 + 11).wrapping_mul(0x9e3779b97f4a7c15);
                    for _ in 0..GETS_PER_THREAD {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let id = BlockId(((x >> 33) % BLOCKS as u64) as u32);
                        cache.get_or_load(id, st.as_ref()).expect("valid id");
                        assert!(cache.len() <= cache_blocks, "capacity {cache_blocks} exceeded");
                    }
                })
            })
            .collect();
        for h in churners {
            h.join().expect("churner");
        }
        assert!(cache.len() <= cache_blocks);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.loaded, (THREADS * GETS_PER_THREAD) as u64);
        assert_eq!(stats.loaded - stats.purged, cache.len() as u64);
    }
}

/// Under store faults every call still lands in exactly one bucket: a
/// hit (its own or a shared in-flight load), a load, or a failed load.
#[test]
fn faulted_loads_keep_hits_loads_and_failures_exact() {
    const THREADS: usize = 6;
    const GETS_PER_THREAD: usize = 2_000;
    const BLOCKS: u32 = 32;

    let mut plan = FaultPlan::new();
    for b in (0..BLOCKS).step_by(4) {
        plan = plan.transient(BlockId(b), 3);
    }
    for b in [1, 9, 17] {
        plan = plan.permanent(BlockId(b));
    }
    let inner: Arc<dyn BlockStore> = Arc::new(store(BLOCKS));
    let st = Arc::new(FaultStore::new(inner, plan));
    let cache = Arc::new(SharedBlockCache::new(8));
    let outcomes = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (cache, st, outcomes) =
                (Arc::clone(&cache), Arc::clone(&st), Arc::clone(&outcomes));
            std::thread::spawn(move || {
                let mut x = (t as u64 + 3).wrapping_mul(0xd1342543de82ef95);
                for _ in 0..GETS_PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let id = BlockId(((x >> 33) % BLOCKS as u64) as u32);
                    let slot = match cache.get_or_load(id, st.as_ref()) {
                        Ok((_, true)) => 0,
                        Ok((_, false)) => 1,
                        Err(_) => 2,
                    };
                    outcomes[slot].fetch_add(1, Ordering::Relaxed);
                    assert!(cache.len() <= 8);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("cache worker");
    }

    let stats = cache.stats();
    let calls = (THREADS * GETS_PER_THREAD) as u64;
    assert_eq!(stats.hits + stats.loaded + stats.failed, calls, "a call went uncounted");
    assert_eq!(stats.hits, outcomes[0].load(Ordering::Relaxed));
    assert_eq!(stats.loaded, outcomes[1].load(Ordering::Relaxed));
    assert_eq!(stats.failed, outcomes[2].load(Ordering::Relaxed));
    assert!(stats.failed > 0, "the plan must fire");
    assert_eq!(stats.failed, st.counters().faults_injected(), "one failed load per injected fault");
    assert_eq!(stats.loaded, st.counters().served, "every block the store served is one load");
    assert_eq!(stats.loaded - stats.purged, cache.len() as u64);
}
