//! Block stores: where block payloads come from.
//!
//! All three algorithms consume blocks through the [`BlockStore`] trait, so
//! the same algorithm code runs against real files (thread runtime,
//! examples), a prebuilt in-memory set (tests) or on-demand field sampling
//! (the simulated cluster, where load *time* is charged by the cost model
//! rather than spent).

use crate::format;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use streamline_field::block::{Block, BlockId};
use streamline_field::dataset::Dataset;

/// Why a block could not be produced.
#[derive(Debug)]
pub enum StoreError {
    /// The id is outside the store's decomposition.
    UnknownBlock { id: BlockId, num_blocks: usize },
    /// Reading the block's backing file failed.
    Io { path: PathBuf, source: io::Error },
    /// The file was read but its payload is not a valid block.
    Decode { path: PathBuf, source: format::FormatError },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownBlock { id, num_blocks } => {
                write!(f, "unknown block {id:?} (store holds {num_blocks} blocks)")
            }
            StoreError::Io { path, source } => {
                write!(f, "reading block file {}: {source}", path.display())
            }
            StoreError::Decode { path, source } => {
                write!(f, "decoding block file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::UnknownBlock { .. } => None,
            StoreError::Io { source, .. } => Some(source),
            StoreError::Decode { source, .. } => Some(source),
        }
    }
}

/// Source of block payloads. Thread-safe: multiple ranks load concurrently.
pub trait BlockStore: Send + Sync {
    /// Load one block, reporting failures (missing/corrupt files, unknown
    /// ids) as typed errors.
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError>;

    /// Load one block, panicking on failure with the error's context. The
    /// simulation drivers use this: an unreadable block there is a setup
    /// bug, not a runtime condition to recover from.
    fn load(&self, id: BlockId) -> Arc<Block> {
        self.try_load(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of blocks available.
    fn num_blocks(&self) -> usize;

    /// Mid-run mutable state of the store itself, if it has any. Stateless
    /// stores (memory, field, disk) return `None`; [`crate::FaultStore`]
    /// returns its attempt counts and injection counters so checkpoints can
    /// persist the remaining fault schedule.
    fn fault_state(&self) -> Option<crate::fault::FaultState> {
        None
    }

    /// Restore state captured by [`Self::fault_state`]. No-op for stateless
    /// stores.
    fn restore_fault_state(&self, state: &crate::fault::FaultState) {
        let _ = state;
    }
}

/// All blocks pre-built in memory.
pub struct MemoryStore {
    blocks: Vec<Arc<Block>>,
}

impl MemoryStore {
    /// Build every block of `dataset` up front (in parallel — sampling a
    /// 512-block dataset is embarrassingly parallel).
    pub fn build(dataset: &Dataset) -> Self {
        use rayon::prelude::*;
        let ids: Vec<_> = dataset.decomp.all_blocks().collect();
        let blocks = ids.into_par_iter().map(|id| Arc::new(dataset.build_block(id))).collect();
        MemoryStore { blocks }
    }

    pub fn from_blocks(blocks: Vec<Block>) -> Self {
        MemoryStore { blocks: blocks.into_iter().map(Arc::new).collect() }
    }
}

impl BlockStore for MemoryStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        self.blocks
            .get(id.index())
            .map(Arc::clone)
            .ok_or(StoreError::UnknownBlock { id, num_blocks: self.blocks.len() })
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Samples blocks from the dataset's analytic field on first use and
/// memoizes them — the store the simulated cluster uses, so a 512-block
/// dataset never needs to be fully resident.
///
/// Loads are single-flight: when several ranks race on the same id, one
/// builds the block and the rest wait for it instead of sampling the same
/// lattice redundantly.
pub struct FieldStore {
    dataset: Dataset,
    cache: Mutex<HashMap<BlockId, Arc<Block>>>,
    /// Ids currently being built; waiters park on the condvar.
    inflight: Mutex<HashSet<BlockId>>,
    inflight_done: Condvar,
    builds: AtomicU64,
    coalesced: AtomicU64,
}

/// Removes the in-flight marker even if block construction panics, so
/// waiters wake up and retry instead of parking forever.
struct InflightGuard<'a> {
    store: &'a FieldStore,
    id: BlockId,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.store.inflight.lock().remove(&self.id);
        self.store.inflight_done.notify_all();
    }
}

impl FieldStore {
    pub fn new(dataset: Dataset) -> Self {
        FieldStore {
            dataset,
            cache: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            builds: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Blocks actually sampled from the field.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Loads that waited on another rank's in-flight build of the same id
    /// instead of building redundantly.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

impl BlockStore for FieldStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        if id.index() >= self.dataset.decomp.num_blocks() {
            return Err(StoreError::UnknownBlock {
                id,
                num_blocks: self.dataset.decomp.num_blocks(),
            });
        }
        loop {
            if let Some(b) = self.cache.lock().get(&id) {
                return Ok(Arc::clone(b));
            }
            // Claim the build or wait for whoever holds the claim.
            {
                let mut inflight = self.inflight.lock();
                if inflight.contains(&id) {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    while inflight.contains(&id) {
                        self.inflight_done.wait(&mut inflight);
                    }
                    // Re-check the cache (covers the builder panicking too).
                    continue;
                }
                inflight.insert(id);
            }
            let guard = InflightGuard { store: self, id };
            // A build may have finished between the cache miss above and
            // the claim (its builder caches before releasing its claim).
            if let Some(b) = self.cache.lock().get(&id) {
                return Ok(Arc::clone(b));
            }
            // Sample outside both locks: block construction is the
            // expensive part, and waiters are parked, not spinning.
            let built = Arc::new(self.dataset.build_block(id));
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.cache.lock().insert(id, Arc::clone(&built));
            drop(guard);
            return Ok(built);
        }
    }

    fn num_blocks(&self) -> usize {
        self.dataset.decomp.num_blocks()
    }
}

/// Real files on disk, one per block, in the [`format`] binary layout.
pub struct DiskStore {
    dir: PathBuf,
    num_blocks: usize,
}

impl DiskStore {
    /// Write every block of `dataset` into `dir` (created if needed) and
    /// open a store over it. Sampling and writing are parallel per block.
    pub fn create(dataset: &Dataset, dir: &Path) -> io::Result<Self> {
        use rayon::prelude::*;
        std::fs::create_dir_all(dir)?;
        let ids: Vec<BlockId> = dataset.decomp.all_blocks().collect();
        ids.into_par_iter().try_for_each(|id| {
            let block = dataset.build_block(id);
            std::fs::write(Self::block_path(dir, id), format::encode(&block))
        })?;
        Ok(DiskStore { dir: dir.to_path_buf(), num_blocks: dataset.decomp.num_blocks() })
    }

    /// Open an existing store directory containing `num_blocks` block files.
    pub fn open(dir: &Path, num_blocks: usize) -> Self {
        DiskStore { dir: dir.to_path_buf(), num_blocks }
    }

    fn block_path(dir: &Path, id: BlockId) -> PathBuf {
        dir.join(format!("block_{:05}.slbk", id.0))
    }

    /// Path of one block's file.
    pub fn path_of(&self, id: BlockId) -> PathBuf {
        Self::block_path(&self.dir, id)
    }
}

impl BlockStore for DiskStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        let path = self.path_of(id);
        let bytes =
            std::fs::read(&path).map_err(|source| StoreError::Io { path: path.clone(), source })?;
        let block = format::decode(&bytes).map_err(|source| StoreError::Decode { path, source })?;
        Ok(Arc::new(block))
    }

    fn num_blocks(&self) -> usize {
        self.num_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use streamline_field::dataset::DatasetConfig;

    fn tiny_dataset() -> Dataset {
        let mut cfg = DatasetConfig::tiny();
        cfg.blocks_per_axis = [2, 2, 2];
        cfg.cells_per_block = [4, 4, 4];
        Dataset::thermal_hydraulics(cfg)
    }

    #[test]
    fn memory_store_serves_all_blocks() {
        let ds = tiny_dataset();
        let store = MemoryStore::build(&ds);
        assert_eq!(store.num_blocks(), 8);
        for id in ds.decomp.all_blocks() {
            let b = store.load(id);
            assert_eq!(b.id, id);
            assert_eq!(b.bounds, ds.decomp.block_bounds(id));
        }
    }

    #[test]
    fn field_store_memoizes() {
        let ds = tiny_dataset();
        let store = FieldStore::new(ds);
        let a = store.load(BlockId(3));
        let b = store.load(BlockId(3));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn field_store_matches_memory_store() {
        let ds = tiny_dataset();
        let mem = MemoryStore::build(&ds);
        let field = FieldStore::new(ds);
        for i in 0..8u32 {
            assert_eq!(*mem.load(BlockId(i)), *field.load(BlockId(i)));
        }
    }

    #[test]
    fn field_store_single_flight_under_contention() {
        // 8 threads race on the same two ids; every id must be sampled
        // exactly once, with the losers coalescing onto the winner's build.
        let store = Arc::new(FieldStore::new(tiny_dataset()));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || store.load(BlockId(t % 2)))
            })
            .collect();
        let blocks: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(store.builds(), 2, "each id must be built exactly once");
        for b in &blocks {
            assert!(Arc::ptr_eq(b, &store.load(b.id)), "all loads share one allocation");
        }
    }

    #[test]
    fn disk_store_roundtrips_blocks() {
        let ds = tiny_dataset();
        let dir = TempDir::new("slbk-test");
        let store = DiskStore::create(&ds, dir.path()).unwrap();
        let mem = MemoryStore::build(&ds);
        for id in ds.decomp.all_blocks() {
            assert_eq!(*store.load(id), *mem.load(id));
        }
    }

    #[test]
    #[should_panic(expected = "reading block file")]
    fn disk_store_missing_file_panics_with_path() {
        let store = DiskStore::open(Path::new("/nonexistent-dir-xyz"), 1);
        let _ = store.load(BlockId(0));
    }

    #[test]
    fn disk_store_missing_file_yields_io_error() {
        let store = DiskStore::open(Path::new("/nonexistent-dir-xyz"), 1);
        match store.try_load(BlockId(0)) {
            Err(StoreError::Io { path, source }) => {
                assert!(path.to_string_lossy().contains("nonexistent-dir-xyz"));
                assert_eq!(source.kind(), io::ErrorKind::NotFound);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn disk_store_corrupt_file_yields_decode_error() {
        let dir = TempDir::new("slbk-corrupt");
        let store = DiskStore::open(dir.path(), 1);
        std::fs::write(store.path_of(BlockId(0)), b"not a block").unwrap();
        match store.try_load(BlockId(0)) {
            Err(StoreError::Decode { path, .. }) => {
                assert!(path.to_string_lossy().ends_with(".slbk"));
            }
            other => panic!("expected Decode error, got {other:?}"),
        }
    }

    #[test]
    fn memory_store_unknown_block_is_typed() {
        let ds = tiny_dataset();
        let store = MemoryStore::build(&ds);
        match store.try_load(BlockId(99)) {
            Err(StoreError::UnknownBlock { id, num_blocks }) => {
                assert_eq!(id, BlockId(99));
                assert_eq!(num_blocks, 8);
            }
            other => panic!("expected UnknownBlock, got {other:?}"),
        }
        assert!(FieldStore::new(tiny_dataset()).try_load(BlockId(99)).is_err());
    }
}
