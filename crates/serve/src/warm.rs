//! Warm-start manifests: persist the shared cache's residency on drain and
//! prefetch it on the next startup.
//!
//! A freshly started service pays a cold-cache penalty: the first request
//! touching each block eats a store load. When the service is restarted in
//! place (deploy, crash, host move), the block working set is usually the
//! same — so [`Service::shutdown`](crate::Service) can persist which blocks
//! were resident (a tiny list of ids, not the block data), and the next
//! instance can reload them before accepting traffic.
//!
//! The manifest rides in the same self-validating container format as run
//! checkpoints ([`streamline_ckpt`]), under its own `kind` so `obs-check`
//! and the resume path can tell them apart.

use crate::cache::SharedBlockCache;
use serde::{Deserialize, Serialize};
use std::path::Path;
use streamline_ckpt::{
    write_atomic, CkptError, CkptFile, CkptWriter, Meta, KIND_WARM_START, RESD_TAG,
};
use streamline_field::block::BlockId;
use streamline_iosim::BlockStore;

/// The persisted residency set of a drained service.
///
/// Manifests written before the cache lost its shards also carry a
/// `shards` count; fields are read by name, so they still read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStartManifest {
    /// Resident blocks in prefetch order: LRU order, coldest first.
    pub blocks: Vec<BlockId>,
}

impl WarmStartManifest {
    /// Capture the current residency of `cache`.
    pub fn of(cache: &SharedBlockCache) -> Self {
        WarmStartManifest { blocks: cache.manifest() }
    }

    /// Serialize into the checkpoint container (`kind = warm-start`).
    pub fn encode(&self, dataset: &str, cache_blocks: usize) -> Vec<u8> {
        let mut meta = Meta::new(KIND_WARM_START);
        meta.dataset = dataset.to_string();
        meta.cache_blocks = cache_blocks;
        let mut w = CkptWriter::new();
        w.section_value(streamline_ckpt::META_TAG, &meta);
        w.section_value(RESD_TAG, self);
        w.finish()
    }

    /// Write atomically to `path`.
    pub fn write(&self, path: &Path, dataset: &str, cache_blocks: usize) -> Result<(), CkptError> {
        write_atomic(path, &self.encode(dataset, cache_blocks))
    }

    /// Read a manifest back; rejects files of any other kind.
    pub fn read(path: &Path) -> Result<Self, CkptError> {
        let file = CkptFile::read(path)?;
        let meta = file.meta()?;
        if meta.kind != KIND_WARM_START {
            return Err(CkptError::Mismatch(format!(
                "expected a {KIND_WARM_START} manifest, found kind {:?}",
                meta.kind
            )));
        }
        file.value(RESD_TAG)
    }

    /// Prefetch every listed block into `cache`. Best-effort: blocks that
    /// fail to load are skipped. Returns how many loaded.
    pub fn prefetch(&self, cache: &SharedBlockCache, store: &dyn BlockStore) -> usize {
        cache.prefetch(&self.blocks, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_field::block::Block;
    use streamline_iosim::MemoryStore;
    use streamline_math::{Aabb, Vec3};

    fn store(n: u32) -> MemoryStore {
        MemoryStore::from_blocks(
            (0..n)
                .map(|i| Block::zeroed(BlockId(i), Aabb::unit(), 0, [2, 2, 2], Vec3::splat(1.0)))
                .collect(),
        )
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("slwarm-{tag}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn manifest_roundtrips_through_disk_and_rewarms_a_cold_cache() {
        let st = store(8);
        let cache = SharedBlockCache::new(4);
        for i in [0u32, 1, 2, 3, 5, 7] {
            cache.get_or_load(BlockId(i), &st).unwrap();
        }
        let manifest = WarmStartManifest::of(&cache);
        assert_eq!(manifest.blocks.len(), cache.len());

        let path = tmp("roundtrip");
        manifest.write(&path, "test-dataset", 4).unwrap();
        let back = WarmStartManifest::read(&path).unwrap();
        assert_eq!(back, manifest);

        let cold = SharedBlockCache::new(4);
        let loaded = back.prefetch(&cold, &st);
        assert_eq!(loaded, manifest.blocks.len());
        let mut got = cold.resident();
        let mut want = cache.resident();
        got.sort();
        want.sort();
        assert_eq!(got, want, "rewarmed residency must match the drained set");
        // Touching a prefetched block is a pure hit.
        let before = cold.stats().loaded;
        let (_, hit) = cold.get_or_load(manifest.blocks[0], &st).unwrap();
        assert!(hit);
        assert_eq!(cold.stats().loaded, before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_blocks_are_skipped_not_fatal() {
        let st = store(2);
        let manifest = WarmStartManifest { blocks: vec![BlockId(0), BlockId(9), BlockId(1)] };
        let cache = SharedBlockCache::new(4);
        assert_eq!(manifest.prefetch(&cache, &st), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_manifest_written_with_a_shard_count_still_reads() {
        // The shape manifests had while the cache was split into shards.
        #[derive(Serialize)]
        struct ShardedManifest {
            blocks: Vec<BlockId>,
            shards: usize,
        }
        let old = ShardedManifest { blocks: vec![BlockId(3), BlockId(0), BlockId(5)], shards: 8 };
        let mut w = CkptWriter::new();
        let mut meta = Meta::new(KIND_WARM_START);
        meta.dataset = "test-dataset".to_string();
        meta.cache_blocks = 16;
        w.section_value(streamline_ckpt::META_TAG, &meta);
        w.section_value(RESD_TAG, &old);
        let path = tmp("sharded");
        write_atomic(&path, &w.finish()).unwrap();
        let back = WarmStartManifest::read(&path).expect("an older manifest still reads");
        assert_eq!(back.blocks, old.blocks);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_checkpoints_are_rejected_as_manifests() {
        let mut w = CkptWriter::new();
        w.section_value(streamline_ckpt::META_TAG, &Meta::new(streamline_ckpt::KIND_RUN));
        let path = tmp("wrongkind");
        write_atomic(&path, &w.finish()).unwrap();
        let err = WarmStartManifest::read(&path).expect_err("run checkpoint is not a manifest");
        assert!(matches!(err, CkptError::Mismatch(_)), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }
}
