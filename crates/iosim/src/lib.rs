//! Block I/O substrate.
//!
//! The paper's algorithms read blocks from a parallel filesystem; here the
//! same contract is provided three ways:
//!
//! * [`store::DiskStore`] — a real on-disk store with its own binary block
//!   format ([`format`](mod@format)), used by the thread runtime and the examples,
//! * [`store::MemoryStore`] / [`store::FieldStore`] — in-memory stores for
//!   tests and for the simulated cluster (where I/O *time* is charged by the
//!   [`model::DiskModel`] instead of spent),
//! * [`lru::LruCache`] — the least-recently-used block cache of §4.2/§4.3
//!   ("old blocks are discarded if available main memory is insufficient"),
//!   whose load/purge counters feed block efficiency `E = (B_L − B_P)/B_L`
//!   (Eq. 2).

//!
//! [`fault::FaultStore`] wraps any store with a seeded, deterministic
//! fault-injection plan (transient/permanent I/O errors, corrupt payloads,
//! latency) so the degraded-mode paths in the drivers and the serve stack
//! can be exercised exactly.

pub mod fault;
pub mod format;
pub mod lru;
pub mod model;
pub mod store;
pub mod testutil;

pub use fault::{
    BlockFaults, ChaosConfigError, ChaosParams, FaultCounters, FaultKind, FaultPlan, FaultState,
    FaultStore, RankChaosParams, RankFaultPlan, INJECTED_BAD_MAGIC,
};
pub use lru::{CacheStats, LruCache};
pub use model::DiskModel;
pub use store::{BlockStore, DiskStore, FieldStore, MemoryStore, StoreError};
