//! A long-lived streamline *query service* over the SC09 machinery.
//!
//! The paper's algorithms are batch programs: one seed set in, one run out.
//! This crate recasts the Load-On-Demand locality idea as a serving
//! problem: many concurrent clients submit small seed sets against a shared
//! dataset, and the service amortizes block I/O across *all* in-flight
//! requests instead of within a single run.
//!
//! There is one serving [`engine`]: N replicas, each with a block cache,
//! circuit breakers, per-block queues, admission seats, worker threads and
//! as many I/O threads, behind a block→replica owner lookup on a
//! consistent-hash [`Ring`]. A streamline that leaves a replica's blocks is
//! parked with their owner — the paper's §4.1 hand-off, and the only
//! decision that depends on the replica count. [`Service`] is the
//! one-replica case, run with [`ServiceConfig::workers`] threads; the
//! `streamline-cluster` crate runs the same engine as N replicas and adds
//! failure detection, hot-block replication and bootstrap.
//!
//! Architecture:
//!
//! * **Admission control** — [`Service::submit`] accepts a [`Request`]
//!   (seeds + integration params + optional deadline) only while the total
//!   number of live seeds is below the configured queue capacity;
//!   otherwise it rejects immediately with the typed
//!   [`SubmitError::Overloaded`], never blocking the client.
//! * **Batch former** — pending streamlines are parked per owning block
//!   (the same parking discipline as the Load-On-Demand rank, see
//!   `streamline_core::load_on_demand`). Workers repeatedly claim the
//!   *resident* block with the most parked work, so one cache acquisition
//!   serves an entire coalesced batch — possibly spanning many requests.
//! * **Block cache and I/O threads** — one cache per replica
//!   ([`cache::SharedBlockCache`]) of exactly `cache_blocks` slots, with
//!   single-flight loads outside its lock. A replica's I/O threads, one
//!   per worker, load the blocks parked work waits on, in arrival order,
//!   so workers never wait on block I/O. Eviction keeps every block with
//!   parked work and otherwise drops the least-accessed block. The cache
//!   reports the paper's block efficiency `E = (B_L − B_P)/B_L` at the
//!   service level.
//! * **Degraded mode** — failed block loads are retried with bounded
//!   exponential backoff and deterministic jitter; blocks that keep
//!   failing are quarantined by per-block circuit breakers
//!   ([`breaker::BlockBreakers`]) that fail fast while open and probe
//!   half-open after a cooldown. Affected seeds resolve typed as
//!   [`Outcome::Partial`] (terminated `BlockUnavailable`, carrying the
//!   curve computed so far) instead of wedging their tickets — faults can
//!   deny results, never corrupt them.
//!   A panicking worker batch is contained the same way: accounting is
//!   repaired, the affected requests resolve as the typed
//!   [`ServiceGone`], and the worker goes back to claiming work — one
//!   panic never cascades into hung or panicking clients.
//! * **Deadlines and drain** — each request may carry a deadline; expired
//!   requests stop consuming compute and complete with
//!   [`Outcome::DeadlineExceeded`]. [`Service::shutdown`] drains all
//!   in-flight work before workers exit.
//! * **Metrics** — every counter lives in a `streamline_obs`
//!   [`MetricsRegistry`](streamline_obs::MetricsRegistry);
//!   [`Service::metrics`] snapshots it as [`metrics::ServiceMetrics`]
//!   (throughput, queue depth, p50/p95/p99 latency, cache behavior) and
//!   [`Service::dump_metrics`] renders it in Prometheus text format.
//!   With [`service::ServiceConfig::trace_bucket`] set, workers also
//!   record a wall-clock idle/compute/comm timeline exposed by
//!   [`Service::timeline`]; a worker waiting for a block load is idle.
//!
//! Streamlines computed here are bit-identical to the single-shot drivers:
//! both advance through `streamline_core::advance`.

pub mod breaker;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod ring;
pub mod service;
pub mod warm;

pub use breaker::{
    Admit, BlockBreakers, BreakerClock, BreakerConfig, ManualClock, RetryPolicy, SystemClock,
};
pub use cache::SharedBlockCache;
pub use engine::{Engine, EngineHandle};
pub use metrics::{LatencyHistogram, ServiceMetrics};
pub use ring::Ring;
pub use service::{
    Outcome, Request, Response, Service, ServiceConfig, ServiceGone, SubmitError, Ticket, TryWait,
};
pub use warm::WarmStartManifest;
