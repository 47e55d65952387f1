//! Stable metric names.
//!
//! Everything the workspace exports is registered under one of these
//! constants, so dashboards and tests can rely on the names across
//! releases. Conventions follow Prometheus: `_total` for counters, a unit
//! suffix (`_seconds`, `_nanoseconds`, `_blocks`) for gauges and
//! histograms.
//!
//! Three namespaces:
//! - `streamline_run_*` — one batch run (any driver), mirrored from
//!   `RunReport`. These are the paper's §5 quantities: wall-clock, total
//!   I/O, total communication, block efficiency (Eq. 2), load imbalance.
//! - `streamline_cache_*` / `streamline_faults_*` — block cache and fault
//!   injection counters (`CacheStats`, `FaultCounters`).
//! - `streamline_serve_*` — the live query service; these update while the
//!   service runs and are what `Service::dump_metrics` exposes for
//!   scraping.
//! - `streamline_ckpt_*` — the checkpoint/restart subsystem: snapshots
//!   written and restored, bytes moved, and time spent doing it.

// One batch run (RunReport).
pub const RUN_WALL_SECONDS: &str = "streamline_run_wall_seconds";
pub const RUN_COMPUTE_SECONDS: &str = "streamline_run_compute_seconds";
pub const RUN_IO_SECONDS: &str = "streamline_run_io_seconds";
pub const RUN_COMM_SECONDS: &str = "streamline_run_comm_seconds";
pub const RUN_IDLE_SECONDS: &str = "streamline_run_idle_seconds";
pub const RUN_RANKS: &str = "streamline_run_ranks";
pub const RUN_EVENTS_TOTAL: &str = "streamline_run_events_total";
pub const RUN_MSGS_TOTAL: &str = "streamline_run_messages_total";
pub const RUN_BYTES_SENT_TOTAL: &str = "streamline_run_bytes_sent_total";
pub const RUN_BLOCKS_LOADED_TOTAL: &str = "streamline_run_blocks_loaded_total";
pub const RUN_BLOCKS_PURGED_TOTAL: &str = "streamline_run_blocks_purged_total";
pub const RUN_STEPS_TOTAL: &str = "streamline_run_steps_total";
pub const RUN_STREAMLINES_TERMINATED_TOTAL: &str = "streamline_run_streamlines_terminated_total";
pub const RUN_SAMPLER_HITS_TOTAL: &str = "streamline_run_sampler_hits_total";
pub const RUN_SAMPLER_MISSES_TOTAL: &str = "streamline_run_sampler_misses_total";
// Batch advection kernel: lanes advanced batched, and the mean filled
// fraction of the configured batch width.
pub const RUN_BATCHED_LANES_TOTAL: &str = "streamline_run_batched_lanes_total";
pub const RUN_BATCH_OCCUPANCY: &str = "streamline_run_batch_occupancy";
pub const RUN_LOAD_RETRIES_TOTAL: &str = "streamline_run_load_retries_total";
pub const RUN_LOAD_FAILURES_TOTAL: &str = "streamline_run_load_failures_total";
pub const RUN_UNAVAILABLE_TERMINATIONS_TOTAL: &str =
    "streamline_run_unavailable_terminations_total";
pub const RUN_BLOCK_EFFICIENCY: &str = "streamline_run_block_efficiency";
pub const RUN_LOAD_IMBALANCE: &str = "streamline_run_load_imbalance";
// Scheduling diagnostics (the follow-up load-balancing literature):
// ping-pong streamlines, balancing-protocol traffic, participation and
// communication-overhead share.
pub const RUN_PINGPONG_STREAMLINES_TOTAL: &str = "streamline_run_pingpong_streamlines_total";
pub const RUN_BALANCE_MSGS_TOTAL: &str = "streamline_run_balance_messages_total";
pub const RUN_BALANCE_BYTES_TOTAL: &str = "streamline_run_balance_bytes_total";
pub const RUN_PARTICIPATION_RATIO: &str = "streamline_run_participation_ratio";
pub const RUN_COMM_OVERHEAD_SHARE: &str = "streamline_run_comm_overhead_share";
// Streaming ingestion: epochs in the run's seed schedule, epochs the
// folded termination frontier confirmed complete, and the
// arrival→completion lag over confirmed epochs.
pub const RUN_INGEST_EPOCHS: &str = "streamline_run_ingest_epochs";
pub const RUN_FRONTIER_EPOCHS: &str = "streamline_run_frontier_epochs";
pub const RUN_FRONTIER_LAG_MEAN_SECONDS: &str = "streamline_run_frontier_lag_mean_seconds";
pub const RUN_FRONTIER_LAG_MAX_SECONDS: &str = "streamline_run_frontier_lag_max_seconds";

// Block cache (CacheStats).
pub const CACHE_LOADED_TOTAL: &str = "streamline_cache_loaded_total";
pub const CACHE_PURGED_TOTAL: &str = "streamline_cache_purged_total";
pub const CACHE_HITS_TOTAL: &str = "streamline_cache_hits_total";
pub const CACHE_FAILED_LOADS_TOTAL: &str = "streamline_cache_failed_loads_total";

// Fault injection (FaultCounters).
pub const FAULTS_ATTEMPTS_TOTAL: &str = "streamline_faults_attempts_total";
pub const FAULTS_SERVED_TOTAL: &str = "streamline_faults_served_total";
pub const FAULTS_IO_INJECTED_TOTAL: &str = "streamline_faults_io_injected_total";
pub const FAULTS_DECODE_INJECTED_TOTAL: &str = "streamline_faults_decode_injected_total";
pub const FAULTS_LATENCY_INJECTED_TOTAL: &str = "streamline_faults_latency_injected_total";

// Rank fail-stop faults (RunReport resilience accounting).
pub const FAULTS_RANK_DEATHS_TOTAL: &str = "streamline_faults_rank_deaths_total";
pub const FAULTS_RANK_LOST_STREAMLINES_TOTAL: &str =
    "streamline_faults_rank_lost_streamlines_total";
pub const FAULTS_RANK_REASSIGNED_STREAMLINES_TOTAL: &str =
    "streamline_faults_rank_reassigned_streamlines_total";
pub const FAULTS_RANK_DROPPED_EVENTS_TOTAL: &str = "streamline_faults_rank_dropped_events_total";
pub const FAULTS_RANK_DETECTION_LATENCY_MEAN_SECONDS: &str =
    "streamline_faults_rank_detection_latency_mean_seconds";
pub const FAULTS_RANK_DETECTION_LATENCY_MAX_SECONDS: &str =
    "streamline_faults_rank_detection_latency_max_seconds";

// The live query service.
pub const SERVE_WORKERS: &str = "streamline_serve_workers";
pub const SERVE_UPTIME_SECONDS: &str = "streamline_serve_uptime_seconds";
pub const SERVE_SUBMITTED_TOTAL: &str = "streamline_serve_requests_submitted_total";
pub const SERVE_COMPLETED_TOTAL: &str = "streamline_serve_requests_completed_total";
pub const SERVE_REJECTED_TOTAL: &str = "streamline_serve_requests_rejected_total";
pub const SERVE_DEADLINE_EXPIRED_TOTAL: &str = "streamline_serve_requests_deadline_expired_total";
pub const SERVE_PARTIAL_TOTAL: &str = "streamline_serve_requests_partial_total";
pub const SERVE_LOAD_RETRIES_TOTAL: &str = "streamline_serve_load_retries_total";
pub const SERVE_LOAD_FAILURES_TOTAL: &str = "streamline_serve_load_failures_total";
pub const SERVE_BREAKER_FAST_FAILS_TOTAL: &str = "streamline_serve_breaker_fast_fails_total";
pub const SERVE_BREAKER_TRIPS_TOTAL: &str = "streamline_serve_breaker_trips_total";
pub const SERVE_BLOCKS_QUARANTINED: &str = "streamline_serve_blocks_quarantined";
pub const SERVE_STREAMLINES_COMPLETED_TOTAL: &str = "streamline_serve_streamlines_completed_total";
pub const SERVE_STREAMLINES_UNAVAILABLE_TOTAL: &str =
    "streamline_serve_streamlines_unavailable_total";
pub const SERVE_STEPS_TOTAL: &str = "streamline_serve_steps_total";
pub const SERVE_SAMPLER_HITS_TOTAL: &str = "streamline_serve_sampler_hits_total";
pub const SERVE_SAMPLER_MISSES_TOTAL: &str = "streamline_serve_sampler_misses_total";
pub const SERVE_BATCHED_LANES_TOTAL: &str = "streamline_serve_batched_lanes_total";
pub const SERVE_QUEUE_DEPTH: &str = "streamline_serve_queue_depth";
pub const SERVE_QUEUE_CAPACITY: &str = "streamline_serve_queue_capacity";
pub const SERVE_CACHE_RESIDENT_BLOCKS: &str = "streamline_serve_cache_resident_blocks";
pub const SERVE_CACHE_CAPACITY_BLOCKS: &str = "streamline_serve_cache_capacity_blocks";
pub const SERVE_CACHE_LOADED_TOTAL: &str = "streamline_serve_cache_loaded_total";
pub const SERVE_CACHE_PURGED_TOTAL: &str = "streamline_serve_cache_purged_total";
pub const SERVE_CACHE_HITS_TOTAL: &str = "streamline_serve_cache_hits_total";
pub const SERVE_CACHE_FAILED_LOADS_TOTAL: &str = "streamline_serve_cache_failed_loads_total";
pub const SERVE_BLOCK_EFFICIENCY: &str = "streamline_serve_block_efficiency";
pub const SERVE_LATENCY_NANOSECONDS: &str = "streamline_serve_request_latency_nanoseconds";
pub const SERVE_WORKER_PANICS_TOTAL: &str = "streamline_serve_worker_panics_total";
pub const SERVE_REQUESTS_GONE_TOTAL: &str = "streamline_serve_requests_gone_total";

// Checkpoint/restart.
pub const CKPT_SNAPSHOTS_TOTAL: &str = "streamline_ckpt_snapshots_total";
pub const CKPT_RESTORES_TOTAL: &str = "streamline_ckpt_restores_total";
pub const CKPT_WRITE_BYTES_TOTAL: &str = "streamline_ckpt_write_bytes_total";
pub const CKPT_RESTORE_BYTES_TOTAL: &str = "streamline_ckpt_restore_bytes_total";
pub const CKPT_WRITE_SECONDS_TOTAL: &str = "streamline_ckpt_write_seconds_total";
pub const CKPT_RESTORE_SECONDS_TOTAL: &str = "streamline_ckpt_restore_seconds_total";
pub const CKPT_WARM_START_BLOCKS: &str = "streamline_ckpt_warm_start_blocks";

// The sharded serve cluster: N replicas behind a consistent-hash block
// router, trajectories handed off between them when they cross shard
// boundaries. Aggregates first, then per-replica series produced by
// suffixing the `CLUSTER_REPLICA_*` bases with [`per_replica`].
pub const CLUSTER_REPLICAS: &str = "streamline_cluster_replicas";
pub const CLUSTER_REPLICAS_ALIVE: &str = "streamline_cluster_replicas_alive";
pub const CLUSTER_SUBMITTED_TOTAL: &str = "streamline_cluster_requests_submitted_total";
pub const CLUSTER_COMPLETED_TOTAL: &str = "streamline_cluster_requests_completed_total";
pub const CLUSTER_REJECTED_TOTAL: &str = "streamline_cluster_requests_rejected_total";
pub const CLUSTER_REQUESTS_GONE_TOTAL: &str = "streamline_cluster_requests_gone_total";
pub const CLUSTER_STREAMLINES_COMPLETED_TOTAL: &str =
    "streamline_cluster_streamlines_completed_total";
pub const CLUSTER_STREAMLINES_UNAVAILABLE_TOTAL: &str =
    "streamline_cluster_streamlines_unavailable_total";
pub const CLUSTER_STEPS_TOTAL: &str = "streamline_cluster_steps_total";
pub const CLUSTER_HANDOFFS_TOTAL: &str = "streamline_cluster_handoffs_total";
pub const CLUSTER_HANDOFF_BYTES_TOTAL: &str = "streamline_cluster_handoff_bytes_total";
pub const CLUSTER_REDISPATCHES_TOTAL: &str = "streamline_cluster_redispatches_total";
pub const CLUSTER_REDISPATCH_BYTES_TOTAL: &str = "streamline_cluster_redispatch_bytes_total";
pub const CLUSTER_REPLICA_DEATHS_TOTAL: &str = "streamline_cluster_replica_deaths_total";
pub const CLUSTER_HOT_LOCAL_HITS_TOTAL: &str = "streamline_cluster_hot_local_hits_total";
pub const CLUSTER_HOT_BLOCKS: &str = "streamline_cluster_hot_blocks";
pub const CLUSTER_WORKER_PANICS_TOTAL: &str = "streamline_cluster_worker_panics_total";
pub const CLUSTER_DEADLINE_EXPIRED_TOTAL: &str =
    "streamline_cluster_requests_deadline_expired_total";
pub const CLUSTER_PARTIAL_TOTAL: &str = "streamline_cluster_requests_partial_total";
pub const CLUSTER_LOAD_RETRIES_TOTAL: &str = "streamline_cluster_load_retries_total";
pub const CLUSTER_LOAD_FAILURES_TOTAL: &str = "streamline_cluster_load_failures_total";
pub const CLUSTER_SAMPLER_HITS_TOTAL: &str = "streamline_cluster_sampler_hits_total";
pub const CLUSTER_SAMPLER_MISSES_TOTAL: &str = "streamline_cluster_sampler_misses_total";
pub const CLUSTER_BATCHED_LANES_TOTAL: &str = "streamline_cluster_batched_lanes_total";
pub const CLUSTER_LATENCY_NANOSECONDS: &str = "streamline_cluster_request_latency_nanoseconds";

// Per-replica bases (suffix with [`per_replica`]).
pub const CLUSTER_REPLICA_ALIVE: &str = "streamline_cluster_replica_alive";
pub const CLUSTER_REPLICA_STREAMLINES_COMPLETED_TOTAL: &str =
    "streamline_cluster_replica_streamlines_completed_total";
pub const CLUSTER_REPLICA_HANDOFFS_OUT_TOTAL: &str =
    "streamline_cluster_replica_handoffs_out_total";
pub const CLUSTER_REPLICA_QUEUE_DEPTH: &str = "streamline_cluster_replica_queue_depth";
pub const CLUSTER_REPLICA_CACHE_HIT_RATE: &str = "streamline_cluster_replica_cache_hit_rate";
pub const CLUSTER_REPLICA_CACHE_RESIDENT_BLOCKS: &str =
    "streamline_cluster_replica_cache_resident_blocks";
pub const CLUSTER_REPLICA_BLOCKS_QUARANTINED: &str =
    "streamline_cluster_replica_blocks_quarantined";
pub const CLUSTER_REPLICA_LATENCY_NANOSECONDS: &str =
    "streamline_cluster_replica_latency_nanoseconds";

/// The registry has no label dimension, so per-replica series embed the
/// replica index in the metric name: `per_replica(base, 3)` = `{base}_r3`.
/// Dashboards match them with the `streamline_cluster_replica_*` prefix.
pub fn per_replica(base: &str, replica: usize) -> String {
    format!("{base}_r{replica}")
}
