//! The cluster front: the serving [`Engine`] run as N replicas of one
//! worker each behind the consistent-hash [`Ring`], plus the monitor thread
//! (kill detection, hot-set upkeep), shard bootstrap and the
//! `streamline_cluster_*` metric namespace. See the [crate docs](crate).

use std::sync::Arc;
use std::time::Duration;
use streamline_field::block::BlockId;
use streamline_field::decomp::BlockDecomposition;
use streamline_iosim::BlockStore;
use streamline_obs::{names, MetricsRegistry, ScheduleTrace, TraceFile};
use streamline_serve::breaker::{BreakerConfig, RetryPolicy};
use streamline_serve::engine::{Counters, Engine, EngineHandle, ReplicaCounters, Routing};
use streamline_serve::metrics::LatencyHistogram;
use streamline_serve::warm::WarmStartManifest;
use streamline_serve::{Request, Ring, ServiceConfig, SubmitError, Ticket};

/// Tuning knobs for [`ClusterService::start`]. Per-replica knobs mirror
/// [`streamline_serve::ServiceConfig`]; each replica runs one worker thread
/// and one I/O thread (the replica is the unit of parallelism, like a rank
/// in the paper).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of service replicas behind the router.
    pub replicas: usize,
    /// Replicas allowed to serve a *hot* block locally: the owner plus
    /// `replication - 1` ring successors. 1 disables replication.
    pub replication: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// How many globally hottest blocks (by access count) are replicated.
    pub hot_k: usize,
    /// Per-replica block cache capacity.
    pub cache_blocks: usize,
    /// Per-replica admission bound (seeds admitted but unresolved).
    pub queue_capacity: usize,
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
    /// Batch width for the advection kernel (bit-identical at any width).
    pub batch: usize,
    /// Record a wall-clock per-replica phase timeline at this resolution.
    pub trace_bucket: Option<Duration>,
    /// Period of the monitor: how often it checks for killed replicas and
    /// recomputes the hot set.
    pub heartbeat_every: Duration,
    /// Time from a replica's kill until the monitor declares it dead.
    pub suspect_after: Duration,
    /// Fault injection for tests: the first worker batch claiming this
    /// block panics, exercising the panic-containment path. Fires once.
    #[doc(hidden)]
    pub panic_on_block: Option<BlockId>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 2,
            replication: 1,
            vnodes: 64,
            hot_k: 8,
            cache_blocks: 64,
            queue_capacity: 4096,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            batch: 16,
            trace_bucket: None,
            heartbeat_every: Duration::from_millis(5),
            suspect_after: Duration::from_millis(250),
            panic_on_block: None,
        }
    }
}

/// A running sharded serve cluster. See the [module docs](self).
pub struct ClusterService {
    inner: EngineHandle,
}

/// Point-in-time health snapshot of one replica.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplicaMetrics {
    pub replica: usize,
    pub alive: bool,
    pub streamlines_completed: u64,
    pub handoffs_out: u64,
    pub queue_depth: usize,
    pub cache_resident: usize,
    pub cache_loaded: u64,
    pub cache_hits: u64,
    pub cache_hit_rate: f64,
    pub blocks_quarantined: usize,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
}

/// Point-in-time health snapshot of the whole cluster.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ClusterMetrics {
    pub replicas: usize,
    pub replicas_alive: usize,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub requests_gone: u64,
    pub streamlines_completed: u64,
    pub streamlines_unavailable: u64,
    pub total_steps: u64,
    pub handoffs: u64,
    pub handoff_bytes: u64,
    pub redispatches: u64,
    pub redispatch_bytes: u64,
    pub replica_deaths: u64,
    pub hot_local_hits: u64,
    pub worker_panics: u64,
    pub deadline_expired: u64,
    pub partial: u64,
    pub load_retries: u64,
    pub load_failures: u64,
    pub sampler_hits: u64,
    pub sampler_misses: u64,
    pub batched_lanes: u64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    pub per_replica: Vec<ReplicaMetrics>,
}

impl ClusterMetrics {
    /// Exact durable-completion conservation: every admitted request is
    /// answered or typed gone — under replica kills included.
    pub fn conservation_holds(&self) -> bool {
        self.completed + self.requests_gone == self.submitted
    }
}

impl ClusterService {
    /// Spawn `cfg.replicas` replicas of one worker and one I/O thread each,
    /// plus the monitor, and start routing requests.
    pub fn start(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cfg: ClusterConfig,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let counters = Counters {
            submitted: registry.counter(names::CLUSTER_SUBMITTED_TOTAL),
            completed: registry.counter(names::CLUSTER_COMPLETED_TOTAL),
            rejected: registry.counter(names::CLUSTER_REJECTED_TOTAL),
            requests_gone: registry.counter(names::CLUSTER_REQUESTS_GONE_TOTAL),
            streamlines_completed: registry.counter(names::CLUSTER_STREAMLINES_COMPLETED_TOTAL),
            streamlines_unavailable: registry.counter(names::CLUSTER_STREAMLINES_UNAVAILABLE_TOTAL),
            total_steps: registry.counter(names::CLUSTER_STEPS_TOTAL),
            handoffs: registry.counter(names::CLUSTER_HANDOFFS_TOTAL),
            handoff_bytes: registry.counter(names::CLUSTER_HANDOFF_BYTES_TOTAL),
            redispatches: registry.counter(names::CLUSTER_REDISPATCHES_TOTAL),
            redispatch_bytes: registry.counter(names::CLUSTER_REDISPATCH_BYTES_TOTAL),
            replica_deaths: registry.counter(names::CLUSTER_REPLICA_DEATHS_TOTAL),
            hot_local_hits: registry.counter(names::CLUSTER_HOT_LOCAL_HITS_TOTAL),
            worker_panics: registry.counter(names::CLUSTER_WORKER_PANICS_TOTAL),
            deadline_expired: registry.counter(names::CLUSTER_DEADLINE_EXPIRED_TOTAL),
            partial: registry.counter(names::CLUSTER_PARTIAL_TOTAL),
            load_retries: registry.counter(names::CLUSTER_LOAD_RETRIES_TOTAL),
            load_failures: registry.counter(names::CLUSTER_LOAD_FAILURES_TOTAL),
            sampler_hits: registry.counter(names::CLUSTER_SAMPLER_HITS_TOTAL),
            sampler_misses: registry.counter(names::CLUSTER_SAMPLER_MISSES_TOTAL),
            batched_lanes: registry.counter(names::CLUSTER_BATCHED_LANES_TOTAL),
            latency: LatencyHistogram::in_registry(&registry, names::CLUSTER_LATENCY_NANOSECONDS),
        };
        let reg = Arc::clone(&registry);
        let replica_counters = move |r| ReplicaCounters {
            streamlines_completed: reg.counter(&names::per_replica(
                names::CLUSTER_REPLICA_STREAMLINES_COMPLETED_TOTAL,
                r,
            )),
            handoffs_out: reg
                .counter(&names::per_replica(names::CLUSTER_REPLICA_HANDOFFS_OUT_TOTAL, r)),
            latency: LatencyHistogram::in_registry(
                &reg,
                &names::per_replica(names::CLUSTER_REPLICA_LATENCY_NANOSECONDS, r),
            ),
        };
        let per_replica = ServiceConfig {
            workers: 1,
            cache_blocks: cfg.cache_blocks,
            queue_capacity: cfg.queue_capacity,
            retry: cfg.retry,
            breaker: cfg.breaker,
            trace_bucket: cfg.trace_bucket,
            batch: cfg.batch,
            panic_on_block: cfg.panic_on_block,
        };
        let routing = Routing {
            ring: Ring::new(cfg.replicas.max(1), cfg.vnodes),
            replication: cfg.replication.max(1),
            hot_k: cfg.hot_k,
        };
        let engine =
            Engine::new(decomp, store, &per_replica, routing, registry, counters, replica_counters);
        let mut inner = EngineHandle::start(engine);
        let period = cfg.heartbeat_every.max(Duration::from_micros(100));
        let suspect_after = cfg.suspect_after;
        inner.spawn("cluster-monitor", move |engine| monitor_loop(engine, period, suspect_after));
        ClusterService { inner }
    }

    /// Submit a request: seeds are routed to their owner replicas, one
    /// admission seat each. Any target replica over capacity rejects the
    /// whole request (typed, without enqueuing anything anywhere).
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        self.inner.submit(req)
    }

    /// Fail-stop injection: replica `r` stops cooperating. The monitor
    /// declares it dead `suspect_after` later and re-routes its shard.
    /// Returns `false` if `r` was already killed or out of range.
    pub fn kill_replica(&self, r: usize) -> bool {
        self.inner.kill(r)
    }

    /// Bootstrap every replica's cache from its shard: each replica
    /// prefetches (up to cache capacity) the blocks it owns on the ring via
    /// a [`WarmStartManifest`] — the same warm-start path the single
    /// service uses on restart. Returns total blocks prefetched.
    pub fn bootstrap(&self) -> usize {
        let engine = &self.inner;
        let alive = engine.alive_mask();
        let mut total = 0;
        for (r, rep) in engine.replicas.iter().enumerate().filter(|&(r, _)| alive[r]) {
            let mut blocks = engine.routing.ring.shard(r, &alive, engine.decomp.num_blocks());
            blocks.truncate(rep.cache.capacity());
            let manifest = WarmStartManifest { blocks };
            total += manifest.prefetch(&rep.cache, engine.store.as_ref());
        }
        total
    }

    /// Residency manifest of one replica's cache (for persistence across
    /// instances, exactly like [`streamline_serve::Service`]).
    pub fn residency_manifest(&self, r: usize) -> Option<WarmStartManifest> {
        self.inner.replicas.get(r).map(|rep| WarmStartManifest::of(&rep.cache))
    }

    /// Point-in-time health snapshot.
    pub fn metrics(&self) -> ClusterMetrics {
        snapshot(&self.inner)
    }

    /// The unified metric store (aggregate `streamline_cluster_*` series
    /// plus per-replica series named via [`names::per_replica`]).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.registry
    }

    /// Refresh gauges and render every metric in Prometheus text format.
    pub fn dump_metrics(&self) -> String {
        refresh_registry(&self.inner);
        self.inner.registry.render_prometheus()
    }

    /// The per-replica wall-clock phase timeline with its schedule section
    /// (hand-offs as the ping-pong series, replica deaths marked), or
    /// `None` when started without [`ClusterConfig::trace_bucket`].
    pub fn timeline(&self) -> Option<TraceFile> {
        let snap = self.inner.trace.as_ref()?.snapshot();
        let mut tf = snap.to_trace("wall");
        let (pingpong, deaths) = self.inner.schedule_marks();
        tf.schedule =
            Some(ScheduleTrace::from_timeline(&snap, &pingpong).with_rank_deaths(&snap, &deaths));
        Some(tf)
    }

    /// Stop admitting, drain every parked and in-flight streamline across
    /// all replicas (hand-offs included), join every thread, and return the
    /// final metrics. Every pending ticket resolves before this returns.
    pub fn shutdown(mut self) -> ClusterMetrics {
        self.inner.shutdown();
        snapshot(&self.inner)
    }
}

/// The failure detector and hot-set maintainer. A killed replica is
/// declared dead once `suspect_after` has passed since its kill — death
/// follows from the kill alone, never from a live replica's thread being
/// starved of a core. The monitor outlives the drain start: if a killed
/// replica still holds parked work when shutdown begins, only its
/// re-dispatch can resolve it.
fn monitor_loop(engine: &Engine, period: Duration, suspect_after: Duration) {
    while !engine.drained() {
        for (r, rep) in engine.replicas.iter().enumerate() {
            if rep.is_alive() && rep.killed_at().is_some_and(|t| t.elapsed() >= suspect_after) {
                engine.declare_dead(r);
            }
        }
        if engine.routing.replication > 1 {
            engine.refresh_hot_set();
        }
        std::thread::sleep(period);
    }
}

fn refresh_registry(engine: &Engine) {
    let reg = &engine.registry;
    reg.set_gauge(names::CLUSTER_REPLICAS, engine.replicas.len() as f64);
    reg.set_gauge(
        names::CLUSTER_REPLICAS_ALIVE,
        engine.replicas.iter().filter(|r| r.is_alive()).count() as f64,
    );
    reg.set_gauge(names::CLUSTER_HOT_BLOCKS, engine.hot_blocks() as f64);
    for (r, rep) in engine.replicas.iter().enumerate() {
        let stats = rep.cache.stats();
        let gets = stats.hits + stats.loaded;
        let hit_rate = if gets == 0 { 0.0 } else { stats.hits as f64 / gets as f64 };
        reg.set_gauge(
            &names::per_replica(names::CLUSTER_REPLICA_ALIVE, r),
            if rep.is_alive() { 1.0 } else { 0.0 },
        );
        reg.set_gauge(
            &names::per_replica(names::CLUSTER_REPLICA_QUEUE_DEPTH, r),
            rep.queue_depth() as f64,
        );
        reg.set_gauge(&names::per_replica(names::CLUSTER_REPLICA_CACHE_HIT_RATE, r), hit_rate);
        reg.set_gauge(
            &names::per_replica(names::CLUSTER_REPLICA_CACHE_RESIDENT_BLOCKS, r),
            rep.cache.len() as f64,
        );
        reg.set_gauge(
            &names::per_replica(names::CLUSTER_REPLICA_BLOCKS_QUARANTINED, r),
            rep.breakers.quarantined() as f64,
        );
    }
}

fn snapshot(engine: &Engine) -> ClusterMetrics {
    refresh_registry(engine);
    let c = &engine.counters;
    let q =
        |h: &LatencyHistogram, p: f64| h.quantile(p).map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
    let per_replica: Vec<ReplicaMetrics> = engine
        .replicas
        .iter()
        .enumerate()
        .map(|(r, rep)| {
            let stats = rep.cache.stats();
            let gets = stats.hits + stats.loaded;
            ReplicaMetrics {
                replica: r,
                alive: rep.is_alive(),
                streamlines_completed: rep.counters.streamlines_completed.get(),
                handoffs_out: rep.counters.handoffs_out.get(),
                queue_depth: rep.queue_depth(),
                cache_resident: rep.cache.len(),
                cache_loaded: stats.loaded,
                cache_hits: stats.hits,
                cache_hit_rate: if gets == 0 { 0.0 } else { stats.hits as f64 / gets as f64 },
                blocks_quarantined: rep.breakers.quarantined(),
                latency_p50_ms: q(&rep.counters.latency, 0.50),
                latency_p95_ms: q(&rep.counters.latency, 0.95),
                latency_p99_ms: q(&rep.counters.latency, 0.99),
            }
        })
        .collect();
    ClusterMetrics {
        replicas: engine.replicas.len(),
        replicas_alive: per_replica.iter().filter(|r| r.alive).count(),
        submitted: c.submitted.get(),
        completed: c.completed.get(),
        rejected: c.rejected.get(),
        requests_gone: c.requests_gone.get(),
        streamlines_completed: c.streamlines_completed.get(),
        streamlines_unavailable: c.streamlines_unavailable.get(),
        total_steps: c.total_steps.get(),
        handoffs: c.handoffs.get(),
        handoff_bytes: c.handoff_bytes.get(),
        redispatches: c.redispatches.get(),
        redispatch_bytes: c.redispatch_bytes.get(),
        replica_deaths: c.replica_deaths.get(),
        hot_local_hits: c.hot_local_hits.get(),
        worker_panics: c.worker_panics.get(),
        deadline_expired: c.deadline_expired.get(),
        partial: c.partial.get(),
        load_retries: c.load_retries.get(),
        load_failures: c.load_failures.get(),
        sampler_hits: c.sampler_hits.get(),
        sampler_misses: c.sampler_misses.get(),
        batched_lanes: c.batched_lanes.get(),
        latency_p50_ms: q(&c.latency, 0.50),
        latency_p95_ms: q(&c.latency, 0.95),
        latency_p99_ms: q(&c.latency, 0.99),
        per_replica,
    }
}
