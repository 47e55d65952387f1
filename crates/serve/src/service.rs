//! The query service: the serving [`engine`](crate::engine) run as one
//! replica with [`ServiceConfig::workers`] worker threads, plus the request
//! vocabulary every front speaks.
//!
//! [`Service::submit`] checks admission (live seeds < queue capacity; over
//! capacity ⇒ [`SubmitError::Overloaded`], immediately, without blocking),
//! parks one work item per seed in the queue of the block that owns it, and
//! returns a [`Ticket`]. I/O threads load the blocks that parked work
//! needs; workers claim whole queues of resident blocks, so one cache
//! acquisition serves a coalesced batch spanning many requests; the ticket
//! unblocks when the request's last seed resolves. Served streamlines are
//! bit-identical to single-shot runs with the same [`StepLimits`].

use crate::breaker::{BreakerConfig, RetryPolicy};
use crate::engine::{Counters, Engine, EngineHandle, Replica, ReplicaCounters, Routing};
use crate::metrics::{LatencyHistogram, ServiceMetrics};
use crossbeam::channel::Receiver;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_field::block::BlockId;
use streamline_field::decomp::BlockDecomposition;
use streamline_integrate::{StepLimits, Streamline};
use streamline_iosim::BlockStore;
use streamline_math::Vec3;
use streamline_obs::{names, MetricsRegistry, TraceFile};
#[cfg(test)]
use {
    crossbeam::channel::bounded, streamline_integrate::StreamlineId,
    streamline_integrate::Termination,
};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads advancing streamlines. The service runs as many I/O
    /// threads, which make every block load.
    pub workers: usize,
    /// Block capacity of the shared cache: resident plus loading blocks
    /// never exceed it.
    pub cache_blocks: usize,
    /// Admission bound: maximum seeds admitted but not yet resolved.
    pub queue_capacity: usize,
    /// Backoff schedule for failed block loads.
    pub retry: RetryPolicy,
    /// Per-block circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// When set, record a wall-clock phase timeline (idle/compute/comm per
    /// worker; workers do no I/O) at this bucket resolution, exposed via
    /// [`Service::timeline`]. `None` (the default) costs nothing.
    pub trace_bucket: Option<Duration>,
    /// Batch width for the advection kernel: a worker drains a claimed
    /// block queue in chunks of up to this many streamlines per batch-kernel
    /// call. Results are bit-identical at any width; 1 is the scalar path.
    pub batch: usize,
    /// Fault injection for tests: panic the first worker batch that claims
    /// this block, exercising the panic-containment path. Fires once.
    #[doc(hidden)]
    pub panic_on_block: Option<BlockId>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache_blocks: 64,
            queue_capacity: 4096,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            trace_bucket: None,
            batch: 16,
            panic_on_block: None,
        }
    }
}

/// One query: a set of seed points plus how to integrate them.
#[derive(Debug, Clone)]
pub struct Request {
    pub seeds: Vec<Vec3>,
    pub limits: StepLimits,
    /// Give up (and respond with [`Outcome::DeadlineExceeded`]) if the
    /// request has not finished by this instant.
    pub deadline: Option<Instant>,
}

impl Request {
    pub fn new(seeds: Vec<Vec3>) -> Self {
        Request { seeds, limits: StepLimits::default(), deadline: None }
    }

    pub fn with_limits(mut self, limits: StepLimits) -> Self {
        self.limits = limits;
        self
    }

    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why [`Service::submit`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting this request would exceed the service's seed queue
    /// capacity. Back off and retry; nothing was enqueued.
    Overloaded {
        /// Seeds already admitted and unresolved.
        queue_depth: usize,
        /// The admission bound.
        capacity: usize,
        /// Seeds in the rejected request.
        requested: usize,
    },
    /// The service is draining; no new work is accepted.
    ShuttingDown,
    /// The request carried no seeds.
    Empty,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded { queue_depth, capacity, requested } => write!(
                f,
                "service overloaded: {requested} seeds requested but queue holds \
                 {queue_depth}/{capacity}"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Empty => write!(f, "request has no seeds"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a request finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every seed was integrated to termination.
    Completed,
    /// Every seed resolved, but `unavailable` of them were cut short by a
    /// block that could not be loaded (store fault, retries exhausted, or
    /// breaker open). Their streamlines are in the response, terminated
    /// [`BlockUnavailable`](streamline_integrate::Termination::BlockUnavailable)
    /// with the curve computed so far.
    Partial { unavailable: usize },
    /// The deadline passed first; `dropped` seeds were abandoned
    /// mid-integration and are not in the response.
    DeadlineExceeded { dropped: usize },
}

/// The service's answer to one [`Request`].
#[derive(Debug)]
pub struct Response {
    pub request_id: u64,
    pub outcome: Outcome,
    /// Terminated streamlines, ordered by
    /// [`StreamlineId`](streamline_integrate::StreamlineId) (= seed order).
    pub streamlines: Vec<Streamline>,
    /// Submission-to-completion latency.
    pub latency: Duration,
}

/// Why redeeming a [`Ticket`] failed: the service was torn down without
/// answering. Graceful drain answers every pending ticket, so this is only
/// reachable when a worker died mid-batch (panic/abort) and took the
/// request's state with it — a fault the caller must see as a typed error,
/// not as a panic of *its own* thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceGone {
    pub request_id: u64,
}

impl fmt::Display for ServiceGone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service dropped pending request {} without answering", self.request_id)
    }
}

impl std::error::Error for ServiceGone {}

/// Result of a non-blocking [`Ticket::try_wait`] that did not resolve.
#[derive(Debug)]
pub enum TryWait {
    /// Still in flight; the ticket is handed back for a later poll.
    Pending(Ticket),
    /// The service died without answering (see [`ServiceGone`]).
    Gone(ServiceGone),
}

/// Handle to a pending request; redeem with [`Ticket::wait`].
pub struct Ticket {
    pub request_id: u64,
    pub(crate) rx: Receiver<Response>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("request_id", &self.request_id).finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the service responds.
    pub fn wait(self) -> Result<Response, ServiceGone> {
        self.rx.recv().map_err(|_| ServiceGone { request_id: self.request_id })
    }

    /// Non-blocking poll; hands the ticket back while still pending.
    pub fn try_wait(self) -> Result<Response, TryWait> {
        use crossbeam::channel::TryRecvError;
        match self.rx.try_recv() {
            Ok(r) => Ok(r),
            Err(TryRecvError::Empty) => Err(TryWait::Pending(self)),
            Err(TryRecvError::Disconnected) => {
                Err(TryWait::Gone(ServiceGone { request_id: self.request_id }))
            }
        }
    }
}

/// A running streamline query service. See the [module docs](self).
pub struct Service {
    inner: EngineHandle,
}

impl Service {
    /// Spawn the worker pool and start accepting requests against
    /// `decomp`/`store`.
    pub fn start(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cfg: ServiceConfig,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let counters = Counters {
            submitted: registry.counter(names::SERVE_SUBMITTED_TOTAL),
            completed: registry.counter(names::SERVE_COMPLETED_TOTAL),
            rejected: registry.counter(names::SERVE_REJECTED_TOTAL),
            deadline_expired: registry.counter(names::SERVE_DEADLINE_EXPIRED_TOTAL),
            partial: registry.counter(names::SERVE_PARTIAL_TOTAL),
            load_retries: registry.counter(names::SERVE_LOAD_RETRIES_TOTAL),
            load_failures: registry.counter(names::SERVE_LOAD_FAILURES_TOTAL),
            streamlines_unavailable: registry.counter(names::SERVE_STREAMLINES_UNAVAILABLE_TOTAL),
            streamlines_completed: registry.counter(names::SERVE_STREAMLINES_COMPLETED_TOTAL),
            total_steps: registry.counter(names::SERVE_STEPS_TOTAL),
            sampler_hits: registry.counter(names::SERVE_SAMPLER_HITS_TOTAL),
            sampler_misses: registry.counter(names::SERVE_SAMPLER_MISSES_TOTAL),
            batched_lanes: registry.counter(names::SERVE_BATCHED_LANES_TOTAL),
            worker_panics: registry.counter(names::SERVE_WORKER_PANICS_TOTAL),
            requests_gone: registry.counter(names::SERVE_REQUESTS_GONE_TOTAL),
            latency: LatencyHistogram::in_registry(&registry, names::SERVE_LATENCY_NANOSECONDS),
            ..Counters::default()
        };
        let engine =
            Engine::new(decomp, store, &cfg, Routing::single(), registry, counters, |_| {
                ReplicaCounters::default()
            });
        Service { inner: EngineHandle::start(engine) }
    }

    /// Submit a request. On success the seeds are enqueued and a
    /// [`Ticket`] is returned immediately; integration proceeds on the
    /// worker pool. Rejection leaves no trace of the request.
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        self.inner.submit(req)
    }

    /// Prefetch `manifest` into the shared cache — typically the residency
    /// a previous instance persisted on drain. Best-effort; returns how
    /// many blocks loaded. Call before exposing the service to traffic for
    /// an accurate cold-start win.
    pub fn warm_start(&self, manifest: &crate::warm::WarmStartManifest) -> usize {
        manifest.prefetch(&self.replica().cache, self.inner.store.as_ref())
    }

    /// Snapshot the shared cache's residency for the next instance's
    /// [`warm_start`](Self::warm_start).
    pub fn residency_manifest(&self) -> crate::warm::WarmStartManifest {
        crate::warm::WarmStartManifest::of(&self.replica().cache)
    }

    /// Point-in-time health snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        snapshot(&self.inner)
    }

    /// The unified metric store behind [`Service::metrics`]. Counters
    /// update live; gauges are refreshed by `metrics()`/`dump_metrics()`.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.registry
    }

    /// Refresh the gauges and render every metric in Prometheus text
    /// format — the scrape endpoint's payload.
    pub fn dump_metrics(&self) -> String {
        refresh_registry(&self.inner);
        self.inner.registry.render_prometheus()
    }

    /// The wall-clock phase timeline recorded so far, or `None` if the
    /// service was started without [`ServiceConfig::trace_bucket`].
    pub fn timeline(&self) -> Option<TraceFile> {
        self.inner.trace.as_ref().map(|t| t.snapshot().to_trace("wall"))
    }

    /// Stop accepting requests, drain every queued and in-flight seed,
    /// join the workers, and return the final metrics. Pending tickets all
    /// receive their responses before this returns.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.inner.shutdown();
        snapshot(&self.inner)
    }

    #[cfg(test)]
    fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    fn replica(&self) -> &Replica {
        &self.inner.replicas[0]
    }
}

/// Mirror every point-in-time quantity (gauges, and counters owned by the
/// breakers/cache rather than the registry) into the registry, so a
/// [`MetricsRegistry::render_prometheus`] right after is a consistent
/// scrape. The request/streamline counters need no refresh — they *are*
/// registry handles.
fn refresh_registry(engine: &Engine) {
    let reg = &engine.registry;
    let rep = &engine.replicas[0];
    let cache_stats = rep.cache.stats();
    reg.set_gauge(names::SERVE_WORKERS, engine.workers as f64);
    reg.set_gauge(names::SERVE_UPTIME_SECONDS, engine.started.elapsed().as_secs_f64().max(1e-9));
    reg.set_counter(names::SERVE_BREAKER_FAST_FAILS_TOTAL, rep.breakers.fast_fails());
    reg.set_counter(names::SERVE_BREAKER_TRIPS_TOTAL, rep.breakers.trips());
    reg.set_gauge(names::SERVE_BLOCKS_QUARANTINED, rep.breakers.quarantined() as f64);
    reg.set_gauge(names::SERVE_QUEUE_DEPTH, rep.queue_depth() as f64);
    reg.set_gauge(names::SERVE_QUEUE_CAPACITY, engine.queue_capacity as f64);
    reg.set_gauge(names::SERVE_CACHE_RESIDENT_BLOCKS, rep.cache.len() as f64);
    reg.set_gauge(names::SERVE_CACHE_CAPACITY_BLOCKS, rep.cache.capacity() as f64);
    reg.set_counter(names::SERVE_CACHE_LOADED_TOTAL, cache_stats.loaded);
    reg.set_counter(names::SERVE_CACHE_PURGED_TOTAL, cache_stats.purged);
    reg.set_counter(names::SERVE_CACHE_HITS_TOTAL, cache_stats.hits);
    reg.set_counter(names::SERVE_CACHE_FAILED_LOADS_TOTAL, cache_stats.failed);
    reg.set_gauge(names::SERVE_BLOCK_EFFICIENCY, cache_stats.efficiency());
}

fn snapshot(engine: &Engine) -> ServiceMetrics {
    refresh_registry(engine);
    let c = &engine.counters;
    let rep = &engine.replicas[0];
    let uptime = engine.started.elapsed().as_secs_f64().max(1e-9);
    let completed = c.completed.get();
    let streamlines = c.streamlines_completed.get();
    let cache_stats = rep.cache.stats();
    let gets = cache_stats.hits + cache_stats.loaded;
    let sampler_hits = c.sampler_hits.get();
    let sampler_misses = c.sampler_misses.get();
    let samples = sampler_hits + sampler_misses;
    let q = |p: f64| c.latency.quantile(p).map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0);
    ServiceMetrics {
        workers: engine.workers,
        uptime_secs: uptime,
        submitted: c.submitted.get(),
        completed,
        rejected: c.rejected.get(),
        deadline_expired: c.deadline_expired.get(),
        partial: c.partial.get(),
        load_retries: c.load_retries.get(),
        load_failures: c.load_failures.get(),
        fast_fails: rep.breakers.fast_fails(),
        breaker_trips: rep.breakers.trips(),
        blocks_quarantined: rep.breakers.quarantined(),
        worker_panics: c.worker_panics.get(),
        requests_gone: c.requests_gone.get(),
        streamlines_unavailable: c.streamlines_unavailable.get(),
        streamlines_completed: streamlines,
        total_steps: c.total_steps.get(),
        sampler_hits,
        sampler_misses,
        sampler_hit_rate: if samples == 0 { 0.0 } else { sampler_hits as f64 / samples as f64 },
        batched_lanes: c.batched_lanes.get(),
        queue_depth: rep.queue_depth(),
        queue_capacity: engine.queue_capacity,
        throughput_rps: completed as f64 / uptime,
        streamlines_per_sec: streamlines as f64 / uptime,
        latency_p50_ms: q(0.50),
        latency_p95_ms: q(0.95),
        latency_p99_ms: q(0.99),
        cache_resident: rep.cache.len(),
        cache_capacity: rep.cache.capacity(),
        cache_hit_rate: if gets == 0 { 0.0 } else { cache_stats.hits as f64 / gets as f64 },
        block_efficiency: cache_stats.efficiency(),
        cache: cache_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
    use streamline_iosim::{FaultPlan, FaultStore, MemoryStore};

    fn tiny_service(cfg: ServiceConfig) -> (Service, Dataset) {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let dataset = Dataset::thermal_hydraulics(dcfg);
        let store = Arc::new(MemoryStore::build(&dataset));
        let svc = Service::start(dataset.decomp, store, cfg);
        (svc, dataset)
    }

    /// Like [`tiny_service`] but with `plan` injected between the cache
    /// and the memory store, and a fast retry/breaker schedule.
    fn faulted_service(plan: FaultPlan, workers: usize) -> (Service, Dataset) {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let dataset = Dataset::thermal_hydraulics(dcfg);
        let inner: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let store = Arc::new(FaultStore::new(inner, plan));
        let cfg = ServiceConfig {
            workers,
            retry: RetryPolicy {
                max_attempts: 4,
                base: Duration::from_micros(100),
                max: Duration::from_micros(500),
            },
            breaker: BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(600) },
            ..ServiceConfig::default()
        };
        let svc = Service::start(dataset.decomp, store, cfg);
        (svc, dataset)
    }

    fn limits() -> StepLimits {
        StepLimits { max_steps: 300, ..StepLimits::default() }
    }

    #[test]
    fn single_request_completes_all_seeds() {
        let (svc, dataset) = tiny_service(ServiceConfig::default());
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
        let ticket =
            svc.submit(Request::new(seeds.points.clone()).with_limits(limits())).expect("admitted");
        let resp = ticket.wait().expect("service answers");
        assert_eq!(resp.outcome, Outcome::Completed);
        assert_eq!(resp.streamlines.len(), 16);
        // Seed-order ids, each terminated.
        for (i, sl) in resp.streamlines.iter().enumerate() {
            assert_eq!(sl.id, StreamlineId(i as u32));
            assert!(!sl.is_active());
        }
        let m = svc.shutdown();
        assert_eq!(m.completed, 1);
        assert_eq!(m.streamlines_completed, 16);
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn empty_request_is_rejected() {
        let (svc, _dataset) = tiny_service(ServiceConfig::default());
        let err = svc.submit(Request::new(Vec::new())).expect_err("must be rejected");
        assert_eq!(err, SubmitError::Empty);
    }

    #[test]
    fn out_of_domain_seeds_terminate_immediately() {
        let (svc, _dataset) = tiny_service(ServiceConfig::default());
        let resp = svc
            .submit(Request::new(vec![Vec3::splat(1e6)]))
            .expect("admitted")
            .wait()
            .expect("service answers");
        assert_eq!(resp.outcome, Outcome::Completed);
        assert_eq!(resp.streamlines.len(), 1);
        assert_eq!(
            resp.streamlines[0].status,
            streamline_integrate::StreamlineStatus::Terminated(Termination::ExitedDomain)
        );
    }

    #[test]
    fn overload_rejects_with_typed_error() {
        let cfg = ServiceConfig { queue_capacity: 8, workers: 1, ..ServiceConfig::default() };
        let (svc, dataset) = tiny_service(cfg);
        let seeds = dataset.seeds_with_count(Seeding::Dense, 9);
        let err = svc.submit(Request::new(seeds.points.clone())).expect_err("must be rejected");
        match err {
            SubmitError::Overloaded { queue_depth, capacity, requested } => {
                assert_eq!(capacity, 8);
                assert_eq!(requested, 9);
                assert_eq!(queue_depth, 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Rejection rolled back the reservation: a fitting request works.
        let ok = svc.submit(Request::new(seeds.points[..4].to_vec()).with_limits(limits()));
        assert!(ok.is_ok());
        ok.unwrap().wait().expect("service answers");
        let m = svc.shutdown();
        assert_eq!(m.rejected, 1);
        assert_eq!(m.submitted, 1);
    }

    #[test]
    fn immediate_deadline_expires_request() {
        let (svc, dataset) = tiny_service(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 8);
        // A deadline already in the past: every seed the workers touch is
        // dropped (though some may finish before the first check).
        let ticket = svc
            .submit(
                Request::new(seeds.points.clone())
                    .with_limits(limits())
                    .with_deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect("admitted");
        let resp = ticket.wait().expect("service answers");
        match resp.outcome {
            Outcome::DeadlineExceeded { dropped } => {
                assert!(dropped > 0);
                assert_eq!(resp.streamlines.len() + dropped, 8);
            }
            other => panic!("deadline in the past cannot complete: {other:?}"),
        }
        let m = svc.shutdown();
        assert_eq!(m.deadline_expired, 1);
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (svc, dataset) = tiny_service(ServiceConfig { workers: 3, ..ServiceConfig::default() });
        let seeds = dataset.seeds_with_count(Seeding::Dense, 64);
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                svc.submit(Request::new(seeds.points.clone()).with_limits(limits()))
                    .expect("admitted")
            })
            .collect();
        // Shut down immediately: every ticket must still get an answer.
        let m = svc.shutdown();
        assert_eq!(m.completed, 4);
        assert_eq!(m.queue_depth, 0);
        for t in tickets {
            let resp = t.wait().expect("service answers");
            assert_eq!(resp.streamlines.len(), 64);
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (svc, dataset) = tiny_service(ServiceConfig::default());
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 4);
        svc.begin_shutdown();
        let err = svc.submit(Request::new(seeds.points.clone())).expect_err("must be refused");
        assert_eq!(err, SubmitError::ShuttingDown);
        let m = svc.shutdown();
        assert_eq!(m.submitted, 0);
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn transient_faults_are_retried_to_bit_identity() {
        // Every block fails twice then clears; 4 attempts of retry budget
        // absorb that invisibly. The answers must match a fault-free run
        // exactly: faults deny, they never corrupt.
        let mut plan = FaultPlan::new();
        for b in 0..8 {
            plan = plan.transient(BlockId(b), 2);
        }
        let (faulted, dataset) = faulted_service(plan, 2);
        let (clean, _) = tiny_service(ServiceConfig::default());
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);

        let got = faulted
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        let want = clean
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        assert_eq!(got.outcome, Outcome::Completed, "transient faults must be invisible");
        assert_eq!(got.streamlines.len(), want.streamlines.len());
        for (a, b) in got.streamlines.iter().zip(&want.streamlines) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.status, b.status);
            assert_eq!(a.state.position, b.state.position);
            assert_eq!(a.geometry, b.geometry, "streamline {:?} diverged", a.id);
        }
        let m = faulted.shutdown();
        assert!(m.load_retries > 0, "transient faults must cost retries");
        assert_eq!(m.load_failures, 0);
        assert_eq!(m.partial, 0);
        assert_eq!(m.streamlines_unavailable, 0);
        assert_eq!(m.blocks_quarantined, 0);
        clean.shutdown();
    }

    #[test]
    fn batched_workers_are_bit_identical_under_chaos() {
        // Batch 16 through chaos faults vs batch 1 (the scalar path) on a
        // clean store: per-streamline results must match bit for bit —
        // the batch knob and the fault injection are both invisible in
        // the answers.
        let mut plan = FaultPlan::new();
        for b in 0..8 {
            plan = plan.transient(BlockId(b), 2);
        }
        let (faulted, dataset) = faulted_service(plan, 3);
        assert_eq!(faulted.inner.batch, 16, "default width drives the batched path");
        let (scalar, _) = tiny_service(ServiceConfig { batch: 1, ..ServiceConfig::default() });
        let seeds = dataset.seeds_with_count(Seeding::Dense, 48);

        let got = faulted
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        let want = scalar
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        assert_eq!(got.outcome, Outcome::Completed);
        assert_eq!(got.streamlines.len(), want.streamlines.len());
        for (a, b) in got.streamlines.iter().zip(&want.streamlines) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.status, b.status);
            assert_eq!(
                a.state.position.to_array().map(f64::to_bits),
                b.state.position.to_array().map(f64::to_bits),
                "streamline {:?} position diverged",
                a.id
            );
            assert_eq!(a.state.h.to_bits(), b.state.h.to_bits());
            assert_eq!(a.geometry, b.geometry, "streamline {:?} geometry diverged", a.id);
        }
        let mb = faulted.shutdown();
        let ms = scalar.shutdown();
        assert_eq!(mb.total_steps, ms.total_steps, "same steps either way");
        assert!(mb.batched_lanes > 0, "batched path must be exercised");
        assert!(
            mb.batched_lanes >= mb.streamlines_completed,
            "every lane passes through the kernel at least once"
        );
    }

    #[test]
    fn permanent_fault_yields_typed_partial_outcome() {
        let seeds;
        let failing;
        {
            let mut dcfg = DatasetConfig::tiny();
            dcfg.blocks_per_axis = [2, 2, 2];
            let dataset = Dataset::thermal_hydraulics(dcfg);
            seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
            failing = dataset.decomp.locate(seeds.points[0]).expect("seed in domain");
        }
        let (faulted, _) = faulted_service(FaultPlan::new().permanent(failing), 2);
        let (clean, _) = tiny_service(ServiceConfig::default());

        let got = faulted
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        let want = clean
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers");
        let unavailable = match got.outcome {
            Outcome::Partial { unavailable } => unavailable,
            other => panic!("expected Partial, got {other:?}"),
        };
        assert!(unavailable >= 1);
        // Every seed is answered: degraded ones carry the typed
        // termination, the rest are bit-identical to the fault-free run.
        assert_eq!(got.streamlines.len(), 16);
        let mut degraded = 0;
        for (a, b) in got.streamlines.iter().zip(&want.streamlines) {
            assert_eq!(a.id, b.id);
            if a.status
                == streamline_integrate::StreamlineStatus::Terminated(Termination::BlockUnavailable)
            {
                degraded += 1;
            } else {
                assert_eq!(a.status, b.status);
                assert_eq!(a.geometry, b.geometry, "unaffected streamline {:?} diverged", a.id);
            }
        }
        assert_eq!(degraded, unavailable);
        let m = faulted.shutdown();
        assert!(m.load_failures >= 1);
        assert_eq!(m.streamlines_unavailable, unavailable as u64);
        assert_eq!(m.partial, 1);
        assert_eq!(m.queue_depth, 0, "degraded seeds still release their seats");
        clean.shutdown();
    }

    #[test]
    fn open_breaker_fails_fast_on_later_requests() {
        let (svc, dataset) = faulted_service(FaultPlan::new().permanent(BlockId(0)), 1);
        let seed = dataset
            .seeds_with_count(Seeding::Dense, 64)
            .points
            .iter()
            .copied()
            .find(|&p| dataset.decomp.locate(p) == Some(BlockId(0)))
            .expect("a seed in block 0");
        // First request trips the breaker (threshold 1)...
        let first = svc
            .submit(Request::new(vec![seed]).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        assert_eq!(first.outcome, Outcome::Partial { unavailable: 1 });
        // ...so the second is denied without touching the store.
        let second = svc
            .submit(Request::new(vec![seed]).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        assert_eq!(second.outcome, Outcome::Partial { unavailable: 1 });
        let m = svc.shutdown();
        assert_eq!(m.breaker_trips, 1);
        assert_eq!(m.blocks_quarantined, 1);
        assert!(m.fast_fails >= 1, "second request must be fast-failed");
        assert_eq!(m.load_failures, 1, "the store is hit once, not per request");
        assert_eq!(m.completed, 2, "every ticket is still answered");
    }

    #[test]
    fn dump_metrics_agrees_with_the_snapshot() {
        let (svc, dataset) = tiny_service(ServiceConfig::default());
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 8);
        svc.submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        let text = svc.dump_metrics();
        let parsed = streamline_obs::prom::parse_text(&text).expect("valid Prometheus text");
        let m = svc.metrics();
        // The counters the registry owns are bit-identical to the
        // ServiceMetrics view; both read the same handles.
        assert_eq!(parsed[names::SERVE_SUBMITTED_TOTAL], m.submitted as f64);
        assert_eq!(parsed[names::SERVE_COMPLETED_TOTAL], m.completed as f64);
        assert_eq!(parsed[names::SERVE_STREAMLINES_COMPLETED_TOTAL], 8.0);
        assert_eq!(parsed[names::SERVE_STEPS_TOTAL], m.total_steps as f64);
        assert_eq!(parsed[names::SERVE_CACHE_LOADED_TOTAL], m.cache.loaded as f64);
        assert_eq!(parsed[names::SERVE_QUEUE_CAPACITY], m.queue_capacity as f64);
        assert_eq!(
            parsed[&format!("{}_count", names::SERVE_LATENCY_NANOSECONDS)],
            m.completed as f64,
            "one latency sample per completed request"
        );
        svc.shutdown();
    }

    #[test]
    fn traced_service_emits_a_valid_wall_timeline() {
        let cfg = ServiceConfig {
            workers: 2,
            trace_bucket: Some(Duration::from_millis(1)),
            ..ServiceConfig::default()
        };
        let (svc, dataset) = tiny_service(cfg);
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
        svc.submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        let tf = svc.timeline().expect("tracing was enabled");
        tf.validate().expect("trace invariants hold");
        assert_eq!(tf.clock, "wall");
        assert_eq!(tf.n_ranks, 2);
        assert!(tf.totals.busy() > 0.0, "workers did measurable work");
        svc.shutdown();
    }

    #[test]
    fn untraced_service_has_no_timeline() {
        let (svc, _dataset) = tiny_service(ServiceConfig::default());
        assert!(svc.timeline().is_none());
        svc.shutdown();
    }

    #[test]
    fn dead_service_yields_typed_error_not_panic() {
        // A ticket whose service died mid-request (worker panic) must
        // resolve to a typed error on the caller's thread, never a panic.
        let (tx, rx) = bounded::<Response>(1);
        let ticket = Ticket { request_id: 7, rx };
        drop(tx);
        let err = ticket.wait().expect_err("dropped sender must surface as ServiceGone");
        assert_eq!(err, ServiceGone { request_id: 7 });
        assert!(err.to_string().contains("request 7"));

        let (tx, rx) = bounded::<Response>(1);
        let ticket = Ticket { request_id: 8, rx };
        drop(tx);
        match ticket.try_wait() {
            Err(TryWait::Gone(g)) => assert_eq!(g.request_id, 8),
            other => panic!("expected Gone, got {other:?}"),
        }
    }

    #[test]
    fn pending_ticket_polls_back_as_pending() {
        let (_tx, rx) = bounded::<Response>(1);
        let ticket = Ticket { request_id: 3, rx };
        match ticket.try_wait() {
            Err(TryWait::Pending(t)) => assert_eq!(t.request_id, 3),
            other => panic!("expected Pending, got {other:?}"),
        }
    }

    #[test]
    fn warm_started_service_takes_no_cold_loads() {
        // Drain one instance, persist its residency, warm-start a second:
        // the same workload must then run load-free from the first request.
        let (first, dataset) = tiny_service(ServiceConfig::default());
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
        first
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        let manifest = first.residency_manifest();
        let drained = first.shutdown();
        assert!(!manifest.blocks.is_empty());

        let (second, _) = tiny_service(ServiceConfig::default());
        let prefetched = second.warm_start(&manifest);
        assert_eq!(prefetched, manifest.blocks.len());
        second
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .unwrap()
            .wait()
            .expect("service answers");
        let m = second.shutdown();
        assert_eq!(
            m.cache.loaded, prefetched as u64,
            "every block the workload needs was already resident"
        );
        assert_eq!(m.cache.loaded, drained.cache.loaded, "same working set as the first instance");
        assert!(m.cache.hits > 0);
    }

    #[test]
    fn worker_panic_is_contained_and_resolves_tickets_as_gone() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let dataset = Dataset::thermal_hydraulics(dcfg);
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
        let target = dataset.decomp.locate(seeds.points[0]).expect("seed in domain");
        let store = Arc::new(MemoryStore::build(&dataset));
        let svc = Service::start(
            dataset.decomp,
            store,
            ServiceConfig { workers: 2, panic_on_block: Some(target), ..ServiceConfig::default() },
        );
        // The batch claiming `target` panics mid-advance. The caller must
        // see the typed ServiceGone — not a hang, not a panic of its own.
        let err = svc
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect_err("a panicked batch must resolve the ticket as ServiceGone");
        assert_eq!(err.request_id, 0);
        // The panic was contained: the very same workload now completes.
        let resp = svc
            .submit(Request::new(seeds.points.clone()).with_limits(limits()))
            .expect("admitted")
            .wait()
            .expect("service answers after the panic");
        assert_eq!(resp.outcome, Outcome::Completed);
        assert_eq!(resp.streamlines.len(), 16);
        // Shutdown drains instead of deadlocking on lost in-flight work.
        let m = svc.shutdown();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.requests_gone, 1);
        assert_eq!(m.completed, 1, "only the healthy request counts as completed");
        assert_eq!(m.queue_depth, 0, "panic recovery released every admission seat");
    }

    #[test]
    fn the_cache_holds_exactly_cache_blocks() {
        for cache_blocks in [1, 4, 12] {
            let (svc, dataset) = tiny_service(ServiceConfig { cache_blocks, ..Default::default() });
            let seeds = dataset.seeds_with_count(Seeding::Dense, 32);
            let resp = svc
                .submit(Request::new(seeds.points.clone()).with_limits(limits()))
                .expect("admitted")
                .wait()
                .expect("service answers");
            assert_eq!(resp.outcome, Outcome::Completed);
            let m = svc.shutdown();
            assert_eq!(m.cache_capacity, cache_blocks);
            assert!(m.cache_resident <= cache_blocks, "{} resident", m.cache_resident);
        }
    }

    #[test]
    fn concurrent_clients_share_the_cache() {
        let (svc, dataset) = tiny_service(ServiceConfig {
            workers: 4,
            cache_blocks: 16,
            ..ServiceConfig::default()
        });
        let svc = Arc::new(svc);
        let seeds = dataset.seeds_with_count(Seeding::Sparse, 8);
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let pts = seeds.points.clone();
                std::thread::spawn(move || {
                    svc.submit(Request::new(pts).with_limits(limits())).expect("admitted").wait()
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap().expect("service answers");
            assert_eq!(resp.outcome, Outcome::Completed);
            assert_eq!(resp.streamlines.len(), 8);
        }
        let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("clients done"));
        let m = svc.shutdown();
        assert_eq!(m.completed, 6);
        // 8 blocks, 16-slot cache: after the first touch everything hits.
        assert!(m.cache.hits > 0);
        assert!(m.cache_hit_rate > 0.5, "hit rate {}", m.cache_hit_rate);
        assert_eq!(m.block_efficiency, 1.0);
    }
}
