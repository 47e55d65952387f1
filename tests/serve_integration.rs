//! End-to-end checks of the `streamline-serve` query service against the
//! single-shot driver: identical trajectories, typed overload rejection,
//! graceful drain, answers that store faults degrade but never corrupt, a
//! cluster whose books balance across a replica kill, and block loads that
//! run only on the replicas' I/O threads.

use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_cluster::{ClusterConfig, ClusterService};
use streamline_obs::prom;
use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig, RunOutput};
use streamline_repro::field::block::{Block, BlockId};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::{StepLimits, Streamline, StreamlineStatus, Termination};
use streamline_repro::iosim::StoreError;
use streamline_repro::iosim::{BlockStore, ChaosParams, FaultPlan, FaultStore, MemoryStore};
use streamline_repro::math::Vec3;
use streamline_repro::serve::{
    Outcome, Request, Service, ServiceConfig, SubmitError, WarmStartManifest,
};

fn astro() -> Dataset {
    let cfg = DatasetConfig {
        blocks_per_axis: [4, 4, 4],
        cells_per_block: [8, 8, 8],
        ghost: 1,
        seed: 42,
    };
    Dataset::astrophysics(cfg)
}

fn limits() -> StepLimits {
    StepLimits { max_steps: 400, h0: 1e-3, h_max: 0.02, ..StepLimits::default() }
}

/// The tentpole guarantee: a streamline computed by the service is
/// *bit-identical* to the same seed integrated by the single-shot
/// Load-On-Demand driver — same positions, same step counts, same
/// termination, down to the last ulp. Both paths advance through
/// `streamline_core::advance::advance_in_block`, so any divergence is a
/// regression in one of them.
#[test]
fn served_streamlines_match_single_shot_driver_bitwise() {
    let ds = astro();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 48);

    let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 1);
    cfg.limits = limits();
    cfg.memory = MemoryBudget::unlimited();
    let RunOutput { report, finished: reference, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
    assert!(report.outcome.completed());
    assert_eq!(reference.len(), 48);

    let store = Arc::new(MemoryStore::build(&ds));
    let svc = Service::start(
        ds.decomp,
        store,
        ServiceConfig { workers: 4, cache_blocks: 16, ..ServiceConfig::default() },
    );
    let resp = svc
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("service answers");
    assert_eq!(resp.outcome, Outcome::Completed);
    assert_eq!(resp.streamlines.len(), reference.len());

    for (served, want) in resp.streamlines.iter().zip(reference.iter()) {
        assert_eq!(served.id, want.id);
        // Full struct equality: solver state (position/time/h/steps/arc
        // length, all f64-exact), status, geometry.
        assert_eq!(served, want, "streamline {:?} diverged from the driver", want.id);
    }
    svc.shutdown();
}

/// Requests larger than the admission queue are refused outright with the
/// typed error, and the refusal carries the numbers a client needs to size
/// its backoff.
#[test]
fn oversized_request_is_rejected_with_overloaded() {
    let ds = astro();
    let seeds = ds.seeds_with_count(Seeding::Dense, 33);
    let svc = Service::start(
        ds.decomp,
        Arc::new(MemoryStore::build(&ds)),
        ServiceConfig { queue_capacity: 32, ..ServiceConfig::default() },
    );
    match svc.submit(Request::new(seeds.points.clone())) {
        Err(SubmitError::Overloaded { queue_depth, capacity, requested }) => {
            assert_eq!((queue_depth, capacity, requested), (0, 32, 33));
        }
        Ok(_) => panic!("a 33-seed request cannot fit a 32-seed queue"),
        Err(other) => panic!("expected Overloaded, got {other:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(m.rejected, 1);
    assert_eq!(m.submitted, 0);
}

/// A block store whose loads wait for the test to open a gate — pinning
/// the service's backlog in place so overload behaviour is deterministic.
struct GatedStore {
    inner: MemoryStore,
    gate: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl GatedStore {
    fn new(inner: MemoryStore) -> Self {
        GatedStore { inner, gate: std::sync::Mutex::new(false), cv: std::sync::Condvar::new() }
    }

    fn open(&self) {
        *self.gate.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl streamline_repro::iosim::BlockStore for GatedStore {
    fn try_load(
        &self,
        id: streamline_repro::field::block::BlockId,
    ) -> Result<Arc<streamline_repro::field::block::Block>, streamline_repro::iosim::StoreError>
    {
        let mut open = self.gate.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.try_load(id)
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
}

/// With the queue full of work that cannot drain (loads are gated shut), a
/// concurrent request is turned away instead of queued unboundedly — and
/// admission reopens once the backlog drains.
#[test]
fn full_queue_rejects_then_recovers() {
    let ds = astro();
    let store = Arc::new(GatedStore::new(MemoryStore::build(&ds)));
    let svc = Service::start(
        ds.decomp,
        Arc::clone(&store) as Arc<dyn streamline_repro::iosim::BlockStore>,
        ServiceConfig { workers: 1, queue_capacity: 8, ..ServiceConfig::default() },
    );
    let occupant = ds.seeds_with_count(Seeding::Sparse, 8);
    let ticket = svc
        .submit(Request::new(occupant.points.clone()).with_limits(limits()))
        .expect("fills the queue exactly");

    // The gate is shut: none of the 8 seeds can resolve, so this must be
    // turned away no matter how the threads interleave.
    let extra = Request::new(vec![Vec3::splat(0.1)]).with_limits(limits());
    match svc.submit(extra.clone()) {
        Err(SubmitError::Overloaded { queue_depth, capacity, .. }) => {
            assert_eq!(queue_depth, 8, "rejection must report the live backlog");
            assert_eq!(capacity, 8);
        }
        Ok(_) => panic!("queue at capacity must reject"),
        Err(other) => panic!("expected Overloaded, got {other:?}"),
    }

    // Open the gate; once the occupant finishes, the same request fits.
    store.open();
    ticket.wait().expect("service answers");
    svc.submit(extra).expect("queue drained, admission reopens").wait().expect("service answers");
    let m = svc.shutdown();
    assert_eq!(m.completed, 2);
    assert_eq!(m.rejected, 1);
    assert_eq!(m.queue_depth, 0);
}

/// Deadlines cancel work mid-flight; shutdown still answers every ticket.
#[test]
fn deadline_and_drain_interact_cleanly() {
    let ds = astro();
    let svc = Service::start(
        ds.decomp,
        Arc::new(MemoryStore::build(&ds)),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    );
    let seeds = ds.seeds_with_count(Seeding::Sparse, 12);
    let expired = svc
        .submit(
            Request::new(seeds.points.clone()).with_limits(limits()).with_deadline(Instant::now()),
        )
        .expect("admitted");
    let healthy =
        svc.submit(Request::new(seeds.points.clone()).with_limits(limits())).expect("admitted");
    let m = svc.shutdown();
    assert_eq!(m.completed, 2);
    assert_eq!(m.queue_depth, 0);

    match expired.wait().expect("service answers").outcome {
        Outcome::DeadlineExceeded { dropped } => assert!(dropped > 0),
        other => panic!("a deadline of now cannot complete 12 seeds: {other:?}"),
    }
    let resp = healthy.wait().expect("service answers");
    assert_eq!(resp.outcome, Outcome::Completed);
    assert_eq!(resp.streamlines.len(), 12);
}

/// Every streamline the faults did *not* touch matches the fault-free
/// answer bit for bit; touched ones come back typed `BlockUnavailable`.
fn assert_untouched_bit_identical(got: &[Streamline], want: &[Streamline]) {
    assert_eq!(got.len(), want.len(), "a faulted response lost streamlines");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.id, b.id);
        if a.status == StreamlineStatus::Terminated(Termination::BlockUnavailable) {
            continue;
        }
        assert_eq!(a, b, "streamline {:?} diverged under faults", a.id);
    }
}

/// The resilience contract under a seeded fault plan, at batch widths 1 and
/// 16: 4 concurrent clients each drive 8 requests of 4 seeds against a
/// faulted store. Every ticket is answered, and every streamline the faults
/// did not touch is bit-identical to a fault-free pass.
#[test]
fn store_faults_degrade_but_never_corrupt_concurrent_answers() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 8;
    const SEEDS: usize = 4;
    let ds = astro();
    let pool = ds.seeds_with_count(Seeding::Dense, CLIENTS * SEEDS).points;
    let base: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    let plan = FaultPlan::random(2, ds.decomp.num_blocks(), &ChaosParams::default())
        .expect("default chaos params are valid");

    for batch in [1, 16] {
        let cfg = ServiceConfig { batch, ..ServiceConfig::default() };
        let reference = Service::start(ds.decomp, Arc::clone(&base), cfg.clone());
        let want: Vec<Vec<Streamline>> = pool
            .chunks(SEEDS)
            .map(|seeds| {
                let resp = reference
                    .submit(Request::new(seeds.to_vec()).with_limits(limits()))
                    .expect("admitted")
                    .wait()
                    .expect("service answers");
                assert_eq!(resp.outcome, Outcome::Completed, "the fault-free pass is clean");
                resp.streamlines
            })
            .collect();
        reference.shutdown();

        let faulted = Arc::new(FaultStore::new(Arc::clone(&base), plan.clone()));
        let svc = Service::start(ds.decomp, Arc::clone(&faulted) as Arc<dyn BlockStore>, cfg);
        std::thread::scope(|s| {
            for (seeds, want) in pool.chunks(SEEDS).zip(&want) {
                let svc = &svc;
                s.spawn(move || {
                    for _ in 0..REQUESTS {
                        let resp = svc
                            .submit(Request::new(seeds.to_vec()).with_limits(limits()))
                            .expect("admitted")
                            .wait()
                            .expect("every ticket is answered");
                        assert_untouched_bit_identical(&resp.streamlines, want);
                    }
                });
            }
        });
        let m = svc.shutdown();
        assert_eq!(m.completed, (CLIENTS * REQUESTS) as u64, "batch {batch}: tickets lost");
        assert!(faulted.counters().faults_injected() > 0, "batch {batch}: the plan must fire");
    }
}

/// A 3-replica, replication-2 cluster under load loses replica 1
/// mid-stream. Every admitted request is answered or typed gone, and the
/// metrics dump parses with the cluster series and exactly one death.
#[test]
fn replica_kill_under_load_balances_the_books() {
    let ds = astro();
    let pool = ds.seeds_with_count(Seeding::Dense, 64).points;
    let cluster = ClusterService::start(
        ds.decomp,
        Arc::new(MemoryStore::build(&ds)),
        ClusterConfig {
            replicas: 3,
            replication: 2,
            heartbeat_every: Duration::from_millis(1),
            suspect_after: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    );
    let tickets: Vec<_> = pool
        .chunks(4)
        .enumerate()
        .map(|(i, seeds)| {
            if i == 8 {
                assert!(cluster.kill_replica(1));
            }
            cluster.submit(Request::new(seeds.to_vec()).with_limits(limits())).expect("admitted")
        })
        .collect();
    let (mut answered, mut gone) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => answered += 1,
            Err(_) => gone += 1,
        }
    }
    let give_up = Instant::now() + Duration::from_secs(10);
    while cluster.metrics().replica_deaths == 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }

    let parsed = prom::parse_text(&cluster.dump_metrics()).expect("the dump parses");
    for name in [
        "streamline_cluster_requests_submitted_total",
        "streamline_cluster_handoffs_total",
        "streamline_cluster_replica_cache_hit_rate_r0",
    ] {
        assert!(parsed.contains_key(name), "{name} missing from the dump");
    }
    assert_eq!(parsed["streamline_cluster_replica_deaths_total"], 1.0);

    let m = cluster.shutdown();
    assert_eq!((m.completed, m.requests_gone), (answered, gone));
    assert_eq!(m.completed + m.requests_gone, m.submitted, "admitted requests went missing");
    assert_eq!(m.submitted, 16);
}

/// A store that records which thread made each `try_load` call, once
/// switched on.
struct ThreadLog {
    inner: MemoryStore,
    on: std::sync::atomic::AtomicBool,
    names: std::sync::Mutex<Vec<String>>,
}

impl ThreadLog {
    fn record(&self, on: bool) {
        self.on.store(on, std::sync::atomic::Ordering::SeqCst);
    }
}

impl BlockStore for ThreadLog {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        if self.on.load(std::sync::atomic::Ordering::SeqCst) {
            let name = std::thread::current().name().unwrap_or("<unnamed>").to_string();
            self.names.lock().unwrap().push(name);
        }
        self.inner.try_load(id)
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
}

/// Workers never wait on block I/O: while a single service and a cluster
/// serve concurrent clients through caches far smaller than the dataset,
/// every store call is made by a replica's I/O thread. Warm-start and
/// bootstrap prefetches run on the caller's thread before traffic and are
/// not recorded.
#[test]
fn only_io_threads_load_blocks_while_serving() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 4;
    let ds = astro();
    let pool = ds.seeds_with_count(Seeding::Dense, CLIENTS * 4).points;
    let log = Arc::new(ThreadLog {
        inner: MemoryStore::build(&ds),
        on: Default::default(),
        names: Default::default(),
    });
    let traffic = |submit: &(dyn Fn(Request) -> Outcome + Sync)| {
        std::thread::scope(|s| {
            for seeds in pool.chunks(4) {
                s.spawn(move || {
                    for _ in 0..REQUESTS {
                        let req = Request::new(seeds.to_vec()).with_limits(limits());
                        assert_eq!(submit(req), Outcome::Completed);
                    }
                });
            }
        });
    };

    let svc = Service::start(
        ds.decomp,
        Arc::clone(&log) as Arc<dyn BlockStore>,
        ServiceConfig { workers: 3, cache_blocks: 6, ..ServiceConfig::default() },
    );
    svc.warm_start(&WarmStartManifest { blocks: (0..6).map(BlockId).collect() });
    log.record(true);
    traffic(&|req| svc.submit(req).expect("admitted").wait().expect("answered").outcome);
    svc.shutdown();
    log.record(false);

    let cluster = ClusterService::start(
        ds.decomp,
        Arc::clone(&log) as Arc<dyn BlockStore>,
        ClusterConfig { replicas: 3, cache_blocks: 4, ..ClusterConfig::default() },
    );
    cluster.bootstrap();
    log.record(true);
    traffic(&|req| cluster.submit(req).expect("admitted").wait().expect("answered").outcome);
    cluster.shutdown();

    let names = log.names.lock().unwrap().clone();
    assert!(names.len() > 20, "the workload must miss the cache: {} loads", names.len());
    for name in &names {
        assert!(name.starts_with("serve-r") && name.contains("-io"), "{name} loaded a block");
    }
}
