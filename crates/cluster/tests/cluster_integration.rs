//! Cluster-level invariants: a cluster of one is the single service, a
//! sharded cluster answers bit-identically to a single-shot driver run,
//! and replica kills resolve every in-flight ticket typed with exact
//! conservation.

use std::sync::Arc;
use std::time::Duration;
use streamline_cluster::{ClusterConfig, ClusterService, Outcome, Request};
use streamline_core::advance::advance_in_block;
use streamline_core::workspace::BlockExit;
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_field::decomp::BlockDecomposition;
use streamline_integrate::{Dopri5, StepLimits, Streamline, StreamlineId};
use streamline_iosim::{BlockStore, FaultPlan, FaultStore, MemoryStore};
use streamline_math::Vec3;
use streamline_serve::breaker::{BreakerConfig, RetryPolicy};
use streamline_serve::{Service, ServiceConfig};

fn tiny_dataset() -> Dataset {
    let mut dcfg = DatasetConfig::tiny();
    dcfg.blocks_per_axis = [2, 2, 2];
    Dataset::thermal_hydraulics(dcfg)
}

fn limits() -> StepLimits {
    StepLimits { max_steps: 300, ..StepLimits::default() }
}

fn fast_cluster(
    dataset: &Dataset,
    store: Arc<dyn BlockStore>,
    cfg: ClusterConfig,
) -> ClusterService {
    ClusterService::start(dataset.decomp, store, cfg)
}

/// The reference everything is compared to: each seed advanced serially
/// through the scalar kernel, block by block, loading straight from the
/// store — the single-shot driver path with no service, no cluster, no
/// cache, no concurrency.
fn single_shot(
    decomp: &BlockDecomposition,
    store: &dyn BlockStore,
    seeds: &[Vec3],
    limits: &StepLimits,
) -> Vec<Streamline> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let mut sl = Streamline::new_lean(StreamlineId(i as u32), p, limits.h0);
            let Some(mut block_id) = decomp.locate(p) else {
                sl.terminate(streamline_integrate::Termination::ExitedDomain);
                return sl;
            };
            loop {
                let block = store.load(block_id);
                let (exit, _) = advance_in_block(&mut sl, &block, decomp, limits, &Dopri5);
                match exit {
                    BlockExit::MovedTo(next) => block_id = next,
                    BlockExit::Done(_) => return sl,
                }
            }
        })
        .collect()
}

fn assert_bit_identical(got: &[Streamline], want: &[Streamline]) {
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.status, b.status, "streamline {:?} status diverged", a.id);
        assert_eq!(
            a.state.position.to_array().map(f64::to_bits),
            b.state.position.to_array().map(f64::to_bits),
            "streamline {:?} position diverged",
            a.id
        );
        assert_eq!(a.state.h.to_bits(), b.state.h.to_bits());
        assert_eq!(a.geometry, b.geometry, "streamline {:?} geometry diverged", a.id);
    }
}

#[test]
fn cluster_of_one_is_bit_identical_to_the_single_service() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 24);

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig { replicas: 1, ..ClusterConfig::default() },
    );
    let service = Service::start(dataset.decomp, Arc::clone(&store), ServiceConfig::default());

    let got = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    let want = service
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("service answers");
    assert_eq!(got.outcome, Outcome::Completed);
    assert_eq!(got.outcome, want.outcome);
    assert_bit_identical(&got.streamlines, &want.streamlines);

    let m = cluster.shutdown();
    assert_eq!(m.handoffs, 0, "one replica owns everything; nothing to hand off");
    assert!(m.conservation_holds());
    service.shutdown();
}

#[test]
fn cluster_of_one_is_bit_identical_under_chaos() {
    // Transient store faults on every block: the per-replica retry budget
    // absorbs them invisibly, exactly like the single service under the
    // same plan — faults deny, they never corrupt.
    let dataset = tiny_dataset();
    let clean: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let mut plan = FaultPlan::new();
    for b in 0..8 {
        plan = plan.transient(streamline_field::block::BlockId(b), 2);
    }
    let faulted: Arc<dyn BlockStore> = Arc::new(FaultStore::new(Arc::clone(&clean), plan));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);

    let cluster = fast_cluster(
        &dataset,
        faulted,
        ClusterConfig {
            replicas: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                base: Duration::from_micros(100),
                max: Duration::from_micros(500),
            },
            breaker: BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(600) },
            ..ClusterConfig::default()
        },
    );
    let service = Service::start(dataset.decomp, clean, ServiceConfig::default());

    let got = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    let want = service
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("service answers");
    assert_eq!(got.outcome, Outcome::Completed, "transient faults must be invisible");
    assert_bit_identical(&got.streamlines, &want.streamlines);
    let m = cluster.shutdown();
    assert!(m.conservation_holds());
    service.shutdown();
}

#[test]
fn cross_replica_handoffs_are_bit_identical_to_a_single_shot_run() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Dense, 48);
    let lim = limits();

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig { replicas: 4, ..ClusterConfig::default() },
    );
    let got = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(lim))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    let want = single_shot(&dataset.decomp, store.as_ref(), &seeds.points, &lim);
    assert_eq!(got.outcome, Outcome::Completed);
    assert_bit_identical(&got.streamlines, &want);

    let m = cluster.shutdown();
    assert!(m.handoffs > 0, "8 blocks over 4 replicas: dense trajectories must cross shards");
    assert!(m.handoff_bytes > m.handoffs, "hand-offs carry geometry, not just headers");
    assert!(m.conservation_holds());
}

#[test]
fn hot_block_replication_keeps_answers_bit_identical() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Dense, 32);
    let lim = limits();

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig {
            replicas: 4,
            replication: 2,
            hot_k: 8, // every touched block is eligible
            heartbeat_every: Duration::from_millis(1),
            ..ClusterConfig::default()
        },
    );
    // Repeat the workload so the monitor's hot set (recomputed on the
    // heartbeat cadence) is in force for the later rounds.
    let want = single_shot(&dataset.decomp, store.as_ref(), &seeds.points, &lim);
    for _ in 0..20 {
        let got = cluster
            .submit(Request::new(seeds.points.clone()).with_limits(lim))
            .expect("admitted")
            .wait()
            .expect("cluster answers");
        assert_eq!(got.outcome, Outcome::Completed);
        assert_bit_identical(&got.streamlines, &want);
    }
    let m = cluster.shutdown();
    assert!(m.conservation_holds());
    // Replication is an optimization, not a semantic: whether a hot block
    // was advanced locally or handed off, the answers above already proved
    // bit-identity. The traffic split just has to add up.
    assert!(m.handoffs + m.hot_local_hits > 0, "cross-shard traffic must exist");
}

#[test]
fn replica_kill_resolves_every_ticket_typed_with_exact_conservation() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Dense, 64);
    let lim = limits();

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig {
            replicas: 3,
            heartbeat_every: Duration::from_millis(1),
            suspect_after: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for _ in 0..4 {
        tickets.push(
            cluster.submit(Request::new(seeds.points.clone()).with_limits(lim)).expect("admitted"),
        );
    }
    assert!(cluster.kill_replica(1), "first kill succeeds");
    assert!(!cluster.kill_replica(1), "second kill is a no-op");
    for _ in 0..4 {
        tickets.push(
            cluster.submit(Request::new(seeds.points.clone()).with_limits(lim)).expect("admitted"),
        );
    }

    // Every ticket resolves typed — an answer or ServiceGone, never a hang.
    let want = single_shot(&dataset.decomp, store.as_ref(), &seeds.points, &lim);
    let mut answered = 0u64;
    let mut gone = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(resp) => {
                answered += 1;
                assert_eq!(resp.outcome, Outcome::Completed);
                // Re-dispatched trajectories moved intact: answers from a
                // run with a mid-flight death are still bit-identical.
                assert_bit_identical(&resp.streamlines, &want);
            }
            Err(_) => gone += 1,
        }
    }
    let m = cluster.shutdown();
    assert_eq!(m.replica_deaths, 1, "the monitor detected exactly one death");
    assert_eq!(m.replicas_alive, 2);
    assert_eq!(m.completed, answered);
    assert_eq!(m.requests_gone, gone);
    assert!(
        m.conservation_holds(),
        "completed {} + gone {} != submitted {}",
        m.completed,
        m.requests_gone,
        m.submitted
    );
}

#[test]
fn killed_cluster_routes_new_requests_around_the_dead_replica() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
    let lim = limits();

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig {
            replicas: 2,
            heartbeat_every: Duration::from_millis(1),
            suspect_after: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    );
    cluster.kill_replica(0);
    // Wait out detection, then submit: everything must route to replica 1.
    std::thread::sleep(Duration::from_millis(60));
    let resp = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(lim))
        .expect("admitted")
        .wait()
        .expect("the surviving replica answers");
    assert_eq!(resp.outcome, Outcome::Completed);
    let want = single_shot(&dataset.decomp, store.as_ref(), &seeds.points, &lim);
    assert_bit_identical(&resp.streamlines, &want);
    let m = cluster.shutdown();
    assert_eq!(m.replica_deaths, 1);
    assert!(m.conservation_holds());
    let dead = &m.per_replica[0];
    assert!(!dead.alive);
    assert_eq!(dead.queue_depth, 0, "the dead replica holds no admission seats");
}

#[test]
fn overload_rejects_typed_without_enqueuing() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Dense, 64);

    let cluster = fast_cluster(
        &dataset,
        store,
        ClusterConfig { replicas: 2, queue_capacity: 8, ..ClusterConfig::default() },
    );
    // 64 seeds over 2 replicas with 8 seats each must overflow somewhere.
    let err = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect_err("must be rejected");
    match err {
        streamline_cluster::SubmitError::Overloaded { capacity, requested, .. } => {
            assert_eq!(capacity, 8);
            assert_eq!(requested, 64);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The rollback was complete: a fitting request is admitted and runs.
    let resp = cluster
        .submit(Request::new(seeds.points[..4].to_vec()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    assert_eq!(resp.streamlines.len(), 4);
    let m = cluster.shutdown();
    assert_eq!(m.rejected, 1);
    assert_eq!(m.submitted, 1);
    assert!(m.conservation_holds());
    for r in &m.per_replica {
        assert_eq!(r.queue_depth, 0, "rejection must leak no admission seats");
    }
}

#[test]
fn bootstrap_prefetches_each_replicas_shard() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);

    let cluster = fast_cluster(
        &dataset,
        Arc::clone(&store),
        ClusterConfig { replicas: 2, ..ClusterConfig::default() },
    );
    let prefetched = cluster.bootstrap();
    assert_eq!(prefetched, 8, "2 replicas x their shards cover all 8 blocks once");
    let resp = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    assert_eq!(resp.outcome, Outcome::Completed);
    let m = cluster.shutdown();
    // Every block a replica served was already resident from bootstrap.
    let total_loaded: u64 = m.per_replica.iter().map(|r| r.cache_loaded).sum();
    assert_eq!(total_loaded, 8, "the workload itself took no cold loads");
    assert!(m.per_replica.iter().any(|r| r.cache_hits > 0));
}

#[test]
fn worker_panic_is_contained_and_resolves_tickets_gone() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
    let target = dataset.decomp.locate(seeds.points[0]).expect("seed in domain");

    let cluster = fast_cluster(
        &dataset,
        store,
        ClusterConfig { replicas: 2, panic_on_block: Some(target), ..ClusterConfig::default() },
    );
    let err = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect_err("the panicked batch resolves its ticket as ServiceGone");
    assert_eq!(err.request_id, 0);
    // Contained: the same workload completes afterwards.
    let resp = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers after the panic");
    assert_eq!(resp.outcome, Outcome::Completed);
    let m = cluster.shutdown();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.requests_gone, 1);
    assert!(m.conservation_holds());
    for r in &m.per_replica {
        assert_eq!(r.queue_depth, 0, "panic recovery released every admission seat");
    }
}

#[test]
fn traced_cluster_emits_a_valid_timeline_with_schedule_and_deaths() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Dense, 48);

    let cluster = fast_cluster(
        &dataset,
        store,
        ClusterConfig {
            replicas: 3,
            trace_bucket: Some(Duration::from_millis(1)),
            heartbeat_every: Duration::from_millis(1),
            suspect_after: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    );
    let t =
        cluster.submit(Request::new(seeds.points.clone()).with_limits(limits())).expect("admitted");
    cluster.kill_replica(2);
    let _ = t.wait();
    // Let the monitor notice the death before snapshotting.
    std::thread::sleep(Duration::from_millis(60));
    let tf = cluster.timeline().expect("tracing was enabled");
    tf.validate().expect("trace invariants hold");
    assert_eq!(tf.clock, "wall");
    assert_eq!(tf.n_ranks, 3);
    let schedule = tf.schedule.as_ref().expect("schedule section present");
    assert_eq!(
        schedule.rank_deaths.len(),
        1,
        "the kill shows up as a rank death in the schedule trace"
    );
    let m = cluster.shutdown();
    assert!(m.conservation_holds());

    // The metrics dump carries the cluster namespace end to end.
    let cluster2 = {
        let dataset = tiny_dataset();
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        ClusterService::start(dataset.decomp, store, ClusterConfig::default())
    };
    let text = cluster2.dump_metrics();
    assert!(text.contains("streamline_cluster_replicas"));
    assert!(text.contains("streamline_cluster_handoffs_total"));
    assert!(text.contains("streamline_cluster_replica_cache_hit_rate_r0"));
    cluster2.shutdown();
}

#[test]
fn seeds_with_no_live_owner_resolve_unavailable_without_leaking_seats() {
    let dataset = tiny_dataset();
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 8);

    let cluster = fast_cluster(
        &dataset,
        store,
        ClusterConfig {
            replicas: 2,
            heartbeat_every: Duration::from_millis(1),
            suspect_after: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    );
    assert!(cluster.kill_replica(0));
    assert!(cluster.kill_replica(1));
    let mut alive = cluster.metrics().replicas_alive;
    for _ in 0..1000 {
        if alive == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        alive = cluster.metrics().replicas_alive;
    }
    assert_eq!(alive, 0, "the monitor declares both killed replicas dead");

    // In-domain seeds whose blocks have no live owner are cut short typed,
    // not passed off as having left the domain.
    let resp = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("answered on the client thread");
    assert_eq!(resp.outcome, Outcome::Partial { unavailable: 8 });
    for sl in &resp.streamlines {
        assert_eq!(
            sl.status,
            streamline_integrate::StreamlineStatus::Terminated(
                streamline_integrate::Termination::BlockUnavailable
            )
        );
    }
    let m = cluster.shutdown();
    assert_eq!(m.streamlines_unavailable, 8);
    assert!(m.conservation_holds());
    for r in &m.per_replica {
        assert_eq!(r.queue_depth, 0, "no admission seat leaks");
    }
}

#[test]
fn engine_counters_are_exported_under_cluster_names() {
    use streamline_field::block::BlockId;
    use streamline_obs::{names, prom};

    // One permanently failing block (failures, partial answers, unavailable
    // streamlines), every other block failing once (retries), and a request
    // past its deadline: every engine counter moves.
    let dataset = tiny_dataset();
    let clean: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 16);
    let failing = dataset.decomp.locate(seeds.points[0]).expect("seed in domain");
    let mut plan = FaultPlan::new().permanent(failing);
    for b in (0..8).map(BlockId).filter(|&b| b != failing) {
        plan = plan.transient(b, 1);
    }
    let store: Arc<dyn BlockStore> = Arc::new(FaultStore::new(clean, plan));
    let cluster = fast_cluster(
        &dataset,
        store,
        ClusterConfig {
            replicas: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_micros(100),
                max: Duration::from_micros(500),
            },
            ..ClusterConfig::default()
        },
    );
    let partial = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    assert!(matches!(partial.outcome, Outcome::Partial { .. }), "{:?}", partial.outcome);
    let late = std::time::Instant::now() - Duration::from_millis(1);
    let expired = cluster
        .submit(Request::new(seeds.points.clone()).with_limits(limits()).with_deadline(late))
        .expect("admitted")
        .wait()
        .expect("cluster answers");
    assert!(matches!(expired.outcome, Outcome::DeadlineExceeded { .. }), "{:?}", expired.outcome);

    let parsed = prom::parse_text(&cluster.dump_metrics()).expect("the dump parses");
    let m = cluster.metrics();
    for (name, engine) in [
        (names::CLUSTER_LOAD_RETRIES_TOTAL, m.load_retries),
        (names::CLUSTER_LOAD_FAILURES_TOTAL, m.load_failures),
        (names::CLUSTER_DEADLINE_EXPIRED_TOTAL, m.deadline_expired),
        (names::CLUSTER_PARTIAL_TOTAL, m.partial),
        (names::CLUSTER_STREAMLINES_UNAVAILABLE_TOTAL, m.streamlines_unavailable),
        (names::CLUSTER_SAMPLER_HITS_TOTAL, m.sampler_hits),
        (names::CLUSTER_SAMPLER_MISSES_TOTAL, m.sampler_misses),
        (names::CLUSTER_BATCHED_LANES_TOTAL, m.batched_lanes),
    ] {
        let Some(&dumped) = parsed.get(name) else { panic!("{name} missing from the dump") };
        assert_eq!(dumped, engine as f64, "{name} disagrees with its engine counter");
        assert!(engine > 0, "{name} did not move");
    }
    cluster.shutdown();
}
