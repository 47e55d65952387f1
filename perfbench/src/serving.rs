//! Serving workloads: an open-loop, fixed-rate Poisson stream of small
//! requests sent to one `Service`, or to a 2-replica `ClusterService`, over
//! a store that charges 2 ms per block load.
//!
//! One generator thread sends every request when it is due, whether or not
//! the service has kept up, and keeps the tickets. A request's latency runs
//! from when it was due: how late the generator submitted it, plus the
//! submission-to-answer time the service reports in `Response::latency`.
//! Tickets are redeemed after the last arrival by blocking waits, so no
//! completion is timed by polling.

use crate::probe::{median, quantile, ratio, span_cost_s, state_key, Metrics, Rng, TimedStore};
use crate::RunResult;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_cluster::{ClusterConfig, ClusterMetrics, ClusterService};
use streamline_core::advance::advance_in_block;
use streamline_core::BlockExit;
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_field::BlockDecomposition;
use streamline_integrate::{Dopri5, StepLimits, Streamline, StreamlineId, Termination};
use streamline_iosim::{BlockStore, MemoryStore};
use streamline_math::Vec3;
use streamline_serve::{
    Outcome, Request, Service, ServiceConfig, ServiceMetrics, SubmitError, Ticket,
};

pub struct ServeSpec {
    /// `None`: one `Service`; `Some(n)`: an `n`-replica cluster.
    replicas: Option<usize>,
}

pub const SINGLE: ServeSpec = ServeSpec { replicas: None };
pub const CLUSTER: ServeSpec = ServeSpec { replicas: Some(2) };

/// Requests per second; about half of what one service sustains here.
const RATE: f64 = 100.0;
const SEEDS_PER_REQUEST: usize = 4;
/// Distinct seed points requests draw from, with Zipf popularity.
const POOL: usize = 256;
const ZIPF_S: f64 = 1.1;
const LOAD_DELAY: Duration = Duration::from_millis(2);
/// Block cache per service (or per replica) — a quarter of the dataset.
const CACHE_BLOCKS: usize = 16;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;
/// Traced runs sample the service's queue depth every this many arrivals.
const DEPTH_EVERY: usize = 100;

/// The quick 64-block thermal-hydraulics dataset.
fn dataset() -> Dataset {
    Dataset::thermal_hydraulics(DatasetConfig {
        blocks_per_axis: [4, 4, 4],
        cells_per_block: [8, 8, 8],
        ghost: 1,
        seed: 42,
    })
}

/// Thermal sparse-seeding limits, capped at 200 steps so every request is
/// a short episode.
fn limits() -> StepLimits {
    StepLimits {
        h0: 1e-3,
        h_max: 0.01,
        min_speed: 1e-4,
        max_steps: 200,
        max_arc_length: 10.0,
        ..StepLimits::default()
    }
}

struct Arrival {
    /// Seconds after the trace start the request is due.
    due_s: f64,
    pool: [usize; SEEDS_PER_REQUEST],
}

/// `RATE × seconds` arrivals of a Poisson process conditioned on its count
/// (due times i.i.d. uniform over the run, sorted), each asking for
/// Zipf-popular pool points. Every run asks for each pool point its exact
/// Zipf share of the draws (largest remainders round the shares to whole
/// draws); the seed shuffles which request asks for which. A run's mix of
/// popular and rare points is then the same for every seed, and only its
/// order and timing vary.
fn trace(seed: u64, seconds: f64) -> Vec<Arrival> {
    let n = (RATE * seconds).round() as usize;
    let mut clock = Rng::new(seed, 1);
    let mut due: Vec<f64> = (0..n).map(|_| clock.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);

    let draws = n * SEEDS_PER_REQUEST;
    let weight: Vec<f64> = (1..=POOL).map(|i| (i as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weight.iter().sum();
    let share: Vec<f64> = weight.iter().map(|w| w / total * draws as f64).collect();
    let mut count: Vec<usize> = share.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..POOL).collect();
    by_remainder
        .sort_by(|&a, &b| (share[b] - share[b].floor()).total_cmp(&(share[a] - share[a].floor())));
    let short = draws - count.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        count[k] += 1;
    }
    let mut picks: Vec<usize> = (0..POOL).flat_map(|k| std::iter::repeat_n(k, count[k])).collect();
    let mut shuffle = Rng::new(seed, 2);
    for i in (1..picks.len()).rev() {
        picks.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
    }
    due.into_iter()
        .zip(picks.chunks_exact(SEEDS_PER_REQUEST))
        .map(|(due_s, p)| Arrival { due_s, pool: p.try_into().expect("chunk of one request") })
        .collect()
}

/// One seed integrated to termination block by block on the calling
/// thread: the reference every served answer must equal.
fn chase(
    decomp: &BlockDecomposition,
    store: &dyn BlockStore,
    p: Vec3,
    limits: &StepLimits,
) -> Streamline {
    let mut sl = Streamline::new_lean(StreamlineId(0), p, limits.h0);
    let Some(mut block) = decomp.locate(p) else {
        sl.terminate(Termination::ExitedDomain);
        return sl;
    };
    while let (BlockExit::MovedTo(next), _) =
        advance_in_block(&mut sl, &store.load(block), decomp, limits, &Dopri5)
    {
        block = next;
    }
    sl
}

enum Front {
    Single(Service),
    Cluster(ClusterService),
}

/// What the front end reported when it shut down.
#[derive(Default)]
struct FrontStats {
    submitted: u64,
    completed: u64,
    gone: u64,
    steps: u64,
    cache_hit_rate: f64,
    batched_lanes: u64,
    handoffs: u64,
    handoff_bytes: u64,
    hot_local_hits: u64,
    /// Max over mean completed streamlines per replica.
    replica_imbalance: f64,
}

impl Front {
    fn start(spec: &ServeSpec, decomp: BlockDecomposition, store: Arc<dyn BlockStore>) -> Front {
        match spec.replicas {
            None => {
                let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
                let cfg =
                    ServiceConfig { workers, cache_blocks: CACHE_BLOCKS, ..Default::default() };
                Front::Single(Service::start(decomp, store, cfg))
            }
            Some(replicas) => {
                let cfg = ClusterConfig {
                    replicas,
                    replication: 1,
                    cache_blocks: CACHE_BLOCKS,
                    // No replica dies in this workload: beat rarely, so the
                    // liveness threads do not compete with the workers for
                    // the host's cores, and suspect late, so a starved beat
                    // on a busy host is never taken for a death.
                    heartbeat_every: Duration::from_millis(100),
                    suspect_after: Duration::from_secs(5),
                    ..Default::default()
                };
                let cluster = ClusterService::start(decomp, store, cfg);
                cluster.bootstrap();
                Front::Cluster(cluster)
            }
        }
    }

    fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        match self {
            Front::Single(s) => s.submit(req),
            Front::Cluster(c) => c.submit(req),
        }
    }

    /// Seeds admitted but not yet answered.
    fn queue_depth(&self) -> usize {
        match self {
            Front::Single(s) => s.metrics().queue_depth,
            Front::Cluster(c) => c.metrics().per_replica.iter().map(|r| r.queue_depth).sum(),
        }
    }

    fn shutdown(self) -> FrontStats {
        match self {
            Front::Single(s) => {
                let m: ServiceMetrics = s.shutdown();
                FrontStats {
                    submitted: m.submitted,
                    completed: m.completed,
                    gone: m.requests_gone,
                    steps: m.total_steps,
                    cache_hit_rate: m.cache_hit_rate,
                    batched_lanes: m.batched_lanes,
                    ..FrontStats::default()
                }
            }
            Front::Cluster(c) => {
                let m: ClusterMetrics = c.shutdown();
                let (hits, loads) = m
                    .per_replica
                    .iter()
                    .fold((0, 0), |(h, l), r| (h + r.cache_hits, l + r.cache_loaded));
                let done: Vec<f64> =
                    m.per_replica.iter().map(|r| r.streamlines_completed as f64).collect();
                let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
                FrontStats {
                    submitted: m.submitted,
                    completed: m.completed,
                    gone: m.requests_gone,
                    steps: m.total_steps,
                    cache_hit_rate: ratio(hits as f64, (hits + loads) as f64),
                    batched_lanes: 0,
                    handoffs: m.handoffs,
                    handoff_bytes: m.handoff_bytes,
                    hot_local_hits: m.hot_local_hits,
                    replica_imbalance: ratio(done.iter().cloned().fold(0.0, f64::max), mean),
                }
            }
        }
    }
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> RunResult {
    // --- Set-up: dataset and store, then the service (or the cluster,
    // bootstrapped from its ring shards).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut store_build_s = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<(Dataset, Arc<MemoryStore>, Arc<TimedStore>, Front)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, _, front)) = built.take() {
            front.shutdown();
        }
        let t = Instant::now();
        let ds = dataset();
        let mem = Arc::new(MemoryStore::build(&ds));
        store_build_s.push(t.elapsed().as_secs_f64());
        let slow = Arc::new(TimedStore::new(mem.clone(), LOAD_DELAY, traced));
        let front = Front::start(spec, ds.decomp, slow.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((ds, mem, slow, front));
    }
    let (ds, mem, slow, front) = built.expect("at least one set-up");

    // --- Inputs and their reference answers (untimed).
    let limits = limits();
    let pool = ds.seeds_with_count(Seeding::Sparse, POOL).points;
    let want: Vec<u64> =
        pool.iter().map(|&p| state_key(&chase(&ds.decomp, mem.as_ref(), p, &limits))).collect();
    let arrivals = trace(seed, seconds);

    // --- Timed phase: send on schedule, then redeem every ticket.
    let (loads_before, wait_before) = slow.loads();
    let mut pending = Vec::with_capacity(arrivals.len());
    let mut lateness_ms = Vec::with_capacity(arrivals.len());
    let mut submit_us = Vec::new();
    let mut depth_max = 0usize;
    let mut depth_probe_s = 0.0;
    let mut rejected = 0u64;
    let start = Instant::now();
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let req = Request::new(a.pool.iter().map(|&k| pool[k]).collect()).with_limits(limits);
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due);
        lateness_ms.push(late.as_secs_f64() * 1e3);
        match front.submit(req) {
            Ok(ticket) => pending.push((late, &a.pool, ticket)),
            Err(e) => {
                eprintln!("[perfbench] request {i} refused: {e}");
                rejected += 1;
            }
        }
        if traced {
            submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            if i % DEPTH_EVERY == 0 {
                let t = Instant::now();
                depth_max = depth_max.max(front.queue_depth());
                depth_probe_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let backlog = front.queue_depth();
    depth_max = depth_max.max(backlog);
    let mut latency_ms = Vec::with_capacity(pending.len());
    let mut service_ms = Vec::with_capacity(pending.len());
    let (mut answered, mut gone, mut unfinished, mut wrong, mut streamlines) = (0u64, 0, 0, 0, 0);
    for (late, keys, ticket) in pending {
        let Ok(resp) = ticket.wait() else {
            gone += 1;
            continue;
        };
        answered += 1;
        latency_ms.push((late + resp.latency).as_secs_f64() * 1e3);
        service_ms.push(resp.latency.as_secs_f64() * 1e3);
        if resp.outcome != Outcome::Completed {
            unfinished += 1;
            continue;
        }
        streamlines += resp.streamlines.len() as u64;
        let matches = resp.streamlines.len() == keys.len()
            && resp.streamlines.iter().zip(keys.iter()).all(|(sl, &k)| state_key(sl) == want[k]);
        wrong += u64::from(!matches);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let (loads_after, wait_after) = slow.loads();
    let stats = front.shutdown();

    // --- Correctness: exact answers and balanced books.
    let attempted = arrivals.len() as u64;
    let failed = rejected + gone + unfinished;
    let books = stats.submitted == answered + gone
        && stats.completed + stats.gone == stats.submitted
        && answered + gone + rejected == attempted;
    let correct = wrong == 0 && books;
    eprintln!(
        "[perfbench] {attempted} requests: {answered} answered ({wrong} wrong, {unfinished} \
         unfinished), {rejected} refused, {gone} gone; books balance: {books}; backlog at end \
         of arrivals {backlog} seeds; generator lag p99 {:.3} ms",
        quantile(&lateness_ms, 0.99)
    );

    let mut m = Metrics::default();
    if !traced {
        m.set("setup_s", median(&setup_s), "s");
        m.set("streamlines_per_s", streamlines as f64 / timed_s, "1/s");
        m.set("latency_p50_ms", median(&latency_ms), "ms");
        m.set("latency_p95_ms", quantile(&latency_ms, 0.95), "ms");
        m.set("completed_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
        return RunResult { correct, attempted, failed, metrics: m };
    }

    // --- Traced: per-layer attribution.
    let t = Instant::now();
    for id in ds.decomp.all_blocks() {
        std::hint::black_box(ds.build_block(id));
    }
    m.set("field.block_build_s", t.elapsed().as_secs_f64(), "s");
    m.set("iosim.store_build_s", median(&store_build_s), "s");
    let loads = loads_after - loads_before;
    m.set("iosim.loads", loads as f64, "count");
    m.set("iosim.load_wait_s", wait_after - wait_before, "s");
    m.set("serve.submit_us_p50", median(&submit_us), "us");
    m.set("serve.service_latency_p50_ms", median(&service_ms), "ms");
    m.set("serve.generator_lag_p99_ms", quantile(&lateness_ms, 0.99), "ms");
    m.set("serve.queue_depth_max", depth_max as f64, "count");
    m.set("serve.cache_hit_rate", stats.cache_hit_rate, "ratio");
    m.set("serve.batched_lanes", stats.batched_lanes as f64, "count");
    m.set("serve.steps", stats.steps as f64, "count");
    if spec.replicas.is_some() {
        m.set("cluster.handoffs", stats.handoffs as f64, "count");
        m.set("cluster.handoff_bytes", stats.handoff_bytes as f64, "B");
        m.set("cluster.hot_local_hits", stats.hot_local_hits as f64, "count");
        m.set("cluster.replica_imbalance", stats.replica_imbalance, "ratio");
        m.set("cluster.cache_hit_rate", stats.cache_hit_rate, "ratio");
    }
    // Recording cost: one span per load and per submit, plus the measured
    // time spent sampling the queue depth.
    let spans = loads + submit_us.len() as u64;
    let overhead_s = spans as f64 * span_cost_s() + depth_probe_s;
    m.set("bench.trace_overhead_frac", overhead_s / timed_s, "ratio");
    RunResult { correct, attempted, failed, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seeded_sorted_and_skewed() {
        let a = trace(3, 5.0);
        let b = trace(3, 5.0);
        assert_eq!(a.len(), 500);
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_s == y.due_s && x.pool == y.pool));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|x| (0.0..5.0).contains(&x.due_s)));
        let head = a.iter().flat_map(|x| x.pool).filter(|&k| k < POOL / 8).count();
        assert!(head * 2 > a.len() * SEEDS_PER_REQUEST, "Zipf head should dominate");
        assert!(trace(4, 5.0).iter().zip(&a).any(|(x, y)| x.due_s != y.due_s));
    }
}
