//! Batch workloads: one of the paper's §5 problems run by each scheduling
//! driver in turn on the discrete-event simulator, then replayed without a
//! scheduler through the batched block-advance kernel.
//!
//! Timed phase: the driver runs, back to back, over one `MemoryStore` built
//! during set-up. The kernel replay runs after it on every run (it is the
//! correctness reference), and its time is reported only when traced.

use crate::probe::{digest, median, quantile, ratio, span_cost_s, terminated_normally};
use crate::probe::{Metrics, TimedStore};
use crate::RunResult;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_core::advance::{advance_batch_in_block, StreamlineBatch};
use streamline_core::{
    run_simulated_detailed_with_store, Algorithm, BatchParams, BlockExit, RunConfig, RunReport,
};
use streamline_field::dataset::{Dataset, DatasetConfig};
use streamline_field::seeds::{dense_circle, sparse_random};
use streamline_field::thermal::ThermalHydraulicsField;
use streamline_field::{BlockDecomposition, BlockId, SeedSet};
use streamline_integrate::{StepLimits, Streamline, StreamlineId, Termination};
use streamline_iosim::{BlockStore, MemoryStore};
use streamline_math::Vec3;

/// Every driver, by the name its per-layer metrics carry.
pub const DRIVERS: [(&str, Algorithm); 4] = [
    ("static", Algorithm::StaticAllocation),
    ("lod", Algorithm::LoadOnDemand),
    ("hybrid", Algorithm::HybridMasterSlave),
    ("steal", Algorithm::WorkStealing),
];

#[derive(Clone, Copy)]
enum Problem {
    /// Astrophysics field, sparse domain-filling seeds.
    AstroSparse,
    /// Thermal-hydraulics field, dense seeds in a circle around the inlet.
    ThermalDense,
}

pub struct BatchSpec {
    problem: Problem,
    seeds: usize,
    drivers: &'static [&'static str],
}

/// Curves cross all 512 blocks, so the per-rank cache churns and drivers
/// hand off often: scheduler, simulator and block-hop work dominate.
pub const SPARSE: BatchSpec = BatchSpec {
    problem: Problem::AstroSparse,
    seeds: 20_000,
    drivers: &["static", "lod", "hybrid", "steal"],
};

/// The working set fits the cache and little is sent, so the batched
/// kernel dominates. Static Allocation is left out: at this seed count it
/// exceeds the per-rank memory budget, as in the paper, and times nothing.
pub const DENSE: BatchSpec = BatchSpec {
    problem: Problem::ThermalDense,
    seeds: 22_000,
    drivers: &["lod", "hybrid", "steal"],
};

const RANKS: usize = 64;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 3;

fn dataset(problem: Problem) -> Dataset {
    let cfg = DatasetConfig {
        blocks_per_axis: [8, 8, 8],
        cells_per_block: [16, 16, 16],
        ghost: 1,
        seed: 42,
    };
    match problem {
        Problem::AstroSparse => Dataset::astrophysics(cfg),
        Problem::ThermalDense => Dataset::thermal_hydraulics(cfg),
    }
}

/// The paper's integration limits for the problem (astrophysics: long
/// integrations; thermal dense: the short-distance inlet jet).
fn limits(problem: Problem) -> StepLimits {
    let mut l = StepLimits { h0: 1e-3, min_speed: 1e-4, max_steps: 2_500, ..StepLimits::default() };
    match problem {
        Problem::AstroSparse => l.h_max = 0.02,
        Problem::ThermalDense => {
            l.h_max = 0.01;
            l.max_arc_length = 3.0;
        }
    }
    l
}

/// The workload's seed points, drawn from the benchmark seed (the field
/// itself is fixed).
fn seed_points(problem: Problem, ds: &Dataset, n: usize, seed: u64) -> SeedSet {
    match problem {
        Problem::AstroSparse => sparse_random(&ds.decomp.domain, n, 0.25, seed),
        Problem::ThermalDense => {
            let inlet = ThermalHydraulicsField::INLET_WARM + Vec3::new(0.02, 0.0, 0.0);
            dense_circle(inlet, Vec3::X, 0.05, n, seed)
        }
    }
}

fn run_config(algorithm: Algorithm, limits: StepLimits) -> RunConfig {
    let mut cfg = RunConfig::new(algorithm, RANKS);
    cfg.limits = limits;
    // 64 cached blocks per rank: a toroidal dense working set fits, a
    // domain-filling sparse one does not (§5.2).
    cfg.cache_blocks = 64;
    cfg
}

/// What the scheduler-free replay did.
#[derive(Default)]
struct Replay {
    finished: Vec<Streamline>,
    steps: u64,
    lanes: u64,
    calls: u64,
    sampler_hits: u64,
    sampler_misses: u64,
}

/// Advance every seed block to block on one thread: a block-keyed worklist
/// drained fullest group first, `lanes` streamlines per
/// `advance_batch_in_block` call, movers re-queued under their next block.
/// There is no scheduler and no simulated clock, so this is the bare kernel
/// cost of the workload's own integration.
fn replay(
    decomp: &BlockDecomposition,
    store: &dyn BlockStore,
    seeds: &[Vec3],
    limits: &StepLimits,
    lanes: usize,
) -> Replay {
    let mut out = Replay::default();
    let mut worklist: BTreeMap<BlockId, Vec<Streamline>> = BTreeMap::new();
    for (i, &p) in seeds.iter().enumerate() {
        let mut sl = Streamline::new_lean(StreamlineId(i as u32), p, limits.h0);
        match decomp.locate(p) {
            Some(b) => worklist.entry(b).or_default().push(sl),
            None => {
                sl.terminate(Termination::ExitedDomain);
                out.finished.push(sl);
            }
        }
    }
    let mut scratch = StreamlineBatch::new();
    while let Some(id) = worklist.iter().max_by_key(|(id, g)| (g.len(), **id)).map(|(id, _)| *id) {
        let mut group = worklist.remove(&id).expect("key was just found");
        let block = store.load(id);
        let mut exits = Vec::with_capacity(group.len());
        for chunk in group.chunks_mut(lanes) {
            let (e, stats) = advance_batch_in_block(chunk, &block, decomp, limits, &mut scratch);
            exits.extend(e);
            out.steps += stats.steps;
            out.lanes += stats.batched_lanes;
            out.calls += 1;
            out.sampler_hits += stats.sampler_hits;
            out.sampler_misses += stats.sampler_misses;
        }
        for (sl, exit) in group.into_iter().zip(exits) {
            match exit {
                BlockExit::MovedTo(next) => worklist.entry(next).or_default().push(sl),
                BlockExit::Done(_) => out.finished.push(sl),
            }
        }
    }
    out.finished.sort_by_key(|s| s.id);
    out
}

struct DriverRun {
    name: &'static str,
    report: RunReport,
    finished: Vec<Streamline>,
    /// Host seconds of the run (traced runs only).
    host_s: f64,
}

pub fn run(spec: &BatchSpec, seed: u64, traced: bool) -> RunResult {
    // --- Set-up: build the field's blocks into a memory store.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // free the previous store before timing the next build
        let t = Instant::now();
        let ds = dataset(spec.problem);
        let store = Arc::new(MemoryStore::build(&ds));
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((ds, store));
    }
    let (ds, mem) = built.expect("at least one set-up");
    let seeds = seed_points(spec.problem, &ds, spec.seeds, seed);
    let limits = limits(spec.problem);
    let timed_store = Arc::new(TimedStore::new(mem.clone(), Duration::ZERO, true));
    let store: Arc<dyn BlockStore> = if traced { timed_store.clone() } else { mem.clone() };

    // --- Timed phase: every driver in turn.
    let mut runs = Vec::with_capacity(spec.drivers.len());
    let t0 = Instant::now();
    for &name in spec.drivers {
        let algorithm = DRIVERS.iter().find(|(n, _)| *n == name).expect("known driver").1;
        let t = traced.then(Instant::now);
        let (report, finished) = run_simulated_detailed_with_store(
            &ds,
            &seeds,
            &run_config(algorithm, limits),
            Arc::clone(&store),
        );
        let host_s = t.map_or(0.0, |t| t.elapsed().as_secs_f64());
        runs.push(DriverRun { name, report, finished, host_s });
    }
    let timed_s = t0.elapsed().as_secs_f64();

    // --- Reference: the scheduler-free kernel replay of the same seeds.
    let lanes = BatchParams::default().resolve();
    let t = Instant::now();
    let rep = replay(&ds.decomp, mem.as_ref(), &seeds.points, &limits, lanes);
    let replay_s = t.elapsed().as_secs_f64();
    let replay_digest = digest(&rep.finished);

    // --- Correctness: the same answers everywhere, every seed accounted.
    let n = seeds.len() as u64;
    let mut correct = rep.finished.len() == seeds.len();
    let mut failed = 0;
    for r in &runs {
        let normal = r.finished.iter().filter(|s| terminated_normally(s)).count() as u64;
        failed += n.saturating_sub(normal);
        let same_answers = digest(&r.finished) == replay_digest;
        let same_work = r.report.total_steps == rep.steps;
        let all_done = r.report.terminated == n && normal == n && r.report.outcome.completed();
        if !(same_answers && same_work && all_done) {
            eprintln!(
                "[perfbench] {}: digest matches replay: {same_answers}; steps {} vs replay {}; \
                 terminated {} (normally {}) of {n}; outcome {:?}",
                r.name,
                r.report.total_steps,
                rep.steps,
                r.report.terminated,
                normal,
                r.report.outcome
            );
            correct = false;
        }
    }
    let attempted = n * runs.len() as u64;

    let mut m = Metrics::default();
    if !traced {
        // A batch job is answered when its driver reaches a solution: the
        // paper's time to solution on the simulated 64-rank machine.
        let solution_ms: Vec<f64> = runs.iter().map(|r| r.report.wall * 1e3).collect();
        m.set("setup_s", median(&setup_s), "s");
        m.set("streamlines_per_s", (attempted - failed) as f64 / timed_s, "1/s");
        m.set("latency_p50_ms", median(&solution_ms), "ms");
        m.set("latency_p95_ms", quantile(&solution_ms, 0.95), "ms");
        m.set("completed_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
        return RunResult { correct, attempted, failed, metrics: m };
    }

    // --- Traced: per-layer attribution.
    let t = Instant::now();
    for id in ds.decomp.all_blocks() {
        std::hint::black_box(ds.build_block(id));
    }
    m.set("field.block_build_s", t.elapsed().as_secs_f64(), "s");
    m.set("iosim.store_build_s", median(&setup_s), "s");
    let (loads, load_wait_s) = timed_store.loads();
    m.set("iosim.loads", loads as f64, "count");
    m.set("iosim.load_wait_s", load_wait_s, "s");
    m.set("integrate.replay_s", replay_s, "s");
    m.set("integrate.steps", rep.steps as f64, "count");
    m.set("integrate.ns_per_step", ratio(replay_s * 1e9, rep.steps as f64), "ns");
    let slots = (rep.calls * lanes as u64) as f64;
    m.set("integrate.batch_occupancy", ratio(rep.lanes as f64, slots), "ratio");
    let samples = (rep.sampler_hits + rep.sampler_misses) as f64;
    m.set("field.sampler_hit_rate", ratio(rep.sampler_hits as f64, samples), "ratio");
    for DriverRun { name, report: r, host_s, .. } in &runs {
        let core = |metric: &str| format!("core.{name}.{metric}");
        let desim = |metric: &str| format!("desim.{name}.{metric}");
        let rank_s = r.n_procs as f64 * r.wall;
        m.set(core("host_s"), *host_s, "s");
        // The replay did the same steps (checked above), so what the driver
        // spent beyond it is scheduler, simulator and block-hop work.
        m.set(core("overhead_s"), host_s - replay_s, "s");
        m.set(core("msgs"), r.msgs as f64, "count");
        m.set(core("bytes_sent"), r.bytes_sent as f64, "B");
        m.set(core("blocks_loaded"), r.blocks_loaded as f64, "count");
        m.set(core("block_efficiency"), r.block_efficiency(), "ratio");
        m.set(core("batch_occupancy"), r.batch_occupancy, "ratio");
        m.set(core("pingpong_streamlines"), r.pingpong_streamlines as f64, "count");
        m.set(core("share.io"), ratio(r.io_time, rank_s), "ratio");
        m.set(core("share.comm"), ratio(r.comm_time, rank_s), "ratio");
        m.set(core("share.compute"), ratio(r.compute_time, rank_s), "ratio");
        m.set(core("share.idle"), ratio(r.idle_time, rank_s), "ratio");
        m.set(desim("events"), r.events as f64, "count");
        m.set(desim("events_per_s"), ratio(r.events as f64, *host_s), "1/s");
        m.set(desim("sim_wall_s"), r.wall, "sim_s");
    }
    let spans = loads + runs.len() as u64;
    m.set("bench.trace_overhead_frac", spans as f64 * span_cost_s() / timed_s, "ratio");
    RunResult { correct, attempted, failed, metrics: m }
}
