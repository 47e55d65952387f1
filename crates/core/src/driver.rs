//! The run driver's parts: build the ranks for an algorithm, schedule an
//! open source's arrivals, and collect a [`RunReport`] and the finished
//! streamlines. [`crate::Run`] puts them together.

use crate::config::{Algorithm, RunConfig};
use crate::hybrid::{HybridLayout, MasterProc, SlaveProc};
use crate::ingest::{EpochMap, SeedSource};
use crate::liveness::Liveness;
use crate::load_on_demand::LodProc;
use crate::msg::Msg;
use crate::rank::RankCore;
use crate::report::{RunOutcome, RunReport};
use crate::static_alloc::StaticProc;
use crate::steal::StealProc;
use crate::termination::FrontierDetector;
use crate::workspace::Workspace;
use std::sync::Arc;
use streamline_desim::{Context, Event, Process, Simulation};
use streamline_field::dataset::Dataset;
use streamline_field::seeds::SeedSet;
use streamline_integrate::StreamlineId;
use streamline_iosim::{BlockStore, CacheStats};
use streamline_math::Vec3;

/// A rank of any of the four algorithms (the simulation is monomorphic in
/// its process type).
pub enum AnyProc {
    Static(StaticProc),
    Lod(LodProc),
    Master(MasterProc),
    Slave(SlaveProc),
    Steal(StealProc),
}

impl Process<Msg> for AnyProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        match self {
            AnyProc::Static(p) => p.on_event(ev, ctx),
            AnyProc::Lod(p) => p.on_event(ev, ctx),
            AnyProc::Master(p) => p.on_event(ev, ctx),
            AnyProc::Slave(p) => p.on_event(ev, ctx),
            AnyProc::Steal(p) => p.on_event(ev, ctx),
        }
    }
}

impl AnyProc {
    /// The shared state of an integrating rank; masters integrate nothing.
    pub fn core(&self) -> Option<&RankCore> {
        match self {
            AnyProc::Static(p) => Some(p.core()),
            AnyProc::Lod(p) => Some(p.core()),
            AnyProc::Slave(p) => Some(p.core()),
            AnyProc::Steal(p) => Some(p.core()),
            AnyProc::Master(_) => None,
        }
    }

    fn core_mut(&mut self) -> Option<&mut RankCore> {
        match self {
            AnyProc::Static(p) => Some(&mut p.core),
            AnyProc::Lod(p) => Some(&mut p.core),
            AnyProc::Slave(p) => Some(&mut p.core),
            AnyProc::Steal(p) => Some(&mut p.core),
            AnyProc::Master(_) => None,
        }
    }

    /// This rank's failure detector and membership view (rank-chaos runs
    /// only).
    fn liveness(&self) -> Option<&Liveness> {
        match self {
            AnyProc::Static(p) => p.liveness(),
            AnyProc::Lod(p) => p.liveness(),
            AnyProc::Master(p) => p.liveness(),
            AnyProc::Slave(p) => p.liveness(),
            AnyProc::Steal(p) => p.liveness(),
        }
    }

    /// Thread-runtime retirement: Load On Demand and Work Stealing ranks
    /// know when they are finished; the other algorithms end via `stop_all`.
    pub(crate) fn retired(&self) -> bool {
        match self {
            AnyProc::Lod(p) => p.done,
            AnyProc::Steal(p) => p.done,
            _ => false,
        }
    }

    /// The finished streamlines this rank holds (dead ranks keep theirs to
    /// the end of the run — fail-stop loses in-flight state, not durable
    /// completions).
    fn finished(&self) -> &[streamline_integrate::Streamline] {
        self.core().map_or(&[], |c| &c.finished)
    }

    /// This rank's per-epoch frontier ledger. Masters hold no ledger
    /// (slaves do the integration); on Static Allocation only the count
    /// rank's ledger is ever written, so summing over all ranks stays
    /// correct.
    fn frontier_ledgers(&self) -> Option<&FrontierDetector> {
        self.core().map(|c| &c.detector)
    }
}

fn make_workspace(
    dataset: &Dataset,
    store: &Arc<dyn BlockStore>,
    cfg: &RunConfig,
    cache_blocks: usize,
) -> Workspace {
    let mut ws = Workspace::new(
        dataset.decomp,
        Arc::clone(store),
        cache_blocks,
        cfg.cost.disk,
        cfg.limits,
        cfg.cost.sec_per_step,
    );
    ws.set_vertex_bytes(cfg.memory.vertex_bytes);
    ws.set_stream_bytes(cfg.memory.stream_bytes);
    ws.set_batch_lanes(cfg.batch.resolve());
    ws
}

/// Seeds sorted by (owning block, id) — the "grouped by block to enhance
/// data locality" order of §4.2 — then split into `n` near-equal chunks.
fn chunk_seeds_by_block(
    dataset: &Dataset,
    seeds: &SeedSet,
    n: usize,
) -> Vec<Vec<(StreamlineId, Vec3)>> {
    let tagged =
        seeds.points.iter().enumerate().map(|(i, &p)| (StreamlineId(i as u32), p)).collect();
    chunk_tagged_by_block(dataset, tagged, n)
}

/// [`chunk_seeds_by_block`] for seeds that already carry their global ids —
/// the shape of a later ingest epoch, whose ids start past every earlier
/// epoch's.
fn chunk_tagged_by_block(
    dataset: &Dataset,
    seeds: Vec<(StreamlineId, Vec3)>,
    n: usize,
) -> Vec<Vec<(StreamlineId, Vec3)>> {
    let mut tagged: Vec<(u32, StreamlineId, Vec3)> = seeds
        .into_iter()
        .map(|(id, p)| {
            let block = dataset.decomp.locate(p).map(|b| b.0).unwrap_or(u32::MAX);
            (block, id, p)
        })
        .collect();
    tagged.sort_by_key(|&(b, id, _)| (b, id));
    let total = tagged.len();
    let mut out: Vec<Vec<(StreamlineId, Vec3)>> = Vec::with_capacity(n);
    let mut iter = tagged.into_iter().map(|(_, id, p)| (id, p));
    for r in 0..n {
        let count = total / n + usize::from(r < total % n);
        out.push(iter.by_ref().take(count).collect());
    }
    out
}

/// The ingest plan a run's detectors are built over: per-epoch seed counts
/// and the id → epoch map. Closed runs are the one-epoch special case.
pub(crate) struct IngestPlan {
    totals: Vec<u64>,
    emap: EpochMap,
}

impl IngestPlan {
    pub(crate) fn closed(n_seeds: usize) -> Self {
        IngestPlan { totals: vec![n_seeds as u64], emap: EpochMap::closed(n_seeds as u32) }
    }

    pub(crate) fn of(source: &SeedSource) -> Self {
        IngestPlan { totals: source.epoch_totals(), emap: EpochMap::of(source) }
    }

    fn n_epochs(&self) -> u32 {
        self.totals.len().max(1) as u32
    }
}

/// Build the rank processes for one run (closed workload: every seed in
/// `seeds` is handed out at start).
pub fn build_procs(
    dataset: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    store: Arc<dyn BlockStore>,
) -> Vec<AnyProc> {
    build_procs_planned(dataset, seeds, cfg, store, &IngestPlan::closed(seeds.len()))
}

/// [`build_procs`] over an explicit ingest plan: `seeds` is the epoch-0
/// base set distributed at start; detectors are sealed over the whole
/// plan. With a closed plan this is exactly the closed build.
pub(crate) fn build_procs_planned(
    dataset: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    store: Arc<dyn BlockStore>,
    plan: &IngestPlan,
) -> Vec<AnyProc> {
    let n = cfg.n_procs;
    assert!(n >= 1, "need at least one rank");
    let n_blocks = dataset.decomp.num_blocks();
    let h0 = cfg.limits.h0;
    // Rank-fault protocol machinery only exists on resilient runs (and only
    // when there is a survivor to recover onto); fault-free runs stay
    // bit-identical to a build without it. A single-rank run under chaos is
    // still legal — the simulator drops its events and collection accounts
    // every unfinished seed as `RankLost`.
    let live = if n > 1 { cfg.rank_chaos.map(|rc| Liveness::new(&rc, n)) } else { None };
    match cfg.algorithm {
        Algorithm::StaticAllocation => {
            // Seeds go to the rank owning their block; out-of-domain seeds
            // to rank 0 (they terminate immediately).
            let mut per_rank: Vec<Vec<(StreamlineId, Vec3)>> = vec![Vec::new(); n];
            for (i, &p) in seeds.points.iter().enumerate() {
                let rank = dataset
                    .decomp
                    .locate(p)
                    .map(|b| cfg.static_partition.owner_of(b, n_blocks, n))
                    .unwrap_or(0);
                per_rank[rank].push((StreamlineId(i as u32), p));
            }
            // Every rank shares the full initial assignment so an adopter
            // can re-seed a dead rank's slice from its own copy.
            let all_seeds = Arc::new(per_rank);
            (0..n)
                .map(|rank| {
                    // A static rank caches every block it owns — capacity is
                    // its ownership-range size (loads lazily, never purges).
                    let owned = (0..n_blocks)
                        .filter(|&b| {
                            cfg.static_partition.owner_of(
                                streamline_field::BlockId(b as u32),
                                n_blocks,
                                n,
                            ) == rank
                        })
                        .count();
                    let ws = make_workspace(dataset, &store, cfg, owned.max(1));
                    let proc = StaticProc::new(
                        rank,
                        ws,
                        Arc::clone(&all_seeds),
                        cfg.memory,
                        cfg.comm_geometry,
                        h0,
                        seeds.len() as u64,
                        cfg.static_partition,
                        live.clone(),
                    )
                    .with_ingest(&plan.totals, plan.emap.clone());
                    AnyProc::Static(proc)
                })
                .collect()
        }
        Algorithm::LoadOnDemand => {
            let all_seeds = Arc::new(chunk_seeds_by_block(dataset, seeds, n));
            (0..n)
                .map(|rank| {
                    let ws = make_workspace(dataset, &store, cfg, cfg.cache_blocks);
                    let proc = LodProc::new(
                        rank,
                        ws,
                        Arc::clone(&all_seeds),
                        cfg.memory,
                        h0,
                        live.clone(),
                    )
                    .with_ingest(plan.n_epochs(), plan.emap.clone());
                    AnyProc::Lod(proc)
                })
                .collect()
        }
        Algorithm::HybridMasterSlave => {
            let layout = HybridLayout::new(n, cfg.hybrid.n_masters(n));
            let mut chunks = chunk_seeds_by_block(dataset, seeds, layout.n_masters);
            (0..n)
                .map(|rank| {
                    if layout.is_master(rank) {
                        let proc = MasterProc::new(
                            rank,
                            dataset.decomp,
                            cfg.hybrid,
                            cfg.comm_geometry,
                            layout.slaves_of(rank),
                            layout.master_ranks(),
                            std::mem::take(&mut chunks[rank]),
                            0xC0FFEE ^ rank as u64,
                            live.clone(),
                        )
                        .with_ingest(plan.n_epochs());
                        AnyProc::Master(proc)
                    } else {
                        let ws = make_workspace(dataset, &store, cfg, cfg.cache_blocks);
                        let proc = SlaveProc::new(
                            rank,
                            layout.master_of(rank),
                            ws,
                            cfg.memory,
                            cfg.comm_geometry,
                            h0,
                            live.clone(),
                        )
                        .with_ingest(plan.emap.clone());
                        AnyProc::Slave(proc)
                    }
                })
                .collect()
        }
        Algorithm::WorkStealing => {
            // Same locality-grouped initial split as Load On Demand; the
            // steal/diffusion protocol redistributes from there.
            let mut chunks = chunk_seeds_by_block(dataset, seeds, n);
            (0..n)
                .map(|rank| {
                    let ws = make_workspace(dataset, &store, cfg, cfg.cache_blocks);
                    let proc = StealProc::new(
                        rank,
                        n,
                        ws,
                        std::mem::take(&mut chunks[rank]),
                        cfg.memory,
                        cfg.comm_geometry,
                        h0,
                        cfg.steal,
                        live.clone(),
                    )
                    .with_ingest(plan.n_epochs(), plan.emap.clone());
                    AnyProc::Steal(proc)
                })
                .collect()
        }
    }
}

/// Build the simulation for one run, attaching the seeded rank-death
/// schedule when rank chaos is configured. Simulated drivers only: the
/// thread runtime does not inject rank faults.
pub(crate) fn make_sim(cfg: &RunConfig, procs: Vec<AnyProc>) -> Simulation<Msg, AnyProc> {
    let mut sim = Simulation::new(cfg.cost.net, procs);
    if let Some(rc) = cfg.rank_chaos {
        sim = sim.with_rank_deaths(rc.plan(cfg.n_procs));
    }
    sim
}

/// The scheduled-arrival event list for an open run: one [`Msg::Ingest`]
/// per (epoch ≥ 1, receiving rank), at the epoch's virtual arrival time.
///
/// Every integrating rank (and, for hybrid, every master) receives an
/// ingest for every epoch — empty batches included — because termination
/// protocols gate on having *observed* each epoch, not just on drained
/// work. Static Allocation is the exception: its count rank knows the full
/// plan up front, so only ranks that actually receive seeds get an event
/// (out-of-domain seeds fall to rank 0, which retires them on arrival).
pub(crate) fn build_arrivals(
    dataset: &Dataset,
    source: &SeedSource,
    cfg: &RunConfig,
) -> Vec<(f64, usize, Msg)> {
    let n = cfg.n_procs;
    let n_blocks = dataset.decomp.num_blocks();
    let starts = source.epoch_starts();
    let mut out: Vec<(f64, usize, Msg)> = Vec::new();
    for (e, epoch) in source.epochs().iter().enumerate().skip(1) {
        let tagged: Vec<(StreamlineId, Vec3)> = epoch
            .points
            .iter()
            .enumerate()
            .map(|(i, &p)| (StreamlineId(starts[e] + i as u32), p))
            .collect();
        let per_rank: Vec<Vec<(StreamlineId, Vec3)>> = match cfg.algorithm {
            Algorithm::StaticAllocation => {
                let mut per_rank: Vec<Vec<(StreamlineId, Vec3)>> = vec![Vec::new(); n];
                for (id, p) in tagged {
                    let rank = dataset
                        .decomp
                        .locate(p)
                        .map(|b| cfg.static_partition.owner_of(b, n_blocks, n))
                        .unwrap_or(0);
                    per_rank[rank].push((id, p));
                }
                per_rank
            }
            Algorithm::LoadOnDemand | Algorithm::WorkStealing => {
                chunk_tagged_by_block(dataset, tagged, n)
            }
            Algorithm::HybridMasterSlave => {
                let layout = HybridLayout::new(n, cfg.hybrid.n_masters(n));
                let mut chunks = chunk_tagged_by_block(dataset, tagged, layout.n_masters);
                let mut per_rank: Vec<Vec<(StreamlineId, Vec3)>> = vec![Vec::new(); n];
                for (m, rank) in layout.master_ranks().into_iter().enumerate() {
                    per_rank[rank] = std::mem::take(&mut chunks[m]);
                }
                per_rank
            }
        };
        for (rank, seeds) in per_rank.into_iter().enumerate() {
            let deliver = match cfg.algorithm {
                Algorithm::StaticAllocation => !seeds.is_empty(),
                Algorithm::LoadOnDemand | Algorithm::WorkStealing => true,
                Algorithm::HybridMasterSlave => {
                    let layout = HybridLayout::new(n, cfg.hybrid.n_masters(n));
                    layout.is_master(rank)
                }
            };
            if deliver {
                out.push((epoch.at, rank, Msg::Ingest { epoch: e as u32, seeds }));
            }
        }
    }
    out
}

/// What the per-rank frontier ledgers say about ingest progress, folded
/// over the whole run.
pub(crate) struct IngestStats {
    /// Epochs the folded frontier has confirmed fully retired, in order.
    pub frontier_epochs: u32,
    /// Virtual completion time of each confirmed epoch (monotone — an
    /// epoch is not complete until every earlier one is).
    pub completed_at: Vec<f64>,
}

/// Fold every rank's per-epoch retirement ledger against the plan totals.
pub(crate) fn fold_frontier(procs: &[AnyProc], totals: &[u64]) -> IngestStats {
    let mut retired = vec![0u64; totals.len()];
    let mut last_retire = vec![0.0f64; totals.len()];
    for p in procs {
        let Some(f) = p.frontier_ledgers() else { continue };
        for (e, l) in f.ledgers().iter().enumerate() {
            if e < totals.len() {
                retired[e] += l.retired;
                last_retire[e] = last_retire[e].max(l.last_retire);
            }
        }
    }
    let mut completed_at = Vec::new();
    let mut t = 0.0f64;
    for e in 0..totals.len() {
        if retired[e] < totals[e] {
            break;
        }
        t = t.max(last_retire[e]);
        completed_at.push(t);
    }
    IngestStats { frontier_epochs: completed_at.len() as u32, completed_at }
}

/// Stamp the open-loop ingest fields onto a collected report: the epoch
/// schedule, the folded frontier, and the arrival→completion lag series.
/// Open runs only: a closed run's report keeps the zero defaults.
pub(crate) fn apply_ingest_stats(r: &mut RunReport, source: &SeedSource, procs: &[AnyProc]) {
    r.ingest_epochs = source.n_epochs();
    r.ingest_epoch_arrivals = source.epoch_arrivals();
    let stats = fold_frontier(procs, &source.epoch_totals());
    r.ingest_frontier_epochs = stats.frontier_epochs;
    let lags: Vec<f64> = stats
        .completed_at
        .iter()
        .zip(&r.ingest_epoch_arrivals)
        .map(|(&done, &at)| (done - at).max(0.0))
        .collect();
    r.ingest_epoch_completions = stats.completed_at;
    if !lags.is_empty() {
        r.ingest_lag_mean = lags.iter().sum::<f64>() / lags.len() as f64;
        r.ingest_lag_max = lags.iter().cloned().fold(0.0, f64::max);
    }
}

/// Recovery strength of a termination: a normal completion beats a
/// block-fault abort beats a rank-lost placeholder. When recovery re-runs a
/// streamline a dead rank had already finished, collection keeps the
/// strongest record per id.
fn termination_rank(s: &streamline_integrate::Streamline) -> u8 {
    use streamline_integrate::{StreamlineStatus, Termination};
    match s.status {
        StreamlineStatus::Terminated(Termination::RankLost) => 1,
        StreamlineStatus::Terminated(Termination::BlockUnavailable) => 2,
        StreamlineStatus::Terminated(_) => 3,
        // In-flight state that never terminated — only possible mid-fault.
        StreamlineStatus::Active => 0,
    }
}

/// Whether rank-fault recovery may have duplicated or dropped work: a rank
/// died, or some rank suspected a peer — rightly or not — and recovered
/// its work (a falsely suspected rank's work runs twice, and what it
/// reports after being written off can be ignored).
fn recovery_ran(rank_deaths: &[(usize, f64)], procs: &[AnyProc]) -> bool {
    !rank_deaths.is_empty()
        || procs.iter().filter_map(AnyProc::liveness).any(|l| !l.dead.is_empty())
}

pub(crate) fn collect_report(
    dataset: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    report: streamline_desim::SimReport,
    procs: &[AnyProc],
) -> RunReport {
    let mut cache = CacheStats::default();
    let mut terminated = 0;
    let mut steps = 0;
    let mut sampler_hits = 0;
    let mut sampler_misses = 0;
    let mut batched_lanes = 0;
    let mut batch_calls = 0;
    let mut load_retries = 0;
    let mut load_failures = 0;
    let mut unavailable_terminations = 0;
    let mut balance_msgs = 0;
    let mut balance_bytes = 0;
    // Ping-pong is a property of a streamline, not of a rank: union the
    // per-rank sets so a streamline bouncing across several ranks counts
    // once.
    let mut pingponged: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut outcome = RunOutcome::Completed;
    for (rank, p) in procs.iter().enumerate() {
        if let Some(core) = p.core() {
            let ws = &core.ws;
            cache.merge(&ws.cache_stats());
            terminated += ws.terminated;
            steps += ws.total_steps;
            sampler_hits += ws.sampler_hits;
            sampler_misses += ws.sampler_misses;
            batched_lanes += ws.batched_lanes;
            batch_calls += ws.batch_calls;
            load_retries += ws.load_retries;
            load_failures += ws.load_failures;
            unavailable_terminations += ws.unavailable;
            pingponged.extend(core.pingponged().iter().copied());
            if core.failed_oom && outcome == RunOutcome::Completed {
                outcome = RunOutcome::OutOfMemory { rank };
            }
        }
        match p {
            // Quarantined pool seeds count as unavailable terminations.
            AnyProc::Master(p) => unavailable_terminations += p.unavailable_seeds(),
            AnyProc::Steal(p) => {
                balance_msgs += p.balance_msgs;
                balance_bytes += p.balance_bytes;
            }
            _ => {}
        }
    }
    // --- Rank fail-stop accounting -------------------------------------
    let rank_deaths = report.rank_deaths.clone();
    let dropped_events = report.dropped_events;
    let mut rank_lost_streamlines = 0;
    let mut reassigned_streamlines = 0;
    let mut detection_latency_mean = 0.0;
    let mut detection_latency_max = 0.0;
    if recovery_ran(&rank_deaths, procs) {
        reassigned_streamlines =
            procs.iter().filter_map(|p| p.liveness()).map(|l| l.reassigned).sum();
        // Detection latency: per death, virtual time from the kill to the
        // first survivor suspecting that rank (deaths the run ended before
        // detecting are skipped).
        let mut latencies: Vec<f64> = Vec::new();
        for &(dead_rank, kill_t) in &rank_deaths {
            let first = procs
                .iter()
                .filter_map(|p| p.liveness())
                .flat_map(|l| l.suspected_at.iter())
                .filter(|&&(r, _)| r == dead_rank)
                .map(|&(_, t)| t)
                .fold(f64::INFINITY, f64::min);
            if first.is_finite() {
                latencies.push((first - kill_t).max(0.0));
            }
        }
        if !latencies.is_empty() {
            detection_latency_mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
            detection_latency_max = latencies.iter().cloned().fold(0.0, f64::max);
        }
        // Exact conservation under faults: recovery can re-run work a dead
        // (or falsely suspected) rank had already finished (per-rank
        // `terminated` counters then overcount) and quarantined pool seeds never materialize at all.
        // Re-derive the buckets from the deduplicated union of finished
        // streamlines — strongest record wins per id, and an id with no
        // record anywhere is a rank-lost seed. By construction
        // `completed + unavailable + rank_lost == n_seeds`.
        let mut best: Vec<u8> = vec![0; seeds.len()];
        for p in procs {
            for s in p.finished() {
                let i = s.id.0 as usize;
                if i < best.len() {
                    best[i] = best[i].max(termination_rank(s));
                }
            }
        }
        unavailable_terminations = best.iter().filter(|&&b| b == 2).count() as u64;
        rank_lost_streamlines = best.iter().filter(|&&b| b <= 1).count() as u64;
        terminated = seeds.len() as u64;
        // A dead hybrid master takes its whole group down: surface that as
        // a typed outcome instead of silently reporting partial results
        // (out-of-memory keeps precedence).
        if matches!(cfg.algorithm, Algorithm::HybridMasterSlave) && outcome == RunOutcome::Completed
        {
            let n_masters = cfg.hybrid.n_masters(cfg.n_procs);
            if let Some(&(rank, _)) = rank_deaths.iter().find(|&&(r, _)| r < n_masters) {
                outcome = RunOutcome::MasterLost { rank };
            }
        }
    }
    let (io, comm, compute) = report.totals();
    // Occupancy: mean filled fraction of the configured batch width over
    // every batched block-advance (1.0 = every call ran a full batch).
    let batch_occupancy = if batch_calls > 0 {
        batched_lanes as f64 / (batch_calls * cfg.batch.resolve() as u64) as f64
    } else {
        0.0
    };
    RunReport {
        algorithm: cfg.algorithm,
        n_procs: cfg.n_procs,
        dataset: dataset.name.to_string(),
        seeding: seeds.label.clone(),
        n_seeds: seeds.len(),
        outcome,
        wall: report.wall,
        io_time: io,
        comm_time: comm,
        compute_time: compute,
        idle_time: report.total(|m| m.idle),
        blocks_loaded: cache.loaded,
        blocks_purged: cache.purged,
        msgs: report.ranks.iter().map(|m| m.msgs_sent).sum(),
        bytes_sent: report.ranks.iter().map(|m| m.bytes_sent).sum(),
        terminated,
        total_steps: steps,
        sampler_hits,
        sampler_misses,
        batched_lanes,
        batch_occupancy,
        load_retries,
        load_failures,
        unavailable_terminations,
        pingpong_streamlines: pingponged.len() as u64,
        balance_msgs,
        balance_bytes,
        rank_deaths,
        rank_lost_streamlines,
        reassigned_streamlines,
        detection_latency_mean,
        detection_latency_max,
        dropped_events,
        // Ingest fields are stamped on open runs only
        // ([`apply_ingest_stats`]); closed runs keep the defaults.
        ingest_epochs: 0,
        ingest_frontier_epochs: 0,
        ingest_epoch_arrivals: Vec::new(),
        ingest_epoch_completions: Vec::new(),
        ingest_lag_mean: 0.0,
        ingest_lag_max: 0.0,
        events: report.events,
        per_rank: report.ranks,
    }
}

/// Drain, deduplicate and complete the finished streamlines of a run.
/// Fault-free runs just concatenate and sort — bit-identical to the
/// pre-fault collector. After rank deaths or suspicions the union can hold
/// duplicates (recovery re-ran work a dead or falsely suspected rank had
/// already finished) and holes (seeds whose in-flight state died with a
/// rank or was written off with it): keep the strongest record per id and
/// synthesize a `RankLost` placeholder for every missing seed, so the
/// result always has exactly one entry per seed.
pub(crate) fn drain_finished(
    seeds: &SeedSet,
    cfg: &RunConfig,
    rank_deaths: &[(usize, f64)],
    procs: &mut [AnyProc],
) -> Vec<streamline_integrate::Streamline> {
    let recovered = recovery_ran(rank_deaths, procs);
    let mut finished: Vec<streamline_integrate::Streamline> = procs
        .iter_mut()
        .filter_map(AnyProc::core_mut)
        .flat_map(|c| std::mem::take(&mut c.finished))
        .collect();
    if recovered {
        use streamline_integrate::{Streamline, Termination};
        let mut best: Vec<Option<Streamline>> = (0..seeds.len()).map(|_| None).collect();
        for s in finished.drain(..) {
            let i = s.id.0 as usize;
            if i >= best.len() {
                continue;
            }
            match &best[i] {
                Some(held) if termination_rank(held) >= termination_rank(&s) => {}
                _ => best[i] = Some(s),
            }
        }
        finished = best
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.filter(|s| termination_rank(s) > 0).unwrap_or_else(|| {
                    let mut s = Streamline::new_lean(
                        StreamlineId(i as u32),
                        seeds.points[i],
                        cfg.limits.h0,
                    );
                    s.terminate(Termination::RankLost);
                    s
                })
            })
            .collect();
    }
    finished.sort_by_key(|s| s.id);
    finished
}

/// Virtual times at which ping-pongs were first detected, over all ranks,
/// sorted — the series behind the trace file's cumulative ping-pong curve.
pub(crate) fn collect_pingpong_times(procs: &[AnyProc]) -> Vec<f64> {
    let mut times: Vec<f64> = procs
        .iter()
        .filter_map(AnyProc::core)
        .flat_map(|c| c.pingpong_times().iter().copied())
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// [`Run`](crate::Run) with an explicit store, as the report and the
/// finished streamlines. Kept only for the benchmark harness in
/// `perfbench/`, which calls it; it goes with the next change to that
/// harness.
pub fn run_simulated_detailed_with_store(
    dataset: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    store: Arc<dyn BlockStore>,
) -> (RunReport, Vec<streamline_integrate::Streamline>) {
    let out = crate::Run::new(dataset, cfg, seeds).store(store).go().expect("a plain run");
    (out.report, out.finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryBudget;
    use crate::hybrid::ROOT_MASTER;
    use crate::{Run, RunOutput};
    use streamline_field::dataset::{DatasetConfig, Seeding};
    use streamline_iosim::FieldStore;

    fn tiny_run(algorithm: Algorithm, n_procs: usize, n_seeds: usize) -> RunReport {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, n_seeds);
        let mut cfg = RunConfig::new(algorithm, n_procs);
        cfg.limits.max_steps = 300;
        cfg.memory = MemoryBudget::unlimited();
        Run::new(&ds, &cfg, &seeds).go().unwrap().report
    }

    /// Runs an inner rank and logs every send it makes as
    /// `(from, to, is_group_remaining)`.
    struct Spy {
        inner: AnyProc,
        sent: Vec<(usize, usize, bool)>,
    }

    struct SpyCtx<'a> {
        inner: &'a mut dyn Context<Msg>,
        sent: &'a mut Vec<(usize, usize, bool)>,
    }

    impl Context<Msg> for SpyCtx<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn n_ranks(&self) -> usize {
            self.inner.n_ranks()
        }
        fn now(&self) -> f64 {
            self.inner.now()
        }
        fn charge_compute(&mut self, secs: f64) {
            self.inner.charge_compute(secs)
        }
        fn charge_io(&mut self, secs: f64) {
            self.inner.charge_io(secs)
        }
        fn send(&mut self, to: usize, msg: Msg, bytes: usize) {
            let remaining = matches!(msg, Msg::GroupRemaining { .. });
            self.sent.push((self.inner.rank(), to, remaining));
            self.inner.send(to, msg, bytes)
        }
        fn wake_after(&mut self, delay: f64, token: u64) {
            self.inner.wake_after(delay, token)
        }
        fn stop_all(&mut self) {
            self.inner.stop_all()
        }
    }

    impl Process<Msg> for Spy {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
            self.inner.on_event(ev, &mut SpyCtx { inner: ctx, sent: &mut self.sent });
        }
    }

    /// Fault-free closed hybrid runs with several masters: the masters tell
    /// each other their remaining counts and nothing else.
    #[test]
    fn masters_exchange_only_remaining_counts() {
        let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
        for (seeding, n_seeds) in
            [(Seeding::Sparse, 48), (Seeding::Dense, 48), (Seeding::Sparse, 3)]
        {
            let seeds = ds.seeds_with_count(seeding, n_seeds);
            let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 12);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            cfg.hybrid.slaves_per_master = 3;
            let layout = HybridLayout::new(cfg.n_procs, cfg.hybrid.n_masters(cfg.n_procs));
            assert_eq!(layout.n_masters, 3);
            let store: Arc<dyn BlockStore> = Arc::new(FieldStore::new(ds.clone()));
            let procs = build_procs(&ds, &seeds, &cfg, store)
                .into_iter()
                .map(|inner| Spy { inner, sent: Vec::new() })
                .collect();
            let (report, procs) = Simulation::new(cfg.cost.net, procs).run();
            assert!(report.wall > 0.0);
            let between_masters: Vec<(usize, usize, bool)> = procs
                .iter()
                .flat_map(|p| p.sent.iter().copied())
                .filter(|&(from, to, _)| layout.is_master(from) && layout.is_master(to))
                .collect();
            assert!(
                between_masters.iter().all(|&(_, to, remaining)| remaining && to == ROOT_MASTER),
                "{seeding:?}/{n_seeds}: {between_masters:?}"
            );
            assert!(!between_masters.is_empty(), "{seeding:?}/{n_seeds}: peers report to the root");
        }
    }

    #[test]
    fn all_algorithms_terminate_every_streamline() {
        for algo in Algorithm::ALL {
            let r = tiny_run(algo, 4, 27);
            assert!(r.outcome.completed(), "{algo:?}");
            assert_eq!(r.terminated, 27, "{algo:?} lost streamlines: {r:?}");
            assert!(r.wall > 0.0);
            assert!(r.total_steps > 0);
        }
    }

    #[test]
    fn load_on_demand_never_communicates() {
        let r = tiny_run(Algorithm::LoadOnDemand, 4, 27);
        assert_eq!(r.msgs, 0);
        assert_eq!(r.comm_time, 0.0);
    }

    #[test]
    fn static_never_purges_blocks() {
        let r = tiny_run(Algorithm::StaticAllocation, 4, 27);
        assert_eq!(r.blocks_purged, 0);
        assert_eq!(r.block_efficiency(), 1.0);
    }

    #[test]
    fn static_communicates_streamlines() {
        let r = tiny_run(Algorithm::StaticAllocation, 4, 27);
        assert!(r.msgs > 0, "block crossings must produce hand-offs");
        assert!(r.comm_time > 0.0);
    }

    #[test]
    fn chunking_is_even_and_complete() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 10);
        let chunks = chunk_seeds_by_block(&ds, &seeds, 3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
        // Every id present exactly once.
        let mut ids: Vec<u32> = chunks.iter().flatten().map(|(id, _)| id.0).collect();
        ids.sort();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_simulated_runs() {
        for algo in Algorithm::ALL {
            let a = tiny_run(algo, 4, 27);
            let b = tiny_run(algo, 4, 27);
            assert_eq!(a.wall, b.wall, "{algo:?}");
            assert_eq!(a.msgs, b.msgs, "{algo:?}");
            assert_eq!(a.total_steps, b.total_steps, "{algo:?}");
            assert_eq!(a.blocks_loaded, b.blocks_loaded, "{algo:?}");
        }
    }

    #[test]
    fn single_rank_runs_work() {
        // Degenerate but legal for every masterless algorithm.
        for algo in [Algorithm::StaticAllocation, Algorithm::LoadOnDemand, Algorithm::WorkStealing]
        {
            let r = tiny_run(algo, 1, 8);
            assert_eq!(r.terminated, 8, "{algo:?}");
        }
    }

    #[test]
    fn steal_run_reports_balancing_diagnostics() {
        // Sparse seeds grouped by block leave some ranks under-loaded, so
        // the protocol must actually move work: probes, transfers, and a
        // termination-token circulation all cost messages.
        let r = tiny_run(Algorithm::WorkStealing, 4, 27);
        assert!(r.outcome.completed());
        assert_eq!(r.terminated, 27);
        assert!(r.balance_msgs > 0, "lifeline sweep + token must send messages");
        assert!(r.balance_bytes > 0);
        assert!(r.msgs >= r.balance_msgs, "balance traffic is part of total traffic");
        let part = r.participation();
        assert!((0.0..=1.0).contains(&part), "participation {part}");
        let share = r.comm_overhead_share();
        assert!((0.0..=1.0).contains(&share), "overhead share {share}");
    }

    #[test]
    fn lod_reports_no_balancing_traffic() {
        let r = tiny_run(Algorithm::LoadOnDemand, 4, 27);
        assert_eq!(r.balance_msgs, 0);
        assert_eq!(r.balance_bytes, 0);
        assert_eq!(r.pingpong_streamlines, 0, "LOD never migrates streamlines");
    }

    #[test]
    fn hybrid_two_ranks_is_master_plus_slave() {
        let r = tiny_run(Algorithm::HybridMasterSlave, 2, 8);
        assert!(r.outcome.completed());
        assert_eq!(r.terminated, 8);
    }

    #[test]
    fn hybrid_multi_master_with_work_stealing() {
        // 70 ranks at W = 32 gives 3 masters; seeds are split across master
        // pools and drained through stealing as groups finish unevenly.
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Dense, 300);
        let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 70);
        cfg.limits.max_steps = 200;
        cfg.limits.max_arc_length = 1.0;
        cfg.memory = MemoryBudget::unlimited();
        assert_eq!(cfg.hybrid.n_masters(70), 3);
        let r = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
        assert!(r.outcome.completed(), "{}", r.summary());
        assert_eq!(r.terminated, 300);
    }

    #[test]
    fn batch_width_never_changes_results() {
        // Per-streamline bit-identity of the batch kernel means the batch
        // knob must be invisible in the results of every driver.
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Dense, 60);
        for algo in Algorithm::ALL {
            let mut runs = Vec::new();
            for lanes in [1usize, 4, 64] {
                let mut cfg = RunConfig::new(algo, 4);
                cfg.limits.max_steps = 300;
                cfg.memory = MemoryBudget::unlimited();
                cfg.batch.lanes = Some(lanes);
                let out = Run::new(&ds, &cfg, &seeds).go().unwrap();
                runs.push((out.report, out.finished));
            }
            let (r1, f1) = &runs[0];
            assert!(r1.outcome.completed(), "{algo:?}");
            for (rn, fn_) in &runs[1..] {
                assert_eq!(f1, fn_, "{algo:?}: batch width changed streamlines");
                assert_eq!(r1.total_steps, rn.total_steps, "{algo:?}");
                assert_eq!(r1.terminated, rn.terminated, "{algo:?}");
                assert_eq!(
                    (r1.sampler_hits, r1.sampler_misses),
                    (rn.sampler_hits, rn.sampler_misses),
                    "{algo:?}"
                );
            }
            // Master ranks aside, every advance goes through the batch
            // kernel now, so lanes are counted on all algorithms.
            assert!(r1.batched_lanes > 0, "{algo:?} reported no batched lanes");
            assert!(r1.batch_occupancy > 0.0 && r1.batch_occupancy <= 1.0, "{algo:?}");
        }
    }

    fn fault_dataset() -> (Dataset, SeedSet) {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 27);
        (ds, seeds)
    }

    /// `(completed, unavailable, rank_lost)` as classified in the detailed
    /// streamline list itself.
    fn classify(finished: &[streamline_integrate::Streamline]) -> (u64, u64, u64) {
        use streamline_integrate::{StreamlineStatus, Termination};
        let mut buckets = (0, 0, 0);
        for s in finished {
            match s.status {
                StreamlineStatus::Terminated(Termination::RankLost) => buckets.2 += 1,
                StreamlineStatus::Terminated(Termination::BlockUnavailable) => buckets.1 += 1,
                StreamlineStatus::Terminated(_) => buckets.0 += 1,
                StreamlineStatus::Active => panic!("active streamline in finished list"),
            }
        }
        buckets
    }

    #[test]
    fn one_kill_conserves_every_seed_on_all_drivers() {
        let (ds, seeds) = fault_dataset();
        for algo in Algorithm::ALL {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            // Rank 3 is a worker under every algorithm (hybrid's master is
            // rank 0), killed while work is still in flight.
            cfg.rank_chaos = Some(crate::config::RankChaos::one_kill(3, 5e-3));
            let RunOutput { report: r, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
            assert_eq!(r.rank_deaths, vec![(3, 5e-3)], "{algo:?}");
            assert_eq!(r.terminated, 27, "{algo:?}: {}", r.summary());
            assert_eq!(finished.len(), 27, "{algo:?}: one record per seed");
            let (completed, unavailable, lost) = classify(&finished);
            assert_eq!(completed + unavailable + lost, 27, "{algo:?}");
            assert_eq!(lost, r.rank_lost_streamlines, "{algo:?}");
            assert_eq!(unavailable, r.unavailable_terminations, "{algo:?}");
            assert!(r.outcome.completed(), "{algo:?}: worker death must not fail the run");
            assert!(
                r.detection_latency_max >= r.detection_latency_mean,
                "{algo:?}: {} < {}",
                r.detection_latency_max,
                r.detection_latency_mean
            );
        }
    }

    #[test]
    fn recovery_reassigns_initially_assigned_work() {
        // Static and Load On Demand adopt the dead rank's whole initial
        // slice; the hybrid master requeues its assignment ledger.
        let (ds, seeds) = fault_dataset();
        for algo in
            [Algorithm::StaticAllocation, Algorithm::LoadOnDemand, Algorithm::HybridMasterSlave]
        {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            cfg.rank_chaos = Some(crate::config::RankChaos::one_kill(3, 5e-3));
            let r = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
            assert!(r.reassigned_streamlines > 0, "{algo:?}: nothing reassigned\n{r:?}");
        }
    }

    #[test]
    fn master_death_is_a_typed_failure_not_a_hang() {
        let (ds, seeds) = fault_dataset();
        let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 4);
        cfg.limits.max_steps = 300;
        cfg.memory = MemoryBudget::unlimited();
        cfg.rank_chaos = Some(crate::config::RankChaos::one_kill(0, 5e-3));
        let RunOutput { report: r, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        assert_eq!(r.outcome, RunOutcome::MasterLost { rank: 0 }, "{}", r.summary());
        assert_eq!(finished.len(), 27, "every seed still accounted");
        let (completed, unavailable, lost) = classify(&finished);
        assert_eq!(completed + unavailable + lost, 27);
        assert_eq!(lost, r.rank_lost_streamlines);
        assert!(r.summary().contains("MASTER LOST"));
    }

    #[test]
    fn random_death_schedules_terminate_on_all_drivers() {
        let (ds, seeds) = fault_dataset();
        for algo in Algorithm::ALL {
            for seed in 0..3u64 {
                let mut cfg = RunConfig::new(algo, 4);
                cfg.limits.max_steps = 300;
                cfg.memory = MemoryBudget::unlimited();
                cfg.rank_chaos = Some(crate::config::RankChaos::seeded(seed));
                let RunOutput { report: r, finished, .. } =
                    Run::new(&ds, &cfg, &seeds).go().unwrap();
                assert_eq!(finished.len(), 27, "{algo:?} seed {seed}");
                let (completed, unavailable, lost) = classify(&finished);
                assert_eq!(completed + unavailable + lost, 27, "{algo:?} seed {seed}");
                assert_eq!(r.terminated, 27, "{algo:?} seed {seed}");
            }
        }
    }

    #[test]
    fn resilient_mode_without_deaths_reports_clean_counters() {
        // kill_prob 0 arms the heartbeat machinery but kills nobody: the
        // run must complete everything with empty fault accounting.
        let (ds, seeds) = fault_dataset();
        for algo in Algorithm::ALL {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            let mut rc = crate::config::RankChaos::seeded(1);
            rc.kill_prob = 0.0;
            cfg.rank_chaos = Some(rc);
            let r = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
            assert!(r.outcome.completed(), "{algo:?}");
            assert!(r.rank_deaths.is_empty(), "{algo:?}");
            assert_eq!(r.rank_lost_streamlines, 0, "{algo:?}");
            assert_eq!(r.reassigned_streamlines, 0, "{algo:?}");
            assert_eq!(r.dropped_events, 0, "{algo:?}");
            assert_eq!(r.terminated, 27, "{algo:?}");
        }
    }

    #[test]
    fn chaos_off_keeps_fault_fields_empty() {
        let r = tiny_run(Algorithm::WorkStealing, 4, 27);
        assert!(r.rank_deaths.is_empty());
        assert_eq!(r.rank_lost_streamlines, 0);
        assert_eq!(r.reassigned_streamlines, 0);
        assert_eq!(r.detection_latency_mean, 0.0);
        assert_eq!(r.dropped_events, 0);
    }

    fn open_source(ds: &Dataset, base: usize, extra: usize) -> crate::ingest::SeedSource {
        // Two arrival epochs carved from a disjoint seed set, landing while
        // the base work is still integrating (virtual times well inside a
        // tiny run's wall clock).
        let more = ds.seeds_with_count(Seeding::Dense, extra);
        let split = extra / 2;
        crate::ingest::SeedSource::new(
            &ds.seeds_with_count(Seeding::Sparse, base),
            vec![(1e-4, more.points[..split].to_vec()), (5e-4, more.points[split..].to_vec())],
        )
        .unwrap()
    }

    #[test]
    fn open_loop_conserves_every_ingested_seed_on_all_drivers() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let source = open_source(&ds, 12, 10);
        assert_eq!(source.n_epochs(), 3);
        let total = source.total_seeds() as u64;
        for algo in Algorithm::ALL {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            let RunOutput { report: r, finished, .. } =
                Run::new(&ds, &cfg, source.clone()).go().unwrap();
            assert!(r.outcome.completed(), "{algo:?}");
            assert_eq!(r.terminated, total, "{algo:?}: {}", r.summary());
            assert_eq!(finished.len(), total as usize, "{algo:?}");
            assert_eq!(r.ingest_epochs, 3, "{algo:?}");
            assert_eq!(r.ingest_epoch_arrivals, vec![0.0, 1e-4, 5e-4]);
            assert_eq!(r.ingest_frontier_epochs, 3, "{algo:?}: frontier incomplete");
            assert_eq!(r.ingest_epoch_completions.len(), 3);
            let mono = r.ingest_epoch_completions.windows(2).all(|w| w[0] <= w[1]);
            assert!(mono, "{algo:?}: {:?}", r.ingest_epoch_completions);
            assert!(r.ingest_lag_max >= r.ingest_lag_mean, "{algo:?}");
            assert!(r.ingest_lag_mean > 0.0, "{algo:?}");
        }
    }

    /// A closed seed set runs through the one open-capable path: the same
    /// streamlines, schedule and traffic as the bare closed construction
    /// (ranks built from the set, no arrivals), and no ingest fields.
    #[test]
    fn closed_source_through_open_entry_is_bit_identical() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 27);
        let source = crate::ingest::SeedSource::closed(&seeds);
        for algo in Algorithm::ALL {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            let store: Arc<dyn BlockStore> =
                Arc::new(streamline_iosim::FieldStore::new(ds.clone()));
            let (sim_report, mut procs) =
                make_sim(&cfg, build_procs(&ds, &seeds, &cfg, store)).run();
            let rc = collect_report(&ds, &seeds, &cfg, sim_report, &procs);
            let fc = drain_finished(&seeds, &cfg, &rc.rank_deaths, &mut procs);
            let RunOutput { report: ro, finished: fo, .. } =
                Run::new(&ds, &cfg, source.clone()).go().unwrap();
            assert_eq!(fc, fo, "{algo:?}: open entry changed streamlines");
            assert_eq!(rc.wall, ro.wall, "{algo:?}");
            assert_eq!(rc.msgs, ro.msgs, "{algo:?}");
            assert_eq!(rc.total_steps, ro.total_steps, "{algo:?}");
            assert_eq!(ro.ingest_epochs, 0, "{algo:?}");
        }
    }

    #[test]
    fn open_loop_under_rank_chaos_still_conserves() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let source = open_source(&ds, 12, 10);
        let total = source.total_seeds();
        for algo in Algorithm::ALL {
            let mut cfg = RunConfig::new(algo, 4);
            cfg.limits.max_steps = 300;
            cfg.memory = MemoryBudget::unlimited();
            cfg.rank_chaos = Some(crate::config::RankChaos::one_kill(3, 2e-4));
            let RunOutput { report: r, finished, .. } =
                Run::new(&ds, &cfg, source.clone()).go().unwrap();
            assert_eq!(finished.len(), total, "{algo:?}: one record per ingested seed");
            let (completed, unavailable, lost) = classify(&finished);
            assert_eq!(
                completed + unavailable + lost,
                total as u64,
                "{algo:?}: conservation broke"
            );
            assert_eq!(r.terminated, total as u64, "{algo:?}");
        }
    }

    #[test]
    fn zero_seed_runs_terminate_immediately_on_all_drivers() {
        // Degenerate but legal: no seeds at all. Every driver must still
        // produce a valid report instead of hanging or dividing by zero.
        for algo in Algorithm::ALL {
            let r = tiny_run(algo, 4, 0);
            assert!(r.outcome.completed(), "{algo:?}");
            assert_eq!(r.terminated, 0, "{algo:?}");
            assert_eq!(r.n_seeds, 0, "{algo:?}");
            assert!(r.participation().is_finite(), "{algo:?}");
            assert!(r.comm_overhead_share().is_finite(), "{algo:?}");
            assert!(r.load_imbalance().is_finite(), "{algo:?}");
            assert!(r.batch_occupancy.is_finite(), "{algo:?}");
        }
    }

    #[test]
    fn round_robin_partition_also_conserves_streamlines() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        dcfg.cells_per_block = [6, 6, 6];
        let ds = Dataset::thermal_hydraulics(dcfg);
        let seeds = ds.seeds_with_count(Seeding::Sparse, 64);
        let mut cfg = RunConfig::new(Algorithm::StaticAllocation, 5);
        cfg.limits.max_steps = 300;
        cfg.memory = MemoryBudget::unlimited();
        cfg.static_partition = crate::static_alloc::StaticPartition::RoundRobin;
        let r = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
        assert!(r.outcome.completed());
        assert_eq!(r.terminated, 64);
        // Round-robin spreads blocks, so crossings produce more hand-offs
        // than the contiguous default.
        let mut contiguous = cfg;
        contiguous.static_partition = crate::static_alloc::StaticPartition::Contiguous;
        let rc = Run::new(&ds, &contiguous, &seeds).go().unwrap().report;
        assert!(r.msgs >= rc.msgs, "round-robin {} vs contiguous {}", r.msgs, rc.msgs);
    }
}
