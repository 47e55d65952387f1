//! Rank fail-stop faults: for ANY seeded death schedule, every scheduling
//! driver must terminate and account for every seed exactly once —
//! `completed + unavailable + rank_lost == total` — with or without a
//! permanent block-fault overlay. Survivors of a death must be
//! bit-identical to the fault-free run, and resilient mode with no deaths
//! must be invisible in the results.

use proptest::prelude::*;
use std::sync::Arc;
use streamline_repro::core::{Algorithm, MemoryBudget, RankChaos, Run, RunConfig, RunOutput};
use streamline_repro::field::block::BlockId;
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::{Streamline, StreamlineStatus, Termination};
use streamline_repro::iosim::{BlockStore, FaultPlan, FaultStore, MemoryStore};

fn dataset() -> Dataset {
    Dataset::thermal_hydraulics(DatasetConfig::tiny())
}

fn cfg(algo: Algorithm) -> RunConfig {
    let mut cfg = RunConfig::new(algo, 6);
    cfg.limits.max_steps = 300;
    cfg.memory = MemoryBudget::unlimited();
    cfg
}

/// `(completed, unavailable, rank_lost)` — panics on a still-active
/// streamline, which the collect path must never emit.
fn buckets(lines: &[Streamline]) -> (u64, u64, u64) {
    let (mut done, mut unavail, mut lost) = (0, 0, 0);
    for sl in lines {
        match sl.status {
            StreamlineStatus::Terminated(Termination::RankLost) => lost += 1,
            StreamlineStatus::Terminated(Termination::BlockUnavailable) => unavail += 1,
            StreamlineStatus::Terminated(_) => done += 1,
            StreamlineStatus::Active => panic!("active streamline {:?} after collect", sl.id),
        }
    }
    (done, unavail, lost)
}

fn assert_same_streamline(got: &Streamline, want: &Streamline, ctx: &str) {
    assert_eq!(got.id, want.id, "{ctx}: id");
    assert_eq!(got.status, want.status, "{ctx}: status of {:?}", got.id);
    assert_eq!(got.state.position, want.state.position, "{ctx}: position of {:?}", got.id);
    assert_eq!(got.geometry, want.geometry, "{ctx}: geometry of {:?}", got.id);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The tentpole invariant, property-tested: any seeded death schedule,
    /// all four drivers, optional permanent block faults on top — the run
    /// terminates (no deadlock inside the DES) and every seed comes back
    /// exactly once with a typed outcome.
    #[test]
    fn any_rank_death_schedule_conserves_work_and_terminates(
        seed in 0u64..u64::MAX,
        kill_prob in 0.0f64..1.0,
        window_end in 1.0e-3f64..0.5,
        overlay_block_faults in prop::bool::ANY,
    ) {
        let ds = dataset();
        let seeds = ds.seeds_with_count(Seeding::Sparse, 24);
        let n = seeds.points.len() as u64;
        let mut chaos = RankChaos::seeded(seed);
        chaos.kill_prob = kill_prob;
        chaos.window = (0.0, window_end);
        for algo in Algorithm::ALL {
            let mut cfg = cfg(algo);
            cfg.rank_chaos = Some(chaos);
            let store: Arc<dyn BlockStore> = if overlay_block_faults {
                let mut plan = FaultPlan::new();
                for i in (0..ds.decomp.num_blocks()).step_by(5) {
                    plan = plan.permanent(BlockId(i as u32));
                }
                Arc::new(FaultStore::new(Arc::new(MemoryStore::build(&ds)), plan))
            } else {
                Arc::new(MemoryStore::build(&ds))
            };
            let RunOutput { report, finished: lines, .. } =
                Run::new(&ds, &cfg, &seeds).store(store).go().unwrap();
            prop_assert_eq!(lines.len() as u64, n, "{:?}: one result per seed", algo);
            let (done, unavail, lost) = buckets(&lines);
            prop_assert_eq!(done + unavail + lost, n, "{:?}: buckets cover every seed", algo);
            prop_assert_eq!(report.terminated, n, "{:?}: report agrees", algo);
            prop_assert_eq!(
                report.rank_lost_streamlines, lost,
                "{:?}: reported rank-lost matches the curves", algo
            );
            if report.rank_deaths.is_empty() {
                prop_assert_eq!(lost, 0, "{:?}: no deaths, nothing lost", algo);
            }
        }
    }

    /// False suspicion: with a heartbeat far shorter than a block load (a
    /// rank busy loading cannot beat), survivors suspect live peers and
    /// recover work that was never lost. Nobody is killed, yet the books
    /// must still balance — one result per seed, every seed in exactly one
    /// bucket. A falsely suspected peer's work can really go missing (the
    /// hybrid master ignores its later statuses), so "no deaths, nothing
    /// lost" is deliberately not asserted here.
    #[test]
    fn false_suspicion_conserves_work_and_terminates(
        seed in 0u64..u64::MAX,
        heartbeat in 1.0e-4f64..5.0e-3,
        timeout_beats in 2.0f64..8.0,
    ) {
        let ds = dataset();
        let seeds = ds.seeds_with_count(Seeding::Sparse, 24);
        let n = seeds.points.len() as u64;
        let mut chaos = RankChaos::seeded(seed);
        chaos.kill_prob = 0.0;
        chaos.heartbeat_period = heartbeat;
        chaos.suspect_timeout = heartbeat * timeout_beats;
        for algo in Algorithm::ALL {
            let mut cfg = cfg(algo);
            cfg.rank_chaos = Some(chaos);
            let RunOutput { report, finished: lines, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
            prop_assert!(report.rank_deaths.is_empty(), "{:?}: kill_prob 0 kills nobody", algo);
            prop_assert_eq!(lines.len() as u64, n, "{:?}: one result per seed", algo);
            let (done, unavail, lost) = buckets(&lines);
            prop_assert_eq!(done + unavail + lost, n, "{:?}: buckets cover every seed", algo);
            prop_assert_eq!(report.terminated, n, "{:?}: report agrees", algo);
            prop_assert_eq!(
                report.rank_lost_streamlines, lost,
                "{:?}: reported rank-lost matches the curves", algo
            );
        }
    }
}

/// Resilient mode armed but no rank ever killed: heartbeats fly, yet the
/// science is bit-identical to a run with the fault model off entirely.
#[test]
fn resilient_mode_without_deaths_is_bit_identical() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 24);
    for algo in Algorithm::ALL {
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let RunOutput { finished: want, .. } =
            Run::new(&ds, &cfg(algo), &seeds).store(store).go().unwrap();
        let mut rcfg = cfg(algo);
        let mut chaos = RankChaos::seeded(1);
        chaos.kill_prob = 0.0;
        rcfg.rank_chaos = Some(chaos);
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let RunOutput { report, finished: got, .. } =
            Run::new(&ds, &rcfg, &seeds).store(store).go().unwrap();
        assert!(report.rank_deaths.is_empty(), "{algo:?}: kill_prob 0 must kill nobody");
        assert_eq!(report.rank_lost_streamlines, 0, "{algo:?}");
        assert_eq!(got.len(), want.len(), "{algo:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_same_streamline(g, w, &format!("{algo:?} resilient-but-lucky"));
        }
    }
}

/// One pinned death on every driver: each streamline that survives — on its
/// original owner or re-run on an adopter — is bit-identical to the
/// fault-free reference, across all four drivers.
#[test]
fn survivors_of_a_rank_death_are_bit_identical_across_drivers() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 24);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    let RunOutput { finished: reference, .. } =
        Run::new(&ds, &cfg(Algorithm::LoadOnDemand), &seeds).store(store).go().unwrap();
    for algo in Algorithm::ALL {
        let mut c = cfg(algo);
        c.rank_chaos = Some(RankChaos::one_kill(3, 2.0e-3));
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let RunOutput { report, finished: lines, .. } =
            Run::new(&ds, &c, &seeds).store(store).go().unwrap();
        assert_eq!(report.rank_deaths, vec![(3, 2.0e-3)], "{algo:?}: the kill fired");
        let mut survivors = 0;
        for sl in &lines {
            if sl.status == StreamlineStatus::Terminated(Termination::RankLost) {
                continue;
            }
            let want = &reference[sl.id.0 as usize];
            assert_same_streamline(sl, want, &format!("{algo:?} survivor"));
            survivors += 1;
        }
        assert!(survivors > 0, "{algo:?}: every streamline died with one rank");
    }
}

/// Hybrid with two masters under one pinned death: the masters used to
/// spin on empty master-to-master steal requests until the liveness
/// deadline, which exhausted the simulator's event budget (a panic) long
/// before the run could end. The run must now end with every seed in
/// exactly one bucket. It still ends at the liveness deadline, not by
/// drain.
#[test]
fn hybrid_with_two_masters_survives_a_rank_death() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::default());
    let seeds = ds.seeds_with_count(Seeding::Sparse, 500);
    let n = seeds.points.len() as u64;
    let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 64);
    assert_eq!(cfg.hybrid.n_masters(cfg.n_procs), 2);
    cfg.limits.h0 = 1e-3;
    cfg.limits.h_max = 0.01;
    cfg.limits.max_steps = 1_000;
    cfg.limits.max_arc_length = 10.0;
    cfg.rank_chaos = Some(RankChaos::one_kill(5, 1.0e-3));
    let RunOutput { report, finished: lines, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
    assert_eq!(report.rank_deaths, vec![(5, 1.0e-3)], "the kill fired");
    assert_eq!(lines.len() as u64, n, "one result per seed");
    let (done, unavail, lost) = buckets(&lines);
    assert_eq!(done + unavail + lost, n, "completed + unavailable + rank_lost == ingested");
    assert_eq!(report.terminated, n);
    assert_eq!(report.rank_lost_streamlines, lost);
}
