//! Property-based tests for streaming ingestion and termination detection
//! (ISSUE 9): the closed-set and frontier detectors must be
//! indistinguishable on any closed workload, and any open-loop arrival
//! schedule — bursts, empty epochs, arrivals landing mid-integration —
//! must conserve work exactly, with a fail-stop rank death underneath.

use proptest::prelude::*;
use streamline_core::{
    Algorithm, DetectorKind, MemoryBudget, RankChaos, Run, RunConfig, RunOutput, SeedSource,
};
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_integrate::{Streamline, StreamlineStatus, Termination};

fn tiny_dataset() -> Dataset {
    let mut dcfg = DatasetConfig::tiny();
    dcfg.blocks_per_axis = [2, 2, 2];
    dcfg.cells_per_block = [6, 6, 6];
    Dataset::thermal_hydraulics(dcfg)
}

fn config(algo: Algorithm, n_procs: usize, max_steps: u64) -> RunConfig {
    let mut cfg = RunConfig::new(algo, n_procs);
    cfg.limits.max_steps = max_steps;
    cfg.memory = MemoryBudget::unlimited();
    cfg
}

/// (completed, unavailable, rank-lost) — every record must be terminated.
fn classify(finished: &[Streamline]) -> (u64, u64, u64) {
    let (mut completed, mut unavailable, mut lost) = (0u64, 0u64, 0u64);
    for sl in finished {
        match sl.status {
            StreamlineStatus::Terminated(Termination::BlockUnavailable) => unavailable += 1,
            StreamlineStatus::Terminated(Termination::RankLost) => lost += 1,
            StreamlineStatus::Terminated(_) => completed += 1,
            StreamlineStatus::Active => panic!("active streamline in drained output"),
        }
    }
    (completed, unavailable, lost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Swapping the termination detector is invisible on closed workloads:
    /// bit-identical streamlines and an identical event history, for every
    /// driver, on randomized (rank count, seed count, step budget) cases.
    #[test]
    fn detectors_agree_bit_for_bit_on_random_closed_workloads(
        n_procs in 2usize..6,
        n_seeds in 0usize..40,
        max_steps in (0usize..3).prop_map(|i| [60u64, 150, 300][i]),
    ) {
        let ds = tiny_dataset();
        let seeds = ds.seeds_with_count(Seeding::Sparse, n_seeds);
        for algo in Algorithm::ALL {
            let mut cfg = config(algo, n_procs, max_steps);
            cfg.detector = DetectorKind::ClosedSet;
            let RunOutput { report: rc, finished: fc, .. } =
                Run::new(&ds, &cfg, &seeds).go().unwrap();
            cfg.detector = DetectorKind::Frontier;
            let RunOutput { report: rf, finished: ff, .. } =
                Run::new(&ds, &cfg, &seeds).go().unwrap();
            prop_assert_eq!(fc, ff, "{:?}: detector changed the science", algo);
            prop_assert_eq!(rc.wall.to_bits(), rf.wall.to_bits(), "{:?}", algo);
            prop_assert_eq!(rc.msgs, rf.msgs, "{:?}", algo);
            prop_assert_eq!(rc.bytes_sent, rf.bytes_sent, "{:?}", algo);
            prop_assert_eq!(rc.events, rf.events, "{:?}", algo);
            prop_assert_eq!(rc.terminated, n_seeds as u64, "{:?}", algo);
        }
    }

    /// Any open-loop arrival schedule conserves work exactly under a
    /// fail-stop rank death: one record per ingested seed, and
    /// `completed + unavailable + rank_lost == ingested`. Schedules
    /// include bursts (several epochs one event-gap apart), empty epochs,
    /// and arrivals after earlier epochs have already drained.
    #[test]
    fn random_open_schedules_conserve_exactly_under_chaos(
        algo_ix in 0usize..4,
        base_n in 0usize..12,
        epoch_shapes in prop::collection::vec((1u32..40, 0usize..8), 1..4),
        kill_rank in 0usize..4,
        kill_tick in 1u32..40,
    ) {
        let ds = tiny_dataset();
        let algo = Algorithm::ALL[algo_ix];
        let base = ds.seeds_with_count(Seeding::Sparse, base_n);
        let extra_total: usize = epoch_shapes.iter().map(|&(_, n)| n).sum();
        let extra = ds.seeds_with_count(Seeding::Dense, extra_total);
        let mut at = 0.0f64;
        let mut used = 0usize;
        let mut arrivals = Vec::with_capacity(epoch_shapes.len());
        for &(gap_ticks, n) in &epoch_shapes {
            at += f64::from(gap_ticks) * 1e-5;
            arrivals.push((at, extra.points[used..used + n].to_vec()));
            used += n;
        }
        let source = SeedSource::new(&base, arrivals).expect("monotone by construction");
        let total = source.total_seeds();

        let mut cfg = config(algo, 4, 150);
        cfg.detector = DetectorKind::Frontier;
        cfg.rank_chaos = Some(RankChaos::one_kill(kill_rank, f64::from(kill_tick) * 1e-5));
        let RunOutput { report, finished, .. } = Run::new(&ds, &cfg, source.clone()).go().unwrap();
        prop_assert_eq!(finished.len(), total, "{:?}: one record per ingested seed", algo);
        let (completed, unavailable, lost) = classify(&finished);
        prop_assert_eq!(
            completed + unavailable + lost, total as u64,
            "{:?}: conservation broke (completed {} unavailable {} lost {})",
            algo, completed, unavailable, lost
        );
        prop_assert_eq!(report.terminated, total as u64, "{:?}", algo);
        prop_assert_eq!(report.ingest_epochs as usize, epoch_shapes.len() + 1, "{:?}", algo);
    }
}
