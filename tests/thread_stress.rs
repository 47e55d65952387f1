//! Heavier thread-runtime exercise: every algorithm, several rank counts,
//! repeated runs — shaking out races the single-shot tests would miss.

use std::sync::Arc;
use std::time::Duration;
use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::iosim::{BlockStore, MemoryStore};

#[test]
fn repeated_threaded_runs_are_reliable() {
    let ds = Dataset::fusion(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Sparse, 60);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    for algo in Algorithm::ALL {
        let mut cfg = RunConfig::new(algo, 6);
        cfg.limits.max_steps = 250;
        cfg.memory = MemoryBudget::unlimited();
        let reference = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
        for round in 0..3 {
            let r = Run::new(&ds, &cfg, &seeds)
                .store(Arc::clone(&store))
                .threads(Duration::from_secs(60))
                .go()
                .unwrap()
                .report;
            assert!(r.outcome.completed(), "{algo:?} round {round}");
            assert_eq!(r.terminated, 60, "{algo:?} round {round}");
            assert_eq!(
                r.total_steps, reference.total_steps,
                "{algo:?} round {round}: threaded work differs from simulated"
            );
        }
    }
}

#[test]
fn threaded_rank_counts_vary() {
    let ds = Dataset::astrophysics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Dense, 80);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    for procs in [2usize, 5, 12] {
        let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, procs);
        cfg.limits.max_steps = 250;
        cfg.memory = MemoryBudget::unlimited();
        let r = Run::new(&ds, &cfg, &seeds)
            .store(Arc::clone(&store))
            .threads(Duration::from_secs(60))
            .go()
            .unwrap()
            .report;
        assert!(r.outcome.completed(), "p={procs}");
        assert_eq!(r.terminated, 80, "p={procs}");
    }
}
