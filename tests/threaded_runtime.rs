//! The same algorithm code on real OS threads must reach the same science
//! as the deterministic simulation (timings differ; results must not).

use std::sync::Arc;
use std::time::Duration;
use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::Streamline;
use streamline_repro::iosim::{BlockStore, MemoryStore};

fn dataset() -> Dataset {
    Dataset::thermal_hydraulics(DatasetConfig::tiny())
}

fn cfg(algo: Algorithm) -> RunConfig {
    let mut cfg = RunConfig::new(algo, 4);
    cfg.limits.max_steps = 300;
    cfg.memory = MemoryBudget::unlimited();
    cfg
}

#[test]
fn threads_match_simulation_for_every_algorithm() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 48);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    for algo in Algorithm::ALL {
        let sim = Run::new(&ds, &cfg(algo), &seeds).go().unwrap().report;
        let thr = Run::new(&ds, &cfg(algo), &seeds)
            .store(Arc::clone(&store))
            .threads(Duration::from_secs(60))
            .go()
            .unwrap()
            .report;
        assert_eq!(thr.terminated, sim.terminated, "{algo:?}");
        assert_eq!(thr.total_steps, sim.total_steps, "{algo:?} steps must match exactly");
        assert!(thr.outcome.completed(), "{algo:?}");
    }
}

#[test]
fn threads_run_against_real_disk_store() {
    use streamline_repro::iosim::testutil::TempDir;
    use streamline_repro::iosim::DiskStore;
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 24);
    let dir = TempDir::new("sl-threads");
    let store: Arc<dyn BlockStore> = Arc::new(DiskStore::create(&ds, dir.path()).unwrap());
    let r = Run::new(&ds, &cfg(Algorithm::LoadOnDemand), &seeds)
        .store(store)
        .threads(Duration::from_secs(60))
        .go()
        .unwrap()
        .report;
    assert!(r.outcome.completed());
    assert_eq!(r.terminated, 24);
    assert!(r.wall > 0.0);
}

/// Under real threads, 2-lane batches make most block advances fan out to
/// the advance helpers from several rank threads at once; every driver
/// must still finish the same streamlines, bit for bit, as the simulation.
#[test]
fn threads_with_fanned_out_advances_match_simulation() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Dense, 64);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
    for algo in Algorithm::ALL {
        let mut cfg = cfg(algo);
        cfg.batch.lanes = Some(2);
        let sim = Run::new(&ds, &cfg, &seeds).go().unwrap();
        let thr = Run::new(&ds, &cfg, &seeds)
            .store(Arc::clone(&store))
            .threads(Duration::from_secs(60))
            .go()
            .unwrap();
        assert!(thr.report.outcome.completed(), "{algo:?}");
        let by_id = |mut v: Vec<Streamline>| {
            v.sort_by_key(|sl| sl.id);
            v
        };
        assert_eq!(by_id(thr.finished), by_id(sim.finished), "{algo:?}");
        assert_eq!(thr.report.total_steps, sim.report.total_steps, "{algo:?}");
    }
}
