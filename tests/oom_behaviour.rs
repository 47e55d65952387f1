//! The §5.3 out-of-memory behaviour: Static Allocation dies when a dense
//! seed set lands on one rank; the streamline-parallel algorithms survive
//! the identical problem under the identical budget.

use streamline_repro::core::{Algorithm, Run, RunConfig, RunOutcome};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};

const N_SEEDS: usize = 2_000;

fn dense_config(algo: Algorithm, n_seeds: usize, n_procs: usize) -> RunConfig {
    let mut cfg = RunConfig::new(algo, n_procs);
    cfg.limits.max_steps = 200;
    cfg.limits.max_arc_length = 0.8;
    // Small caches so resident blocks stay well under the budget …
    cfg.cache_blocks = 4;
    // … and a budget sized so the whole seed set on one rank is fatal
    // (n · 64 KiB ≈ 131 MB for 2000 seeds) while a 1/n share plus cache
    // is comfortable.
    cfg.memory.bytes = Some(n_seeds as f64 * cfg.memory.stream_bytes * 0.9);
    cfg
}

#[test]
fn static_oom_on_dense_seeds_lod_and_hybrid_survive() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let n = N_SEEDS;
    let seeds = ds.seeds_with_count(Seeding::Dense, n);

    let st = Run::new(&ds, &dense_config(Algorithm::StaticAllocation, n, 16), &seeds)
        .go()
        .unwrap()
        .report;
    assert!(
        matches!(st.outcome, RunOutcome::OutOfMemory { .. }),
        "static must OOM: {}",
        st.summary()
    );

    for algo in [Algorithm::LoadOnDemand, Algorithm::HybridMasterSlave] {
        let r = Run::new(&ds, &dense_config(algo, n, 16), &seeds).go().unwrap().report;
        assert!(r.outcome.completed(), "{algo:?} should survive: {}", r.summary());
        assert_eq!(r.terminated as usize, n);
    }
}

#[test]
fn static_oom_is_proc_count_independent() {
    // The paper's Figure 13 has no static-dense line at any processor count.
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let n = N_SEEDS;
    let seeds = ds.seeds_with_count(Seeding::Dense, n);
    for procs in [8, 16, 32] {
        let r = Run::new(&ds, &dense_config(Algorithm::StaticAllocation, n, procs), &seeds)
            .go()
            .unwrap()
            .report;
        assert!(matches!(r.outcome, RunOutcome::OutOfMemory { .. }), "p={procs}: {}", r.summary());
    }
}

#[test]
fn sparse_seeding_fits_everywhere() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Sparse, N_SEEDS);
    for algo in Algorithm::ALL {
        let r = Run::new(&ds, &dense_config(algo, N_SEEDS, 16), &seeds).go().unwrap().report;
        assert!(r.outcome.completed(), "{algo:?} sparse: {}", r.summary());
    }
}

#[test]
fn unlimited_budget_never_fails() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Dense, N_SEEDS);
    let mut cfg = dense_config(Algorithm::StaticAllocation, 600, 8);
    cfg.memory.bytes = None;
    let r = Run::new(&ds, &cfg, &seeds).go().unwrap().report;
    assert!(r.outcome.completed());
    assert_eq!(r.terminated, N_SEEDS as u64);
}
