//! Cross-algorithm result equivalence.
//!
//! All four parallelization strategies — the paper's three plus the
//! decentralized work-stealing driver — advance streamlines block-by-block
//! with the same tracer, so for a given problem every algorithm must produce
//! *bit-identical* final solver states for every streamline — parallelization
//! strategy may change scheduling, I/O and communication, never the science.

use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig, RunOutput};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::Streamline;

fn run(algo: Algorithm, n_procs: usize, dataset: &Dataset, n_seeds: usize) -> Vec<Streamline> {
    let seeds = dataset.seeds_with_count(Seeding::Sparse, n_seeds);
    let mut cfg = RunConfig::new(algo, n_procs);
    cfg.limits.max_steps = 400;
    cfg.memory = MemoryBudget::unlimited();
    let RunOutput { report, finished, .. } = Run::new(dataset, &cfg, &seeds).go().unwrap();
    assert!(report.outcome.completed(), "{algo:?} failed: {}", report.summary());
    assert_eq!(finished.len(), n_seeds, "{algo:?} lost streamlines");
    finished
}

fn assert_same_states(a: &[Streamline], b: &[Streamline], label: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.id, y.id, "{label}: id order");
        assert_eq!(x.status, y.status, "{label}: status of {:?}", x.id);
        assert_eq!(x.state.steps, y.state.steps, "{label}: steps of {:?}", x.id);
        assert_eq!(x.state.position, y.state.position, "{label}: final position of {:?}", x.id);
        assert_eq!(x.state.arc_length, y.state.arc_length, "{label}: arc length of {:?}", x.id);
    }
}

#[test]
fn all_algorithms_agree_on_thermal() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let reference = run(Algorithm::LoadOnDemand, 4, &ds, 60);
    let static_run = run(Algorithm::StaticAllocation, 4, &ds, 60);
    let hybrid_run = run(Algorithm::HybridMasterSlave, 4, &ds, 60);
    let steal_run = run(Algorithm::WorkStealing, 4, &ds, 60);
    assert_same_states(&reference, &static_run, "LOD vs static");
    assert_same_states(&reference, &hybrid_run, "LOD vs hybrid");
    assert_same_states(&reference, &steal_run, "LOD vs steal");
}

#[test]
fn all_algorithms_agree_on_fusion() {
    let ds = Dataset::fusion(DatasetConfig::tiny());
    let reference = run(Algorithm::LoadOnDemand, 3, &ds, 40);
    let static_run = run(Algorithm::StaticAllocation, 3, &ds, 40);
    let hybrid_run = run(Algorithm::HybridMasterSlave, 3, &ds, 40);
    let steal_run = run(Algorithm::WorkStealing, 3, &ds, 40);
    assert_same_states(&reference, &static_run, "LOD vs static");
    assert_same_states(&reference, &hybrid_run, "LOD vs hybrid");
    assert_same_states(&reference, &steal_run, "LOD vs steal");
}

#[test]
fn all_algorithms_agree_on_astrophysics() {
    let ds = Dataset::astrophysics(DatasetConfig::tiny());
    let reference = run(Algorithm::LoadOnDemand, 4, &ds, 40);
    let static_run = run(Algorithm::StaticAllocation, 4, &ds, 40);
    let hybrid_run = run(Algorithm::HybridMasterSlave, 4, &ds, 40);
    let steal_run = run(Algorithm::WorkStealing, 4, &ds, 40);
    assert_same_states(&reference, &static_run, "LOD vs static");
    assert_same_states(&reference, &hybrid_run, "LOD vs hybrid");
    assert_same_states(&reference, &steal_run, "LOD vs steal");
}

#[test]
fn results_independent_of_processor_count() {
    // Scheduling differs wildly between 2 and 8 ranks; physics must not.
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    for algo in Algorithm::ALL {
        let a = run(algo, 2, &ds, 48);
        let b = run(algo, 8, &ds, 48);
        assert_same_states(&a, &b, &format!("{algo:?} 2 vs 8 ranks"));
    }
}

#[test]
fn dense_seeding_also_agrees() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Dense, 64);
    let mut results = Vec::new();
    for algo in Algorithm::ALL {
        let mut cfg = RunConfig::new(algo, 4);
        cfg.limits.max_steps = 300;
        cfg.limits.max_arc_length = 1.0;
        cfg.memory = MemoryBudget::unlimited();
        let RunOutput { report, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        assert!(report.outcome.completed());
        results.push(finished);
    }
    assert_same_states(&results[0], &results[1], "static vs LOD dense");
    assert_same_states(&results[0], &results[2], "static vs hybrid dense");
    assert_same_states(&results[0], &results[3], "static vs steal dense");
}

/// At batch width 2 nearly every parked list splits into several chunks,
/// so nearly every block advance fans out across the host's cores. Every
/// driver must still finish every streamline bit-identically: to the other
/// drivers, and to itself at the 16-lane width.
#[test]
fn narrow_batches_fan_out_and_still_agree() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Dense, 96);
    let run = |algo: Algorithm, lanes: usize| {
        let mut cfg = RunConfig::new(algo, 4);
        cfg.limits.max_steps = 300;
        cfg.limits.max_arc_length = 1.0;
        cfg.memory = MemoryBudget::unlimited();
        cfg.batch.lanes = Some(lanes);
        let RunOutput { report, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        assert!(report.outcome.completed(), "{algo:?} at {lanes} lanes");
        (report.total_steps, finished)
    };
    let (ref_steps, reference) = run(Algorithm::LoadOnDemand, 2);
    assert_eq!(reference.len(), 96);
    for algo in Algorithm::ALL {
        let (steps, narrow) = run(algo, 2);
        let (wide_steps, wide) = run(algo, 16);
        assert_same_states(&reference, &narrow, &format!("LOD vs {algo:?}, 2 lanes"));
        assert_same_states(&narrow, &wide, &format!("{algo:?}: 2 vs 16 lanes"));
        assert_eq!((steps, wide_steps), (ref_steps, ref_steps), "{algo:?} steps");
    }
}
