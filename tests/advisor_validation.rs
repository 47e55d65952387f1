//! The §6 advisor's recommendations must actually win (or tie) their
//! scenarios in measured quick-scale runs — the heuristics are distilled
//! from the measurements, so the measurements must support them.

use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{classify, recommend, Algorithm, FlowKnowledge, Run, RunConfig};
use streamline_field::dataset::Seeding;

/// Quick-scale datasets have only 64 blocks; shrink the cache so the data
/// does *not* fit in one rank (the paper's large-data regime).
const CACHE: usize = 12;

fn measure(workload: Workload, seeding: Seeding, algo: Algorithm, n: usize) -> f64 {
    let dataset = dataset_for(workload, SweepScale::Quick);
    let seeds = dataset.seeds_with_count(seeding, n);
    let mut cfg = case_config(workload, seeding, algo, 8);
    cfg.cache_blocks = CACHE;
    let r = Run::new(&dataset, &cfg, &seeds).go().unwrap().report;
    assert!(r.outcome.completed(), "{}", r.summary());
    r.wall
}

fn classify_case(
    workload: Workload,
    seeding: Seeding,
    n: usize,
) -> streamline_core::ProblemProfile {
    let dataset = dataset_for(workload, SweepScale::Quick);
    let seeds = dataset.seeds_with_count(seeding, n);
    let mut cfg: RunConfig = case_config(workload, seeding, Algorithm::HybridMasterSlave, 8);
    cfg.cache_blocks = CACHE;
    classify(&dataset, &seeds, &cfg)
}

#[test]
fn hybrid_recommended_for_unknown_flow_is_competitive() {
    // For unknown flow the advisor says hybrid; measured, it must be within
    // a factor of the best algorithm on a scattered-seed case.
    let profile = classify_case(Workload::Astro, Seeding::Sparse, 400);
    let rec = recommend(&profile, FlowKnowledge::Unknown);
    assert_eq!(rec.algorithm, Algorithm::HybridMasterSlave);
    let walls: Vec<(Algorithm, f64)> = Algorithm::ALL
        .iter()
        .map(|&a| (a, measure(Workload::Astro, Seeding::Sparse, a, 400)))
        .collect();
    let best = walls.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min);
    let hybrid = walls.iter().find(|(a, _)| *a == Algorithm::HybridMasterSlave).unwrap().1;
    assert!(
        hybrid <= best * 2.5,
        "hybrid {hybrid} vs best {best}: the general-purpose recommendation \
         must stay competitive ({walls:?})"
    );
}

#[test]
fn lod_recommended_for_dense_localized_actually_wins() {
    // The §5.3 thermal-dense crossover: advisor says Load On Demand, and the
    // measurement agrees it beats the hybrid there.
    let profile = classify_case(Workload::Thermal, Seeding::Dense, 1100);
    let rec = recommend(&profile, FlowKnowledge::Localized);
    assert_eq!(rec.algorithm, Algorithm::LoadOnDemand);
    let lod = measure(Workload::Thermal, Seeding::Dense, Algorithm::LoadOnDemand, 1100);
    let hybrid = measure(Workload::Thermal, Seeding::Dense, Algorithm::HybridMasterSlave, 1100);
    assert!(lod < hybrid, "LOD ({lod}) must beat hybrid ({hybrid}) on the dense thermal case");
}

#[test]
fn classification_flags_match_scenarios() {
    let dense = classify_case(Workload::Thermal, Seeding::Dense, 500);
    assert!(dense.seeds_dense);
    assert!(!dense.seed_set_small);
    let sparse = classify_case(Workload::Fusion, Seeding::Sparse, 500);
    assert!(!sparse.seeds_dense);
    assert!(sparse.seeded_block_fraction > dense.seeded_block_fraction);
}
