//! Integration test for DES utilization tracing: traced runs must agree
//! with untraced runs, and the timeline must account for the busy time the
//! metrics report.

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run, RunOutput};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

#[test]
fn tracing_does_not_change_the_run() {
    let dataset = dataset_for(Workload::Thermal, SweepScale::Quick);
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 64);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    for algo in Algorithm::ALL {
        let cfg = case_config(Workload::Thermal, Seeding::Sparse, algo, 6);
        let run = || Run::new(&dataset, &cfg, &seeds).store(Arc::clone(&store));
        let plain = run().go().unwrap().report;
        let RunOutput { report: traced, timeline, .. } = run().trace(0.01).go().unwrap();
        let timeline = timeline.expect("a traced run records a timeline");
        assert_eq!(plain.wall, traced.wall, "{algo:?}");
        assert_eq!(plain.events, traced.events, "{algo:?}");

        // Timeline busy area equals the metrics' busy totals.
        let metric_busy: f64 = traced.per_rank.iter().map(|m| m.busy()).sum();
        let timeline_busy: f64 = (0..timeline.n_ranks)
            .map(|r| {
                (0..timeline.n_buckets())
                    .map(|b| timeline.utilization(r, b) * timeline.bucket_width)
                    .sum::<f64>()
            })
            .sum();
        assert!(
            (metric_busy - timeline_busy).abs() < 1e-6 * metric_busy.max(1.0),
            "{algo:?}: metrics busy {metric_busy} vs timeline busy {timeline_busy}"
        );
        // Nothing is more than 100% busy (within fp tolerance).
        for r in 0..timeline.n_ranks {
            for b in 0..timeline.n_buckets() {
                assert!(timeline.utilization(r, b) <= 1.0 + 1e-9);
            }
        }
    }
}

#[test]
fn idle_fraction_matches_imbalance_story() {
    // A single-rank run has zero structural idle in its own timeline.
    let dataset = dataset_for(Workload::Thermal, SweepScale::Quick);
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 32);
    let cfg = case_config(Workload::Thermal, Seeding::Sparse, Algorithm::LoadOnDemand, 1);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let timeline = Run::new(&dataset, &cfg, &seeds).store(store).trace(0.01).go().unwrap().timeline;
    let timeline = timeline.expect("a traced run records a timeline");
    // One rank working continuously: idle fraction only from the trailing
    // partial bucket.
    assert!(timeline.idle_fraction() < 0.2, "{}", timeline.idle_fraction());
}
