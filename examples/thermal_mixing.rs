//! The §5.3 thermal-hydraulics scenario at example scale: dense seeding
//! around an inlet (the stream-surface configuration), the Static Allocation
//! out-of-memory failure, and the Load On Demand vs Hybrid crossover.
//!
//! ```sh
//! cargo run --release --example thermal_mixing
//! ```

use streamline_repro::core::{
    classify, recommend, Algorithm, FlowKnowledge, Run, RunConfig, RunOutcome, RunOutput,
};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::Termination;

fn main() {
    let dcfg = DatasetConfig {
        blocks_per_axis: [4, 4, 4],
        cells_per_block: [12, 12, 12],
        ghost: 1,
        seed: 11,
    };
    let dataset = Dataset::thermal_hydraulics(dcfg);
    // Dense circle of seeds immediately around the warm inlet, integrated a
    // short distance — the paper's stream-surface replication.
    let seeds = dataset.seeds_with_count(Seeding::Dense, 3_000);

    let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 16);
    cfg.limits.max_steps = 2_500;
    cfg.limits.max_arc_length = 1.5;
    // Example-scale memory: small caches, and a budget that accommodates a
    // 1/n share of the seed objects but not all of them on one rank.
    cfg.cache_blocks = 4;
    // 160 MB per rank: comfortable for a 1/16 share of the inlet seeds,
    // fatal for the one rank Static Allocation parks all 3000 on
    // (3000 × 64 KiB ≈ 197 MB of streamline objects alone).
    cfg.memory.bytes = Some(160e6);

    let profile = classify(&dataset, &seeds, &cfg);
    let rec = recommend(&profile, FlowKnowledge::Localized);
    println!("advisor for dense inlet seeding: {} — {}\n", rec.algorithm.label(), rec.rationale);

    println!("{:<16} {:>12} {:>10} {:>10}", "algorithm", "outcome", "wall (s)", "io (s)");
    for algo in Algorithm::ALL {
        let mut c = cfg;
        c.algorithm = algo;
        let report = Run::new(&dataset, &c, &seeds).go().unwrap().report;
        match report.outcome {
            RunOutcome::Completed => println!(
                "{:<16} {:>12} {:>10.4} {:>10.4}",
                algo.label(),
                "ok",
                report.wall,
                report.io_time
            ),
            RunOutcome::OutOfMemory { rank } => println!(
                "{:<16} {:>12} {:>10} {:>10}",
                algo.label(),
                format!("OOM@r{rank}"),
                "—",
                "—"
            ),
            RunOutcome::MasterLost { rank } => println!(
                "{:<16} {:>12} {:>10} {:>10}",
                algo.label(),
                format!("master lost@r{rank}"),
                "—",
                "—"
            ),
        }
    }

    // Where do the inlet streamlines end up? The finished streamlines give
    // termination statistics (recirculation vs outflow).
    let mut c = cfg;
    c.algorithm = Algorithm::LoadOnDemand;
    let RunOutput { report, finished, .. } = Run::new(&dataset, &c, &seeds).go().unwrap();
    assert!(report.outcome.completed());
    let mut by_reason = std::collections::BTreeMap::new();
    let mut total_arc = 0.0;
    for s in &finished {
        let reason = match s.status {
            streamline_repro::integrate::StreamlineStatus::Terminated(t) => t,
            _ => unreachable!("run completed"),
        };
        *by_reason.entry(format!("{reason:?}")).or_insert(0usize) += 1;
        total_arc += s.state.arc_length;
    }
    println!(
        "\n{} streamlines, mean arc length {:.3}",
        finished.len(),
        total_arc / finished.len() as f64
    );
    for (reason, count) in by_reason {
        println!("  {reason:<16} {count}");
    }
    let exited = finished
        .iter()
        .filter(|s| {
            s.status
                == streamline_repro::integrate::StreamlineStatus::Terminated(
                    Termination::ExitedDomain,
                )
        })
        .count();
    println!(
        "\n{:.1}% of inlet particles left the box within the integration budget; \
         the rest are still mixing (recirculation zones).",
        100.0 * exited as f64 / finished.len() as f64
    );
}
