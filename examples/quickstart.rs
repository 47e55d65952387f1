//! Quickstart: build a dataset, classify the problem, ask the §6 advisor,
//! run the recommended algorithm on the simulated cluster, and inspect the
//! report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use streamline_repro::core::{classify, recommend, Algorithm, FlowKnowledge, Run, RunConfig};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};

fn main() {
    // A scaled-down thermal-hydraulics mixing box: 64 blocks of 12^3 cells.
    let dcfg = DatasetConfig {
        blocks_per_axis: [4, 4, 4],
        cells_per_block: [12, 12, 12],
        ghost: 1,
        seed: 7,
    };
    let dataset = Dataset::thermal_hydraulics(dcfg);
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 512);
    println!(
        "dataset: {} ({} blocks, {} cells); seeds: {} ({})",
        dataset.name,
        dataset.decomp.num_blocks(),
        dataset.decomp.total_cells(),
        seeds.len(),
        seeds.label,
    );

    // Classify along the §3.1 axes and consult the §6 heuristics.
    let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 16);
    cfg.limits.max_steps = 2_000;
    let profile = classify(&dataset, &seeds, &cfg);
    println!(
        "profile: data {:.1} GB, fits in one rank's cache: {}, dense seeds: {}, \
         seeded block fraction {:.2}",
        profile.data_bytes / 1e9,
        profile.fits_in_memory,
        profile.seeds_dense,
        profile.seeded_block_fraction,
    );
    let rec = recommend(&profile, FlowKnowledge::Unknown);
    println!("advisor: {} — {}", rec.algorithm.label(), rec.rationale);

    // Run all three algorithms on 16 simulated ranks and compare.
    println!(
        "\n{:<16} {:>10} {:>10} {:>10} {:>8}",
        "algorithm", "wall (s)", "io (s)", "comm (s)", "E"
    );
    for algo in Algorithm::ALL {
        let mut c = cfg;
        c.algorithm = algo;
        let report = Run::new(&dataset, &c, &seeds).go().unwrap().report;
        assert_eq!(report.terminated as usize, seeds.len(), "no streamline may be lost");
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>8.3}",
            algo.label(),
            report.wall,
            report.io_time,
            report.comm_time,
            report.block_efficiency(),
        );
    }
}
