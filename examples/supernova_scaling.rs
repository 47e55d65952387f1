//! A miniature of the paper's astrophysics scaling study (§5.1): sweep the
//! three algorithms over processor counts on the supernova field and print
//! the four metrics each figure plots.
//!
//! ```sh
//! cargo run --release --example supernova_scaling
//! ```

use streamline_repro::core::{Algorithm, Run, RunConfig};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};

fn main() {
    let dcfg = DatasetConfig {
        blocks_per_axis: [4, 4, 4],
        cells_per_block: [12, 12, 12],
        ghost: 1,
        seed: 42,
    };
    let dataset = Dataset::astrophysics(dcfg);

    for seeding in [Seeding::Sparse, Seeding::Dense] {
        let seeds = dataset.seeds_with_count(seeding, 2_000);
        println!("== supernova, {} seeding, {} streamlines ==", seeding.label(), seeds.len());
        println!(
            "{:<6} {:<16} {:>10} {:>10} {:>10} {:>8}",
            "procs", "algorithm", "wall (s)", "io (s)", "comm (s)", "E"
        );
        for procs in [8, 16, 32] {
            for algo in Algorithm::ALL {
                let mut cfg = RunConfig::new(algo, procs);
                cfg.limits.h0 = 1e-3;
                cfg.limits.h_max = 0.02;
                cfg.limits.max_steps = 800;
                cfg.limits.min_speed = 1e-3;
                cfg.cache_blocks = 16;
                let r = Run::new(&dataset, &cfg, &seeds).go().unwrap().report;
                assert_eq!(r.terminated as usize, seeds.len());
                println!(
                    "{:<6} {:<16} {:>10.4} {:>10.4} {:>10.4} {:>8.3}",
                    procs,
                    algo.label(),
                    r.wall,
                    r.io_time,
                    r.comm_time,
                    r.block_efficiency(),
                );
            }
        }
        println!();
    }
    println!(
        "Shapes to look for (cf. Figures 5-8): Static has minimal I/O and E = 1 \
         but communicates streamlines; Load On Demand never communicates but \
         re-reads blocks; the Hybrid balances both and scales best."
    );
}
