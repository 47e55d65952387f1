//! §8 starvation analysis: "we have found that processor starvation is often
//! a limitation to large scalability."
//!
//! Prints the per-rank idle-fraction distribution for each algorithm on one
//! problem: how much of the critical path each strategy spends starved.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin starvation [-- --quick]
//! ```

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};
use streamline_math::stats::Summary;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, procs, n_seeds) =
        if quick { (SweepScale::Quick, 8, 400) } else { (SweepScale::Full, 256, 20_000) };
    let workload = Workload::Astro;
    let seeding = Seeding::Sparse;
    let dataset = dataset_for(workload, scale);
    let seeds = dataset.seeds_with_count(seeding, n_seeds);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));

    println!(
        "# Per-rank starvation (idle time) — {} {}, {} seeds, {procs} ranks\n",
        workload.label(),
        seeding.label(),
        seeds.len()
    );
    println!("| algorithm | wall (s) | idle mean | idle p95 | idle max | busy imbalance |");
    println!("|-----------|---------:|----------:|---------:|---------:|---------------:|");
    for algo in Algorithm::ALL {
        let cfg = case_config(workload, seeding, algo, procs);
        let r = Run::new(&dataset, &cfg, &seeds).store(Arc::clone(&store)).go().unwrap().report;
        assert!(r.outcome.completed(), "{}", r.summary());
        let idle: Vec<f64> = r.per_rank.iter().map(|m| m.idle).collect();
        let s = Summary::of(&idle).expect("ranks present");
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.2} |",
            algo.label(),
            r.wall,
            s.mean,
            s.p95,
            s.max,
            r.load_imbalance(),
        );
    }
    println!(
        "\nIdle time is the §8 starvation signal: the hybrid trades some \
         coordination idle (slaves waiting on master round-trips) for the \
         elimination of static allocation's flow-dependent hot ranks."
    );
}
