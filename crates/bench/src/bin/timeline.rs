//! Utilization timelines: an ASCII (rank × virtual-time) heat map per
//! algorithm, making load imbalance and §8's "processor starvation"
//! directly visible.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin timeline [-- --quick]
//! ```

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

/// Virtual-second bucket width: ~200 columns before `render` merges them.
const BUCKET: f64 = 0.005;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, procs, n_seeds) =
        if quick { (SweepScale::Quick, 8, 300) } else { (SweepScale::Full, 32, 4_000) };
    let workload = Workload::Astro;
    let seeding = Seeding::Sparse;
    let dataset = dataset_for(workload, scale);
    let seeds = dataset.seeds_with_count(seeding, n_seeds);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));

    println!(
        "# Utilization timelines — {} {}, {} seeds, {procs} ranks",
        workload.label(),
        seeding.label(),
        seeds.len()
    );
    println!("(rows = ranks, columns = virtual time; '#' busy, ' ' idle)\n");
    for algo in Algorithm::ALL {
        let cfg = case_config(workload, seeding, algo, procs);
        let out = Run::new(&dataset, &cfg, &seeds)
            .store(Arc::clone(&store))
            .trace(BUCKET)
            .go()
            .expect("a traced simulated run");
        let (report, timeline) = (out.report, out.timeline.expect("trace was set"));
        println!(
            "## {} — wall {:.3}s, idle fraction {:.1}%",
            algo.label(),
            report.wall,
            100.0 * timeline.idle_fraction()
        );
        print!("{}", timeline.render(100));
        println!();
    }
    println!(
        "Reading: Static Allocation shows flow-dependent hot rows (the ranks \
         owning popular blocks); Load On Demand is dense but long; the Hybrid \
         keeps most rows shaded until the coordinated wind-down."
    );
}
