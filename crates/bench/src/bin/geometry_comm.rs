//! §8 future-work experiment: "it should be sufficient to communicate
//! solver state as well as some relatively compact derived quantities" —
//! how much communication does dropping geometry from hand-offs save, and
//! does it change who wins?
//!
//! Compares `comm_geometry = true` (the paper's measured configuration)
//! against solver-state-only hand-offs for Static Allocation and Hybrid on
//! the astrophysics problem.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin geometry_comm [-- --quick]
//! ```

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, procs, n_seeds) =
        if quick { (SweepScale::Quick, 8, 400) } else { (SweepScale::Full, 128, 20_000) };
    let workload = Workload::Astro;
    let dataset = dataset_for(workload, scale);
    let seeds = dataset.seeds_with_count(Seeding::Sparse, n_seeds);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));

    println!(
        "# Communicating geometry vs solver state only (§8)\n\n\
         {} sparse, {} seeds, {procs} ranks\n",
        workload.label(),
        seeds.len()
    );
    println!("| algorithm | hand-off payload | wall (s) | comm (s) | bytes sent |");
    println!("|-----------|------------------|---------:|---------:|-----------:|");
    for algo in [Algorithm::StaticAllocation, Algorithm::HybridMasterSlave] {
        for geometry in [true, false] {
            let mut cfg = case_config(workload, Seeding::Sparse, algo, procs);
            cfg.comm_geometry = geometry;
            let r = Run::new(&dataset, &cfg, &seeds).store(Arc::clone(&store)).go().unwrap().report;
            assert!(r.outcome.completed(), "{}", r.summary());
            println!(
                "| {} | {} | {:.3} | {:.4} | {} |",
                algo.label(),
                if geometry { "full geometry" } else { "solver state" },
                r.wall,
                r.comm_time,
                r.bytes_sent,
            );
        }
    }
    println!(
        "\nExpected shape: dropping geometry cuts bytes by orders of magnitude \
         for the hand-off-heavy Static Allocation, narrowing (but not erasing) \
         the hybrid's advantage — and it changes nothing about I/O or block \
         efficiency."
    );
}
