//! Ablation of §4.1's block-to-rank mapping: the paper's contiguous
//! first-1/n assignment vs round-robin.
//!
//! Contiguous ownership keeps spatially adjacent blocks on one rank, so
//! short block crossings often stay local; round-robin makes *every*
//! crossing a hand-off but spreads concentrated seed sets across ranks.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin partition_ablation [-- --quick]
//! ```

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run, RunOutcome, StaticPartition};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, procs, seeds_n) =
        if quick { (SweepScale::Quick, 8, 400) } else { (SweepScale::Full, 128, 20_000) };

    println!("# Static Allocation partition ablation (§4.1)\n");
    for (workload, seeding) in [
        (Workload::Astro, Seeding::Sparse),
        (Workload::Astro, Seeding::Dense),
        (Workload::Thermal, Seeding::Dense),
    ] {
        let dataset = dataset_for(workload, scale);
        let n = if quick { seeds_n } else { dataset.paper_seed_count(seeding) };
        let seeds = dataset.seeds_with_count(seeding, n);
        let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        println!("## {} — {} ({} seeds, {procs} ranks)\n", workload.label(), seeding.label(), n);
        println!("| partition | outcome | wall (s) | comm (s) | msgs | imbalance |");
        println!("|-----------|---------|---------:|---------:|-----:|----------:|");
        for partition in [StaticPartition::Contiguous, StaticPartition::RoundRobin] {
            let mut cfg = case_config(workload, seeding, Algorithm::StaticAllocation, procs);
            cfg.static_partition = partition;
            let r = Run::new(&dataset, &cfg, &seeds).store(Arc::clone(&store)).go().unwrap().report;
            let label = match partition {
                StaticPartition::Contiguous => "contiguous (paper)",
                StaticPartition::RoundRobin => "round-robin",
            };
            match r.outcome {
                RunOutcome::Completed => println!(
                    "| {label} | ok | {:.3} | {:.3} | {} | {:.2} |",
                    r.wall,
                    r.comm_time,
                    r.msgs,
                    r.load_imbalance(),
                ),
                RunOutcome::OutOfMemory { rank } => {
                    println!("| {label} | OOM@r{rank} | — | — | — | — |")
                }
                RunOutcome::MasterLost { rank } => {
                    println!("| {label} | master lost@r{rank} | — | — | — | — |")
                }
            }
        }
        println!();
    }
    println!(
        "Expected: round-robin multiplies hand-offs (every crossing changes \
         owner) but can rescue the dense case from single-rank concentration \
         when seeds cluster inside one block *row* — though not when they \
         cluster inside a single block."
    );
}
