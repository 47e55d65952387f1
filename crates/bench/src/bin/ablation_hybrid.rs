//! Ablation of the Hybrid Master/Slave tuning parameters of §4.3:
//! `N` (seeds per assignment), `N_O` (overload limit), `N_L` (load
//! threshold) and `W` (slaves per master), plus the LRU capacity.
//!
//! The paper gives point values (N = 10, N_O = 20·N, N_L = 40, W = 32);
//! this harness sweeps each around its default on the astrophysics sparse
//! problem, holding everything else fixed.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin ablation_hybrid [-- --quick]
//! ```

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{Algorithm, Run, RunConfig, RunReport};
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

struct Ablation {
    label: &'static str,
    values: Vec<usize>,
    default_idx: usize,
    apply: fn(&mut RunConfig, usize),
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, procs, seeds) = if quick {
        (SweepScale::Quick, 8, Some(400))
    } else {
        (SweepScale::Full, 128, Some(20_000))
    };
    let workload = Workload::Astro;
    let seeding = Seeding::Sparse;
    let dataset = dataset_for(workload, scale);
    let seed_set = dataset.seeds_with_count(seeding, seeds.unwrap());
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));

    let ablations = [
        Ablation {
            label: "N (seeds per assignment)",
            values: vec![1, 5, 10, 50, 200],
            default_idx: 2,
            apply: |c, v| c.hybrid.n_assign = v,
        },
        Ablation {
            label: "N_O/N (overload factor)",
            values: vec![2, 5, 20, 100],
            default_idx: 2,
            apply: |c, v| c.hybrid.overload_factor = v,
        },
        Ablation {
            label: "N_L (load threshold)",
            values: vec![5, 10, 40, 160, 1000],
            default_idx: 2,
            apply: |c, v| c.hybrid.n_load = v,
        },
        Ablation {
            label: "W (slaves per master)",
            values: vec![8, 16, 32, 64],
            default_idx: 2,
            apply: |c, v| c.hybrid.slaves_per_master = v,
        },
        Ablation {
            label: "LRU capacity (blocks)",
            values: vec![8, 16, 32, 64, 128],
            default_idx: 3,
            apply: |c, v| c.cache_blocks = v,
        },
    ];

    println!(
        "# Hybrid parameter ablation — {} {}, {} seeds, {procs} ranks\n",
        workload.label(),
        seeding.label(),
        seed_set.len()
    );
    for ab in &ablations {
        println!("## {}\n", ab.label);
        println!("| value | wall (s) | io (s) | comm (s) | E | msgs | idle (s) |");
        println!("|------:|---------:|-------:|---------:|--:|-----:|---------:|");
        for (i, &v) in ab.values.iter().enumerate() {
            let mut cfg = case_config(workload, seeding, Algorithm::HybridMasterSlave, procs);
            (ab.apply)(&mut cfg, v);
            let r: RunReport =
                Run::new(&dataset, &cfg, &seed_set).store(Arc::clone(&store)).go().unwrap().report;
            let marker = if i == ab.default_idx { " (paper)" } else { "" };
            println!(
                "| {v}{marker} | {:.3} | {:.2} | {:.3} | {:.3} | {} | {:.2} |",
                r.wall,
                r.io_time,
                r.comm_time,
                r.block_efficiency(),
                r.msgs,
                r.idle_time,
            );
            assert!(r.outcome.completed(), "ablation run failed: {}", r.summary());
        }
        println!();
    }
}
