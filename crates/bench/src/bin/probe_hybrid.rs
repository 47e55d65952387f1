//! Diagnostic: message-mix breakdown for one hybrid run (developer tool).

use std::sync::Arc;
use streamline_bench::experiments::{case_config, dataset_for, SweepScale, Workload};
use streamline_core::{build_procs, Algorithm, AnyProc};
use streamline_desim::Simulation;
use streamline_field::dataset::Seeding;
use streamline_iosim::{BlockStore, MemoryStore};

fn main() {
    let procs_n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let seeds_n: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let workload = Workload::Astro;
    let seeding = Seeding::Sparse;
    let dataset = dataset_for(workload, SweepScale::Full);
    let seeds = dataset.seeds_with_count(seeding, seeds_n);
    let cfg = case_config(workload, seeding, Algorithm::HybridMasterSlave, procs_n);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let procs = build_procs(&dataset, &seeds, &cfg, store);
    let (report, procs) = Simulation::new(cfg.cost.net, procs).run();
    let mut handoffs = 0;
    let mut statuses = 0;
    let mut cmds = [0u64; 5];
    let mut loads = 0;
    let mut purges = 0;
    let (mut lh, mut lm) = (0u64, 0u64);
    for p in &procs {
        match p {
            AnyProc::Slave(s) => {
                handoffs += s.sent_handoffs;
                statuses += s.sent_statuses;
                lh += s.load_cmd_hits;
                lm += s.load_cmd_misses;
                let st = s.core().ws.cache_stats();
                loads += st.loaded;
                purges += st.purged;
            }
            AnyProc::Master(m) => {
                for (c, v) in cmds.iter_mut().zip(m.cmd_counts.iter()) {
                    *c += v;
                }
            }
            _ => {}
        }
    }
    println!(
        "wall={:.3}s events={} msgs_total={}",
        report.wall,
        report.events,
        report.ranks.iter().map(|m| m.msgs_sent).sum::<u64>()
    );
    println!("handoffs={handoffs} statuses={statuses}");
    println!(
        "cmds: assign={} force={} hint={} load={} term={}",
        cmds[0], cmds[1], cmds[2], cmds[3], cmds[4]
    );
    println!("block loads={loads} purges={purges} load_cmd_hits={lh} load_cmd_misses={lm}");
    let (io, comm, compute) = report.totals();
    println!(
        "io={io:.2}s comm={comm:.2}s compute={compute:.2}s idle={:.2}s",
        report.total(|m| m.idle)
    );
}
