//! Workload and sweep definitions mirroring §5 of the paper.
//!
//! Every figure is one (dataset, seeding) pair measured for all three
//! algorithms across processor counts. The in-memory grids are scaled down
//! (512 blocks of 16³ cells instead of 1M cells); the cost models charge
//! paper-scale I/O, communication and per-step compute, so the *relative*
//! behaviour — who wins, by what factor, where the crossovers sit — is what
//! the simulation reproduces.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamline_core::{Algorithm, Run, RunConfig, RunReport};
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_integrate::StepLimits;
use streamline_iosim::{BlockStore, MemoryStore};

/// The three application problems of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    Astro,
    Fusion,
    Thermal,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Astro, Workload::Fusion, Workload::Thermal];

    pub fn label(self) -> &'static str {
        match self {
            Workload::Astro => "astrophysics",
            Workload::Fusion => "fusion",
            Workload::Thermal => "thermal-hydraulics",
        }
    }
}

/// Full scale (paper seed counts, 64–512 ranks) vs quick scale (reduced, for
/// tests and Criterion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScale {
    Full,
    Quick,
}

/// The dataset for one workload at the paper's 512-block topology.
pub fn dataset_for(workload: Workload, scale: SweepScale) -> Dataset {
    let cfg = match scale {
        SweepScale::Full => DatasetConfig {
            blocks_per_axis: [8, 8, 8],
            cells_per_block: [16, 16, 16],
            ghost: 1,
            seed: 42,
        },
        SweepScale::Quick => DatasetConfig {
            blocks_per_axis: [4, 4, 4],
            cells_per_block: [8, 8, 8],
            ghost: 1,
            seed: 42,
        },
    };
    match workload {
        Workload::Astro => Dataset::astrophysics(cfg),
        Workload::Fusion => Dataset::fusion(cfg),
        Workload::Thermal => Dataset::thermal_hydraulics(cfg),
    }
}

/// Integration limits per workload/seeding (§3.2's scenarios; thermal-dense
/// uses the paper's "only integrated the streamlines a short distance").
pub fn limits_for(workload: Workload, seeding: Seeding) -> StepLimits {
    let mut l = StepLimits::default();
    match workload {
        Workload::Astro => {
            l.h0 = 1e-3;
            l.h_max = 0.02;
            // Long integrations: the curves wind through the shock region for
            // thousands of steps, so hand-offs carry substantial geometry
            // (§8: geometry dominates communication cost).
            l.max_steps = 2_500;
            l.min_speed = 1e-4;
        }
        Workload::Fusion => {
            l.h0 = 1e-2;
            l.h_max = 0.08;
            l.max_steps = 1_500;
            l.min_speed = 1e-4;
        }
        Workload::Thermal => {
            l.h0 = 1e-3;
            l.h_max = 0.01;
            l.min_speed = 1e-4;
            match seeding {
                Seeding::Sparse => {
                    l.max_steps = 1_000;
                    l.max_arc_length = 10.0;
                }
                Seeding::Dense => {
                    // Short-distance integration in the turbulent inlet jet.
                    l.max_steps = 2_500;
                    l.max_arc_length = 3.0;
                }
            }
        }
    }
    l
}

/// Run configuration for one (workload, algorithm, rank-count) cell.
pub fn case_config(
    workload: Workload,
    seeding: Seeding,
    algorithm: Algorithm,
    n_procs: usize,
) -> RunConfig {
    let mut cfg = RunConfig::new(algorithm, n_procs);
    cfg.limits = limits_for(workload, seeding);
    // 64 cached blocks ≈ 768 MB of block data per rank under the 12 MB/block
    // paper-scale cost model — the working set of a toroidally circulating
    // dense seed set fits (§5.2), a domain-filling sparse one does not.
    cfg.cache_blocks = 64;
    cfg
}

/// One measured sweep cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseResult {
    pub workload: Workload,
    pub seeding: String,
    pub report: RunReport,
}

/// Measure all three algorithms at each processor count for one
/// (workload, seeding) problem. The block store is shared across runs (the
/// sampled field data is identical; each run still *charges* its own I/O).
pub fn run_sweep(
    workload: Workload,
    seeding: Seeding,
    scale: SweepScale,
    procs: &[usize],
    seed_count: Option<usize>,
) -> Vec<CaseResult> {
    let dataset = dataset_for(workload, scale);
    let n_seeds = seed_count.unwrap_or_else(|| match scale {
        SweepScale::Full => dataset.paper_seed_count(seeding),
        SweepScale::Quick => dataset.paper_seed_count(seeding) / 20,
    });
    let seeds = dataset.seeds_with_count(seeding, n_seeds);
    let store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
    let mut out = Vec::new();
    for &p in procs {
        for algo in Algorithm::ALL {
            let cfg = case_config(workload, seeding, algo, p);
            let report =
                Run::new(&dataset, &cfg, &seeds).store(Arc::clone(&store)).go().unwrap().report;
            out.push(CaseResult { workload, seeding: seeding.label().to_string(), report });
        }
    }
    out
}

/// The paper's processor counts.
pub fn paper_proc_counts() -> Vec<usize> {
    vec![64, 128, 256, 512]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_completes_for_every_workload() {
        for w in Workload::ALL {
            let results = run_sweep(w, Seeding::Sparse, SweepScale::Quick, &[4], Some(40));
            assert_eq!(results.len(), 4, "{w:?}");
            for r in &results {
                // Thermal-dense static OOM is the only sanctioned failure;
                // sparse quick cases must complete.
                assert!(r.report.outcome.completed(), "{w:?} {}", r.report.summary());
                assert_eq!(r.report.terminated, 40, "{w:?} {}", r.report.summary());
            }
        }
    }

    #[test]
    fn limits_differ_between_thermal_seedings() {
        let s = limits_for(Workload::Thermal, Seeding::Sparse);
        let d = limits_for(Workload::Thermal, Seeding::Dense);
        assert!(d.max_arc_length < s.max_arc_length);
    }
}
