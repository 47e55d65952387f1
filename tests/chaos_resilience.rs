//! Acceptance: all four scheduling drivers (the paper's three plus the
//! decentralized work-stealing driver) degrade gracefully under injected
//! block faults. A transient-only plan must be invisible in the results
//! (retries absorb it); permanent faults must terminate the affected
//! streamlines with a typed `BlockUnavailable` while every untouched
//! streamline stays bit-identical to the fault-free run.

use std::sync::Arc;
use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig, RunOutput};
use streamline_repro::field::block::BlockId;
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::{Streamline, StreamlineStatus, Termination};
use streamline_repro::iosim::{BlockStore, FaultPlan, FaultStore, MemoryStore};

fn dataset() -> Dataset {
    Dataset::thermal_hydraulics(DatasetConfig::tiny())
}

fn cfg(algo: Algorithm) -> RunConfig {
    let mut cfg = RunConfig::new(algo, 4);
    cfg.limits.max_steps = 300;
    cfg.memory = MemoryBudget::unlimited();
    cfg
}

fn assert_same_streamline(got: &Streamline, want: &Streamline, ctx: &str) {
    assert_eq!(got.id, want.id, "{ctx}: id");
    assert_eq!(got.status, want.status, "{ctx}: status of {:?}", got.id);
    assert_eq!(got.state.position, want.state.position, "{ctx}: position of {:?}", got.id);
    assert_eq!(got.geometry, want.geometry, "{ctx}: geometry of {:?}", got.id);
}

fn unavailable(sl: &Streamline) -> bool {
    sl.status == StreamlineStatus::Terminated(Termination::BlockUnavailable)
}

/// Transient faults that clear inside the workspace retry budget (3
/// attempts) change nothing observable: same terminations, same steps,
/// bit-identical curves — only the retry counters show the turbulence.
#[test]
fn transient_faults_are_invisible_to_every_driver() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 48);
    let n_blocks = ds.decomp.num_blocks();
    let mut plan = FaultPlan::new();
    for i in (0..n_blocks).step_by(2) {
        plan = plan.transient(BlockId(i as u32), 1 + (i as u32 % 2));
    }
    for algo in Algorithm::ALL {
        let cfg = cfg(algo);
        let clean_store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let RunOutput { report: clean, finished: clean_sl, .. } =
            Run::new(&ds, &cfg, &seeds).store(clean_store).go().unwrap();
        let fs = Arc::new(FaultStore::new(Arc::new(MemoryStore::build(&ds)), plan.clone()));
        let store: Arc<dyn BlockStore> = Arc::clone(&fs) as Arc<dyn BlockStore>;
        let RunOutput { report: faulted, finished: faulted_sl, .. } =
            Run::new(&ds, &cfg, &seeds).store(store).go().unwrap();

        assert_eq!(faulted.terminated, clean.terminated, "{algo:?}");
        assert_eq!(faulted.total_steps, clean.total_steps, "{algo:?}");
        assert_eq!(faulted.load_failures, 0, "{algo:?}: transient faults must clear");
        assert_eq!(faulted.unavailable_terminations, 0, "{algo:?}");
        assert!(faulted.load_retries > 0, "{algo:?}: the plan was never exercised");
        assert!(fs.counters().io_injected > 0, "{algo:?}");

        assert_eq!(faulted_sl.len(), clean_sl.len(), "{algo:?}");
        for (got, want) in faulted_sl.iter().zip(&clean_sl) {
            assert_same_streamline(got, want, &format!("{algo:?} transient"));
        }
    }
}

/// Permanent faults quarantine blocks; every streamline that needs one
/// terminates `BlockUnavailable` (or is pruned from the hybrid master's
/// pool), every other streamline is bit-identical to the clean run, and
/// all three drivers agree on how many streamlines the plan cost.
#[test]
fn permanent_faults_yield_typed_terminations_in_every_driver() {
    let ds = dataset();
    let seeds = ds.seeds_with_count(Seeding::Sparse, 48);
    let n_seeds = seeds.len() as u64;
    let n_blocks = ds.decomp.num_blocks() as u32;
    let plan = FaultPlan::new().permanent(BlockId(0)).corrupt(BlockId(n_blocks / 2));

    let mut costs = Vec::new();
    for algo in Algorithm::ALL {
        let cfg = cfg(algo);
        let clean_store: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
        let RunOutput { finished: clean_sl, .. } =
            Run::new(&ds, &cfg, &seeds).store(clean_store).go().unwrap();
        let fs = Arc::new(FaultStore::new(Arc::new(MemoryStore::build(&ds)), plan.clone()));
        let store: Arc<dyn BlockStore> = Arc::clone(&fs) as Arc<dyn BlockStore>;
        let RunOutput { report, finished: faulted_sl, .. } =
            Run::new(&ds, &cfg, &seeds).store(store).go().unwrap();

        // The plan actually bit, and the store refused retries exactly.
        assert!(report.unavailable_terminations > 0, "{algo:?}: plan never bit");
        assert!(report.load_failures > 0, "{algo:?}");
        assert!(fs.counters().faults_injected() > 0, "{algo:?}");

        // Every seed is accounted for: finished on a workspace, or pruned
        // from the hybrid master's pool before assignment.
        let finished_unavailable = faulted_sl.iter().filter(|s| unavailable(s)).count() as u64;
        let master_pruned = report.unavailable_terminations - finished_unavailable;
        assert_eq!(faulted_sl.len() as u64, report.terminated, "{algo:?}");
        assert_eq!(report.terminated + master_pruned, n_seeds, "{algo:?}: lost seeds");
        // The masterless driver has no pool to prune from: every toll the
        // plan takes lands on a finished streamline on some rank.
        if algo == Algorithm::WorkStealing {
            assert_eq!(master_pruned, 0, "steal driver pruned from a master it does not have");
        }

        // Untouched streamlines are bit-identical to the fault-free run.
        let mut compared = 0;
        for got in faulted_sl.iter().filter(|s| !unavailable(s)) {
            let want = clean_sl
                .iter()
                .find(|s| s.id == got.id)
                .unwrap_or_else(|| panic!("{algo:?}: {:?} not in clean run", got.id));
            assert_same_streamline(got, want, &format!("{algo:?} permanent"));
            compared += 1;
        }
        assert!(compared > 0, "{algo:?}: every streamline was lost");
        costs.push((algo, report.unavailable_terminations));
    }

    // The plan costs the same streamlines no matter which driver runs it:
    // a trajectory either needs a quarantined block or it does not.
    let (_, first) = costs[0];
    for &(algo, cost) in &costs[1..] {
        assert_eq!(cost, first, "{algo:?} disagrees with {:?} on the toll", costs[0].0);
    }
}
