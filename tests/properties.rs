//! Cross-crate property-based tests: invariants that must hold for arbitrary
//! problems, not just the curated datasets.

use proptest::prelude::*;
use std::sync::Arc;
use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig, RunOutput, StealParams};
use streamline_repro::field::analytic::{AbcFlow, Uniform, VectorField};
use streamline_repro::field::dataset::{Dataset, DatasetConfig};
use streamline_repro::field::decomp::BlockDecomposition;
use streamline_repro::field::sample::SamplingMode;
use streamline_repro::field::seeds::SeedSet;
use streamline_repro::integrate::StreamlineStatus;
use streamline_repro::iosim::{BlockStore, ChaosParams, FaultPlan, FaultStore, MemoryStore};
use streamline_repro::math::{Aabb, Vec3};

/// A throwaway dataset over the unit cube with an arbitrary constant field
/// direction, 2×2×2 blocks.
fn uniform_dataset(dir: Vec3) -> Dataset {
    let cfg =
        DatasetConfig { blocks_per_axis: [2, 2, 2], cells_per_block: [4, 4, 4], ghost: 1, seed: 1 };
    Dataset::custom(
        "prop-uniform",
        BlockDecomposition::new(Aabb::unit(), cfg.blocks_per_axis, cfg.cells_per_block, cfg.ghost),
        Arc::new(Uniform(dir)),
        SamplingMode::Direct,
        cfg,
    )
}

fn abc_dataset() -> Dataset {
    let cfg =
        DatasetConfig { blocks_per_axis: [2, 2, 2], cells_per_block: [4, 4, 4], ghost: 1, seed: 1 };
    let domain = Aabb::new(Vec3::ZERO, Vec3::splat(std::f64::consts::TAU));
    Dataset::custom(
        "prop-abc",
        BlockDecomposition::new(domain, cfg.blocks_per_axis, cfg.cells_per_block, cfg.ghost),
        Arc::new(AbcFlow::classic()),
        SamplingMode::Direct,
        cfg,
    )
}

fn seed_set(dataset: &Dataset, raw: &[(f64, f64, f64)]) -> SeedSet {
    let b = dataset.decomp.domain.expanded(-1e-3);
    SeedSet {
        label: "prop".into(),
        points: raw.iter().map(|&(x, y, z)| b.from_unit(Vec3::new(x, y, z))).collect(),
    }
}

fn base_cfg(algo: Algorithm, procs: usize) -> RunConfig {
    let mut cfg = RunConfig::new(algo, procs);
    cfg.limits.max_steps = 150;
    cfg.memory = MemoryBudget::unlimited();
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every seed terminates exactly once, under any algorithm, any field
    /// direction, any rank count.
    #[test]
    fn no_streamline_lost_or_duplicated(
        dx in -1.0f64..1.0,
        dy in -1.0f64..1.0,
        dz in -1.0f64..1.0,
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..40),
        procs in 1usize..6,
        algo_idx in 0usize..4,
    ) {
        let dir = Vec3::new(dx, dy, dz);
        prop_assume!(dir.norm() > 1e-3);
        let algo = Algorithm::ALL[algo_idx];
        prop_assume!(!(algo == Algorithm::HybridMasterSlave && procs < 2));
        let ds = uniform_dataset(dir);
        let seeds = seed_set(&ds, &raw);
        let RunOutput { report, finished, .. } =
            Run::new(&ds, &base_cfg(algo, procs), &seeds).go().unwrap();
        prop_assert!(report.outcome.completed());
        prop_assert_eq!(report.terminated as usize, raw.len());
        prop_assert_eq!(finished.len(), raw.len());
        // Ids unique and complete.
        let mut ids: Vec<u32> = finished.iter().map(|s| s.id.0).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), raw.len());
    }

    /// In a uniform field every streamline is a straight line: the final
    /// position must lie along the seed + t*dir ray and outside the domain.
    #[test]
    fn uniform_field_gives_straight_exits(
        raw in prop::collection::vec((0.05f64..0.95, 0.05f64..0.95, 0.05f64..0.95), 1..20),
    ) {
        let dir = Vec3::new(1.0, 0.25, -0.5);
        let ds = uniform_dataset(dir);
        let seeds = seed_set(&ds, &raw);
        let mut cfg = base_cfg(Algorithm::LoadOnDemand, 2);
        cfg.limits.max_steps = 100_000;
        let RunOutput { report, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        prop_assert!(report.outcome.completed());
        for (s, &(x, y, z)) in finished.iter().zip(raw.iter()) {
            let seed = ds.decomp.domain.expanded(-1e-3).from_unit(Vec3::new(x, y, z));
            let d = s.state.position - seed;
            // Collinear with dir (cross product ~ 0) — interpolation of a
            // constant field is exact, integration of a constant is exact.
            prop_assert!(d.cross(dir).norm() < 1e-6 * d.norm().max(1.0));
            // Exited through a face.
            prop_assert!(!ds.decomp.domain.contains_eps(s.state.position, -1e-9));
        }
    }

    /// Simulated runs are a pure function of their inputs (any algorithm,
    /// chaotic field, arbitrary seeds).
    #[test]
    fn simulation_is_deterministic(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..24),
        algo_idx in 0usize..4,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let ds = abc_dataset();
        let seeds = seed_set(&ds, &raw);
        let cfg = base_cfg(algo, 4);
        let RunOutput { report: r1, finished: f1, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        let RunOutput { report: r2, finished: f2, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
        prop_assert_eq!(r1.wall, r2.wall);
        prop_assert_eq!(r1.msgs, r2.msgs);
        prop_assert_eq!(r1.total_steps, r2.total_steps);
        for (a, b) in f1.iter().zip(f2.iter()) {
            prop_assert_eq!(a.state.position, b.state.position);
            prop_assert_eq!(a.state.steps, b.state.steps);
        }
    }

    /// Total integration work is invariant across algorithms.
    #[test]
    fn total_steps_invariant_across_algorithms(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 4..24),
    ) {
        let ds = abc_dataset();
        let seeds = seed_set(&ds, &raw);
        let mut totals = Vec::new();
        for algo in Algorithm::ALL {
            let report = Run::new(&ds, &base_cfg(algo, 4), &seeds).go().unwrap().report;
            prop_assert!(report.outcome.completed());
            totals.push(report.total_steps);
        }
        prop_assert_eq!(totals[0], totals[1]);
        prop_assert_eq!(totals[0], totals[2]);
        prop_assert_eq!(totals[0], totals[3]);
    }

    /// The decentralized work-stealing driver never deadlocks and conserves
    /// work exactly: for any seed placement, lifeline/diffusion/batch knobs
    /// and injected fault plan, the simulation drains with every streamline
    /// terminal — work created equals work retired, nothing lost to an
    /// un-passed termination token or a streamline parked forever.
    #[test]
    fn steal_driver_never_deadlocks_and_conserves_work(
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..32),
        procs in 1usize..9,
        neighbor_degree in 1usize..5,
        diffusion_period in 1e-4f64..1e-1,
        steal_batch in 1usize..12,
        fault_seed in 0u64..1024,
        inject in prop::bool::ANY,
    ) {
        let ds = abc_dataset();
        let seeds = seed_set(&ds, &raw);
        let mut cfg = base_cfg(Algorithm::WorkStealing, procs);
        cfg.steal = StealParams { neighbor_degree, diffusion_period, steal_batch };
        prop_assert!(cfg.steal.validate().is_ok());
        let store: Arc<dyn BlockStore> = if inject {
            let plan = FaultPlan::random(fault_seed, ds.decomp.num_blocks(), &ChaosParams::default())
                .expect("default chaos params are valid");
            Arc::new(FaultStore::new(Arc::new(MemoryStore::build(&ds)), plan))
        } else {
            Arc::new(MemoryStore::build(&ds))
        };
        let RunOutput { report, finished, .. } =
            Run::new(&ds, &cfg, &seeds).store(store).go().unwrap();
        // The event queue drained and the Safra wave fired — a deadlocked
        // ring would instead trip the simulator's livelock guard.
        prop_assert!(report.outcome.completed(), "{}", report.summary());
        // Work conservation: every created streamline retired exactly once,
        // even the ones a fault plan cost (they retire as BlockUnavailable
        // on whichever rank held them — there is no master pool to prune).
        prop_assert_eq!(report.terminated as usize, raw.len());
        prop_assert_eq!(finished.len(), raw.len());
        let mut ids: Vec<u32> = finished.iter().map(|s| s.id.0).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), raw.len());
        for s in &finished {
            prop_assert!(
                matches!(s.status, StreamlineStatus::Terminated(_)),
                "{:?} not terminal: {:?}", s.id, s.status
            );
        }
    }
}

#[test]
fn abc_dataset_field_is_the_analytic_field_at_nodes() {
    // Sanity for the property harness itself: sampled blocks reproduce the
    // analytic field to f32 precision at node points.
    let ds = abc_dataset();
    let block = ds.build_block(streamline_repro::field::BlockId(3));
    let f = AbcFlow::classic();
    let c = block.bounds.center();
    let v = block.sample(c).unwrap();
    assert!(v.distance(f.eval(c)) < 1e-3, "sampled {v:?} vs analytic {:?}", f.eval(c));
}
