//! The hot-path integration kernel (FSAL stepping + cell-cached sampling)
//! must be an *exact* optimization: over randomized datasets, seeds and
//! step-size sequences, a streamline advected through the fast path is
//! bit-identical to one advected through the reference path — plain
//! per-call `trilinear` sampling and a no-reuse DOPRI5 that recomputes all
//! seven stages every step. The batched SoA kernel must in turn match the
//! scalar fast path at every batch width.

use std::collections::BTreeMap;
use streamline_repro::core::advance::{advance_batch_in_block, advance_in_block, StreamlineBatch};
use streamline_repro::core::BlockExit;
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::field::sampler::CellSampler;
use streamline_repro::field::BlockId;
use streamline_repro::integrate::ode::Rhs;
use streamline_repro::integrate::tracer::{advect, StepLimits};
use streamline_repro::integrate::{
    Dopri5, StageFail, StepResult, Stepper, Streamline, StreamlineId, Tolerances,
};
use streamline_repro::math::{rng, Vec3};

use rand::Rng;

/// DOPRI5 with FSAL reuse disabled: every step evaluates all seven stages
/// afresh. The no-reuse reference path the fast kernel is checked against.
#[derive(Debug, Clone, Copy, Default)]
struct Dopri5NoReuse;

impl Stepper for Dopri5NoReuse {
    fn step(&self, f: Rhs<'_>, y: Vec3, h: f64, tol: &Tolerances) -> Result<StepResult, StageFail> {
        Dopri5.step(f, y, h, tol)
    }

    // The default `step_fsal` clears the memo and delegates here, so the
    // tracer's speed check cannot reuse stages either — a true baseline.
}

#[test]
fn noreuse_baseline_matches_dopri5() {
    let mut f = |p: Vec3| Some(Vec3::new(p.y, -p.x, 0.1));
    let tol = Tolerances::default();
    let y = Vec3::new(1.0, 0.0, 0.0);
    let a = Dopri5.step(&mut f, y, 0.1, &tol).unwrap();
    let b = Dopri5NoReuse.step(&mut f, y, 0.1, &tol).unwrap();
    assert_eq!(a, b);
}

fn assert_bit_identical(fast: &Streamline, reference: &Streamline, label: &str) {
    assert_eq!(fast.status, reference.status, "{label}: status");
    assert_eq!(fast.state.steps, reference.state.steps, "{label}: step count");
    assert_eq!(
        fast.state.h.to_bits(),
        reference.state.h.to_bits(),
        "{label}: final adaptive step size"
    );
    assert_eq!(fast.geometry.len(), reference.geometry.len(), "{label}: vertex count");
    for (i, (a, b)) in fast.geometry.iter().zip(&reference.geometry).enumerate() {
        assert_eq!(
            [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
            [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
            "{label}: vertex {i} diverged ({a:?} vs {b:?})"
        );
    }
}

/// Advect one seed through one block on both paths and compare.
fn check_block(ds: &Dataset, block_id: BlockId, seed: Vec3, limits: &StepLimits, label: &str) {
    let block = ds.build_block(block_id);
    let bounds = block.bounds;
    let region = move |p: Vec3| bounds.contains(p);

    let mut reference = Streamline::new(StreamlineId(0), seed, limits.h0);
    let mut sample = |p: Vec3| block.sample(p);
    advect(&mut reference, &mut sample, &region, limits, &Dopri5NoReuse);

    let mut fast = Streamline::new(StreamlineId(0), seed, limits.h0);
    let mut sampler = CellSampler::new(&block);
    let mut sample = |p: Vec3| sampler.sample(p);
    advect(&mut fast, &mut sample, &region, limits, &Dopri5);

    assert_bit_identical(&fast, &reference, label);
    assert!(
        sampler.stats().hits > 0 || reference.state.steps == 0,
        "{label}: a multi-stage advection should hit the cached stencil"
    );
}

#[test]
fn fast_path_is_bit_identical_over_random_blocks_and_seeds() {
    let mut r = rng::stream(42, "kernel-bit-identity");
    for (w, make) in [
        ("astro", Dataset::astrophysics as fn(DatasetConfig) -> Dataset),
        ("fusion", Dataset::fusion),
        ("thermal", Dataset::thermal_hydraulics),
    ] {
        let ds = make(DatasetConfig::tiny());
        let n_blocks = ds.decomp.all_blocks().count();
        for trial in 0..12 {
            let block_id = BlockId(r.gen_range(0..n_blocks as u32));
            let bounds = ds.decomp.block_bounds(block_id);
            let seed = rng::point_in_aabb(&mut r, &bounds);
            // Randomized step-size regime: exercises acceptance, rejection
            // and the h_max clamp, all of which FSAL reuse must survive.
            let limits = StepLimits {
                h0: r.gen_range(1e-4..5e-2),
                h_max: r.gen_range(5e-2..0.5),
                max_steps: 500,
                ..Default::default()
            };
            check_block(&ds, block_id, seed, &limits, &format!("{w} trial {trial}"));
        }
    }
}

#[test]
fn fast_path_is_bit_identical_on_dataset_seed_points() {
    // The seeds real runs use (not just random interior points): these
    // start on block faces and in low-speed regions, the awkward cases.
    let ds = Dataset::astrophysics(DatasetConfig::tiny());
    let set = ds.seeds_with_count(Seeding::Sparse, 16);
    let limits = StepLimits { max_steps: 300, ..Default::default() };
    for (i, &seed) in set.points.iter().enumerate() {
        let Some(block_id) = ds.decomp.locate(seed) else { continue };
        check_block(&ds, block_id, seed, &limits, &format!("seed {i}"));
    }
}

/// Dense thermal seeds (the compute-bound regime the batch kernel targets)
/// as fresh streamlines, with the thermal workload's step limits.
fn dense_thermal(n: usize) -> (Dataset, Vec<Streamline>, StepLimits) {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let limits = StepLimits { h0: 1e-3, h_max: 0.01, max_steps: 400, ..Default::default() };
    let seeds = ds.seeds_with_count(Seeding::Dense, n).points;
    let lines = seeds
        .iter()
        .enumerate()
        .map(|(i, &p)| Streamline::new(StreamlineId(i as u32), p, limits.h0))
        .collect();
    (ds, lines, limits)
}

/// The batched kernel against the scalar fast path, on dense thermal seeds
/// grouped by block: at widths 1, 4, 16 and 64, every lane must leave its
/// block with the same exit and the same streamline, bit for bit.
#[test]
fn batch_kernel_matches_scalar_at_every_width_on_dense_seeds() {
    let (ds, lines, limits) = dense_thermal(256);
    let mut groups: BTreeMap<BlockId, Vec<Streamline>> = BTreeMap::new();
    for sl in lines {
        let id = ds.decomp.locate(sl.state.position).expect("dense seeds lie in the domain");
        groups.entry(id).or_default().push(sl);
    }
    assert!(groups.values().any(|g| g.len() >= 64), "some block must fill a 64-lane batch");

    let mut scratch = StreamlineBatch::new();
    for (&id, group) in &groups {
        let block = ds.build_block(id);
        let mut scalar = group.clone();
        let scalar_exits: Vec<BlockExit> = scalar
            .iter_mut()
            .map(|sl| advance_in_block(sl, &block, &ds.decomp, &limits, &Dopri5).0)
            .collect();
        for width in [1, 4, 16, 64] {
            let mut batched = group.clone();
            let mut exits = Vec::new();
            for chunk in batched.chunks_mut(width) {
                exits.extend(
                    advance_batch_in_block(chunk, &block, &ds.decomp, &limits, &mut scratch).0,
                );
            }
            assert_eq!(exits, scalar_exits, "{id:?} width {width}: block exits");
            for (got, want) in batched.iter().zip(&scalar) {
                assert_bit_identical(got, want, &format!("{id:?} width {width} {:?}", got.id));
            }
        }
    }
}
