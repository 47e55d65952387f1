//! The block-local advance step shared by every execution engine.
//!
//! The `streamline-serve` query service and the scalar oracle of this
//! crate's bit-identity tests (`Workspace::advance_in`) both advance a
//! streamline through one resident block with *exactly* this function, and
//! the simulated-cluster ranks' batch kernel is bit-identical to it, so a
//! streamline computed by the service is bit-identical to one computed by
//! the single-shot drivers: same stepper, same limits, same shared-face
//! nudge, same termination decisions.
//!
//! [`advance_batch_in_block`] is the batched (SoA) counterpart: it advances
//! a whole group of streamlines through one block with the stage-major
//! kernel in [`streamline_integrate::batch`], one [`CellSampler`] and one
//! FSAL memo per lane, and resolves each lane's exit with the identical
//! shared-face nudge — bit-identical per streamline to the scalar path,
//! stencil counters included.

use crate::workspace::BlockExit;
use streamline_field::block::Block;
use streamline_field::decomp::BlockDecomposition;
use streamline_field::group::GroupSampler;
use streamline_field::sampler::CellSampler;
use streamline_integrate::batch::advect_batch_rounds;
use streamline_integrate::tracer::{advect, AdvectOutcome};
use streamline_integrate::{Dopri5, StepLimits, Streamline, Termination};

pub use streamline_integrate::batch::StreamlineBatch;

/// Work accounting for one [`advance_in_block`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Accepted integration steps.
    pub steps: u64,
    /// Field evaluations served from the cell sampler's cached stencil.
    pub sampler_hits: u64,
    /// Field evaluations that gathered a fresh 8-corner stencil.
    pub sampler_misses: u64,
    /// Streamlines advanced through the batch kernel by this call (0 for
    /// the scalar path, the lane count for [`advance_batch_in_block`]).
    pub batched_lanes: u64,
}

/// Resolve a streamline's exit after the tracer returned: decide which
/// block owns it next, nudging off a shared face through `sample` (the
/// call's stencil-cached sampler — scalar or one group lane) when the
/// integrator stopped exactly on one. Shared verbatim by the scalar and
/// batched paths so their nudge decisions (and stencil counters) cannot
/// diverge.
fn resolve_exit(
    sl: &mut Streamline,
    outcome: AdvectOutcome,
    id: streamline_field::block::BlockId,
    decomp: &BlockDecomposition,
    sample: &mut dyn FnMut(streamline_math::Vec3) -> Option<streamline_math::Vec3>,
) -> BlockExit {
    match outcome {
        AdvectOutcome::Terminated(t) => BlockExit::Done(t),
        AdvectOutcome::LeftRegion => {
            let pos = sl.state.position;
            match decomp.locate(pos) {
                Some(next) if next != id => BlockExit::MovedTo(next),
                Some(_) => {
                    // Numerically on the shared face: nudge along the
                    // local velocity so ownership is unambiguous. The
                    // sample goes through the call's cell sampler, reusing
                    // the stencil the tracer just warmed and keeping the
                    // evaluation in the hit/miss totals.
                    let scale = decomp.domain.size().max_abs_component();
                    if let Some(dir) = sample(pos).and_then(|v| v.normalized()) {
                        sl.state.position = pos + dir * (1e-9 * scale);
                    }
                    match decomp.locate(sl.state.position) {
                        Some(next) if next != id => BlockExit::MovedTo(next),
                        Some(_) => {
                            sl.terminate(Termination::StepUnderflow);
                            BlockExit::Done(Termination::StepUnderflow)
                        }
                        None => {
                            sl.terminate(Termination::ExitedDomain);
                            BlockExit::Done(Termination::ExitedDomain)
                        }
                    }
                }
                None => {
                    sl.terminate(Termination::ExitedDomain);
                    BlockExit::Done(Termination::ExitedDomain)
                }
            }
        }
    }
}

/// Advance `sl` inside `block` until it exits the block or terminates,
/// then resolve which block owns it next. Returns the exit disposition and
/// the work performed ([`AdvanceStats`]).
///
/// Field evaluations go through a [`CellSampler`] scoped to this call —
/// bit-identical to `block.sample` but skipping the 8-corner gather when
/// consecutive evaluations land in the same cell.
///
/// When the integrator stops exactly on a shared block face, the position
/// is nudged along the local velocity by `1e-9` of the domain scale so
/// ownership is unambiguous; a streamline that cannot leave the face even
/// after the nudge is terminated with [`Termination::StepUnderflow`].
pub fn advance_in_block(
    sl: &mut Streamline,
    block: &Block,
    decomp: &BlockDecomposition,
    limits: &StepLimits,
    stepper: &Dopri5,
) -> (BlockExit, AdvanceStats) {
    let id = block.id;
    let bounds = block.bounds;
    let mut sampler = CellSampler::new(block);
    let r = {
        let mut sample = |p| sampler.sample(p);
        let region = move |p| bounds.contains(p);
        advect(sl, &mut sample, &region, limits, stepper)
    };
    let exit = {
        let mut nudge = |p| sampler.sample(p);
        resolve_exit(sl, r.outcome, id, decomp, &mut nudge)
    };
    let sampler_stats = sampler.stats();
    (
        exit,
        AdvanceStats {
            steps: r.steps,
            sampler_hits: sampler_stats.hits,
            sampler_misses: sampler_stats.misses,
            batched_lanes: 0,
        },
    )
}

/// Advance every streamline of `group` inside `block` until each exits the
/// block or terminates, using the batched stage-major kernel with one
/// [`GroupSampler`] lane (a SIMD-laid stencil cache) and one FSAL memo per
/// lane. Returns one [`BlockExit`] per lane (input order) and the summed
/// work.
///
/// Bit-identical per streamline to calling [`advance_in_block`] on each
/// lane in isolation: per-lane adaptive step control makes the same
/// stepper decisions, the per-lane sampler caches see the same evaluation
/// sequence (so the hit/miss totals are the scalar sums), and the exit
/// resolution — shared-face nudge included — is the same code.
pub fn advance_batch_in_block(
    group: &mut [Streamline],
    block: &Block,
    decomp: &BlockDecomposition,
    limits: &StepLimits,
    batch: &mut StreamlineBatch,
) -> (Vec<BlockExit>, AdvanceStats) {
    let (exits, stats) =
        advance_batch_in_block_rounds(group, block, decomp, limits, batch, u64::MAX);
    (exits.into_iter().map(|e| e.expect("uncapped advance resolves every lane")).collect(), stats)
}

/// [`advance_batch_in_block`] with a round budget: lanes whose in-block fate
/// is still undecided after `max_rounds` accepted steps report `None`
/// instead of a [`BlockExit`]. A `None` lane is mid-flight inside `block`;
/// re-advancing it later — alone or batched with other lanes — continues
/// bit-identically (the round boundary is an accepted-step boundary and the
/// per-lane caches are value-transparent, merely cold after re-entry).
/// Schedulers use the cap to re-pack batches whose occupancy has decayed:
/// survivors merge with newly arrived streamlines instead of draining a
/// nearly-empty batch to the last straggler.
pub fn advance_batch_in_block_rounds(
    group: &mut [Streamline],
    block: &Block,
    decomp: &BlockDecomposition,
    limits: &StepLimits,
    batch: &mut StreamlineBatch,
    max_rounds: u64,
) -> (Vec<Option<BlockExit>>, AdvanceStats) {
    let id = block.id;
    let bounds = block.bounds;
    let mut sampler = GroupSampler::new(block, group.len());
    let r = {
        let region = move |p| bounds.contains(p);
        advect_batch_rounds(group, batch, &mut sampler, &region, limits, max_rounds)
    };
    let mut exits = Vec::with_capacity(group.len());
    for (lane, (sl, &outcome)) in group.iter_mut().zip(&r.outcomes).enumerate() {
        let mut nudge = |p| sampler.sample_lane(lane, p);
        exits.push(outcome.map(|o| resolve_exit(sl, o, id, decomp, &mut nudge)));
    }
    let totals = sampler.stats();
    (
        exits,
        AdvanceStats {
            steps: r.steps,
            sampler_hits: totals.hits,
            sampler_misses: totals.misses,
            batched_lanes: group.len() as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::uniform_x_dataset;
    use streamline_integrate::{StreamlineId, StreamlineStatus};
    use streamline_math::Vec3;

    #[test]
    fn crosses_block_face_in_uniform_flow() {
        let ds = uniform_x_dataset();
        let seed = Vec3::new(0.25, 0.25, 0.25);
        let start = ds.decomp.locate(seed).unwrap();
        let block = ds.build_block(start);
        let mut sl = Streamline::new(StreamlineId(0), seed, 1e-2);
        let (exit, stats) =
            advance_in_block(&mut sl, &block, &ds.decomp, &StepLimits::default(), &Dopri5);
        assert!(stats.steps > 0);
        assert!(
            stats.sampler_hits + stats.sampler_misses > 0,
            "every accepted step samples the field"
        );
        assert!(stats.sampler_hits > 0, "RK stages revisiting a cell must hit the stencil cache");
        assert_eq!(stats.batched_lanes, 0, "the scalar path batches nothing");
        match exit {
            BlockExit::MovedTo(next) => assert_ne!(next, start),
            other => panic!("expected a block crossing, got {other:?}"),
        }
    }

    #[test]
    fn terminates_leaving_the_domain() {
        let ds = uniform_x_dataset();
        let seed = Vec3::new(0.75, 0.25, 0.25);
        let start = ds.decomp.locate(seed).unwrap();
        let block = ds.build_block(start);
        let mut sl = Streamline::new(StreamlineId(0), seed, 1e-2);
        let (exit, _) =
            advance_in_block(&mut sl, &block, &ds.decomp, &StepLimits::default(), &Dopri5);
        assert_eq!(exit, BlockExit::Done(Termination::ExitedDomain));
        assert_eq!(sl.status, StreamlineStatus::Terminated(Termination::ExitedDomain));
    }

    /// The shared-face nudge samples through the call's `CellSampler`, so
    /// the extra field evaluation shows up in the hit/miss totals. Pinned:
    /// a position a hair past the domain's upper face is outside the block
    /// bounds (`LeftRegion` before any step) but within `locate`'s
    /// tolerance, which maps it back to the same block — the nudge fires on
    /// a cold sampler and must count exactly one stencil gather.
    #[test]
    fn face_nudge_is_counted_by_the_cell_sampler() {
        let ds = uniform_x_dataset();
        // Upper-x boundary block; its bounds end at the domain face x = 1.
        let pos = Vec3::new(1.0 + 1e-13, 0.75, 0.75);
        let id = ds.decomp.locate(pos).expect("within locate tolerance");
        let block = ds.build_block(id);
        assert!(!block.bounds.contains(pos), "outside the block core bounds");
        let mut sl = Streamline::new(StreamlineId(0), pos, 1e-2);
        let (exit, stats) =
            advance_in_block(&mut sl, &block, &ds.decomp, &StepLimits::default(), &Dopri5);
        // The +x field pushes the nudge out of the domain.
        assert_eq!(exit, BlockExit::Done(Termination::ExitedDomain));
        assert_eq!(stats.steps, 0, "no integration happened");
        assert_eq!(
            stats,
            AdvanceStats { steps: 0, sampler_hits: 0, sampler_misses: 1, batched_lanes: 0 },
            "the nudge's field evaluation must be a counted stencil gather"
        );
    }

    /// Bit-identity of the batched path against the scalar path on real
    /// block data, counters included.
    #[test]
    fn batch_matches_scalar_in_block_bitwise() {
        let ds = uniform_x_dataset();
        let seeds: Vec<Vec3> = vec![
            Vec3::new(0.05, 0.25, 0.25),
            Vec3::new(0.25, 0.30, 0.40),
            Vec3::new(0.45, 0.10, 0.20),
            Vec3::new(0.10, 0.45, 0.45),
            Vec3::new(0.30, 0.05, 0.35),
        ];
        let start = ds.decomp.locate(seeds[0]).unwrap();
        let block = ds.build_block(start);
        let limits = StepLimits::default();

        let mut scalar: Vec<Streamline> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| Streamline::new(StreamlineId(i as u32), s, limits.h0))
            .collect();
        let mut scalar_exits = Vec::new();
        let mut scalar_stats = AdvanceStats::default();
        for sl in &mut scalar {
            let (exit, stats) = advance_in_block(sl, &block, &ds.decomp, &limits, &Dopri5);
            scalar_exits.push(exit);
            scalar_stats.steps += stats.steps;
            scalar_stats.sampler_hits += stats.sampler_hits;
            scalar_stats.sampler_misses += stats.sampler_misses;
        }

        let mut batched: Vec<Streamline> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| Streamline::new(StreamlineId(i as u32), s, limits.h0))
            .collect();
        let mut scratch = StreamlineBatch::new();
        let (exits, stats) =
            advance_batch_in_block(&mut batched, &block, &ds.decomp, &limits, &mut scratch);

        assert_eq!(exits, scalar_exits);
        assert_eq!(stats.steps, scalar_stats.steps);
        assert_eq!(stats.sampler_hits, scalar_stats.sampler_hits);
        assert_eq!(stats.sampler_misses, scalar_stats.sampler_misses);
        assert_eq!(stats.batched_lanes, seeds.len() as u64);
        for (a, b) in scalar.iter().zip(&batched) {
            assert_eq!(a, b, "lane {:?} diverged from the scalar path", a.id);
        }
    }
}
