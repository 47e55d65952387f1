//! Batched (structure-of-arrays) advection: advance many streamlines
//! through one resident region at once, bit-identical per lane to
//! [`advect`](crate::tracer::advect) with [`Dopri5`](crate::Dopri5).
//!
//! # Why batching helps
//!
//! The scalar tracer pays three virtual dispatches per field evaluation
//! (`&mut dyn FnMut` sample, `&dyn Fn` region, `&dyn Stepper` step) and its
//! RK stages form one serial dependency chain. [`advect_batch`] is fully
//! monomorphic over the sample/region closures and runs the shared first
//! step attempt *stage-major*: every lane evaluates stage `s` before any
//! lane evaluates stage `s + 1`, so the per-stage axpy/interpolation
//! arithmetic is a tight loop over independent dependency chains the CPU
//! can overlap (and the compiler can vectorize).
//!
//! # Why it is exact
//!
//! Step-size control is *per lane*: each lane carries its own adaptive `h`,
//! its own [`FsalCache`], and makes its own accept/reject/shrink decisions
//! with the identical arithmetic, in the identical order, as the scalar
//! tracer (the stage loops in `step_one` are a transcription of
//! [`Dopri5::step_fsal`](crate::Dopri5), and the round structure transcribes
//! the `advect` loop). Lanes never share field values or step decisions —
//! batching only reorders *independent* work across lanes — so every lane's
//! trajectory, termination and sample sequence is bit-for-bit what the
//! scalar path produces. Lanes whose shared attempt is rejected or hits a
//! stage failure fall back to the scalar retry loop verbatim.
//!
//! The engine is specific to DOPRI5, the one stepper every driver and the
//! query service use.

use crate::dopri5::tableau;
use crate::ode::{FsalCache, StageFail, StepResult, Tolerances};
use crate::streamline::{Streamline, Termination};
use crate::tracer::{AdvectOutcome, StepLimits};
use streamline_field::group::{GroupSampler, GROUP_WIDTH};
use streamline_math::float::clamp;
use streamline_math::Vec3;

const W: usize = GROUP_WIDTH;

/// Chunks whose live mask has decayed to this many lanes or fewer step
/// per-lane: below it the row kernel's fixed cost loses to the scalar
/// stepper (see the batch-1 point of the bench curve).
const THIN_CHUNK_LANES: u32 = 3;

/// Field evaluation for the batch kernel: per-lane samples for the scalar
/// continuations (pre-step checks, step-control retries) and a whole-chunk
/// row evaluation the implementation may vectorize.
///
/// Any `FnMut(usize, Vec3) -> Option<Vec3>` closure is a `BatchSampler`
/// through the blanket impl (rows then evaluate slot by slot, in ascending
/// order). [`GroupSampler`] is the production implementation: one SIMD-laid
/// stencil cache per lane, bit-identical per lane to the scalar path.
pub trait BatchSampler {
    /// Sample lane `lane`'s field at `p`, `None` outside the resident data.
    fn sample_lane(&mut self, lane: usize, p: Vec3) -> Option<Vec3>;

    /// Evaluate one RK stage for the aligned chunk of lanes `base .. base +
    /// GROUP_WIDTH`: slot `l` of the `pos` / `out` rows is lane `base + l`,
    /// and only slots set in `mask` are sampled. Returns the mask of sampled
    /// slots that had field data, their components written to `out` (slots
    /// outside the returned mask may hold garbage).
    ///
    /// Contract: must behave exactly like calling [`Self::sample_lane`] for
    /// each masked slot in ascending order — same values, same per-lane
    /// state evolution — which is what the default implementation does.
    fn sample_rows(
        &mut self,
        base: usize,
        pos: &[[f64; GROUP_WIDTH]; 3],
        mask: u8,
        out: &mut [[f64; GROUP_WIDTH]; 3],
    ) -> u8 {
        let mut ok = 0u8;
        for slot in 0..GROUP_WIDTH {
            if mask & (1 << slot) != 0 {
                if let Some(v) = self
                    .sample_lane(base + slot, Vec3::new(pos[0][slot], pos[1][slot], pos[2][slot]))
                {
                    out[0][slot] = v.x;
                    out[1][slot] = v.y;
                    out[2][slot] = v.z;
                    ok |= 1 << slot;
                }
            }
        }
        ok
    }
}

impl<F: FnMut(usize, Vec3) -> Option<Vec3>> BatchSampler for F {
    fn sample_lane(&mut self, lane: usize, p: Vec3) -> Option<Vec3> {
        self(lane, p)
    }
}

impl BatchSampler for GroupSampler<'_> {
    fn sample_lane(&mut self, lane: usize, p: Vec3) -> Option<Vec3> {
        GroupSampler::sample_lane(self, lane, p)
    }

    fn sample_rows(
        &mut self,
        base: usize,
        pos: &[[f64; GROUP_WIDTH]; 3],
        mask: u8,
        out: &mut [[f64; GROUP_WIDTH]; 3],
    ) -> u8 {
        GroupSampler::sample_rows(self, base, pos, mask, out)
    }
}

/// Reusable SoA working set for [`advect_batch`]: one slot per lane, one
/// parallel array per field. Holding it outside the call site lets a driver
/// advance thousands of batches without reallocating.
#[derive(Debug, Default)]
pub struct StreamlineBatch {
    /// Step start position per lane.
    pub positions: Vec<Vec3>,
    /// Pre-step velocity per lane (the stagnation-check sample).
    pub velocities: Vec<Vec3>,
    /// Accumulated arc length per lane, gathered for the budget checks.
    pub arc_lengths: Vec<f64>,
    /// Integration time per lane.
    pub times: Vec<f64>,
    /// Accepted-step count per lane.
    pub steps: Vec<u64>,
    /// Clamped attempt step size per lane.
    pub step_sizes: Vec<f64>,
    /// Scaled error norm of the shared attempt per lane.
    pub errors: Vec<f64>,
    /// FSAL memo per lane — carried across rounds exactly like the scalar
    /// tracer carries its cache across loop iterations.
    pub fsal: Vec<FsalCache>,
    /// End position of the shared attempt per lane.
    end_positions: Vec<Vec3>,
    /// Whether the shared attempt hit a stage failure in this lane.
    failed: Vec<bool>,
    /// Active-lane bitmask per GROUP_WIDTH chunk, rebuilt each round.
    live: Vec<u8>,
}

impl StreamlineBatch {
    pub fn new() -> Self {
        StreamlineBatch::default()
    }

    /// Size every parallel array for `n` lanes and reset per-call state.
    fn reset(&mut self, n: usize) {
        self.positions.clear();
        self.positions.resize(n, Vec3::ZERO);
        self.velocities.clear();
        self.velocities.resize(n, Vec3::ZERO);
        self.arc_lengths.clear();
        self.arc_lengths.resize(n, 0.0);
        self.times.clear();
        self.times.resize(n, 0.0);
        self.steps.clear();
        self.steps.resize(n, 0);
        self.step_sizes.clear();
        self.step_sizes.resize(n, 0.0);
        self.errors.clear();
        self.errors.resize(n, 0.0);
        self.fsal.clear();
        self.fsal.resize(n, FsalCache::new());
        self.end_positions.clear();
        self.end_positions.resize(n, Vec3::ZERO);
        self.failed.clear();
        self.failed.resize(n, false);
        self.live.clear();
        self.live.resize(n.div_ceil(W), 0);
    }
}

/// What [`advect_batch`] did: the scalar [`AdvectOutcome`] per lane plus
/// total accepted steps for cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAdvected {
    /// Outcome per lane, in input order.
    pub outcomes: Vec<AdvectOutcome>,
    /// Accepted integration steps summed over all lanes.
    pub steps: u64,
}

/// One DOPRI5 step attempt from `y` with memoized FSAL stages — a
/// monomorphic transcription of [`Dopri5::step_fsal`](crate::Dopri5) used
/// for the per-lane retry continuation. Same stage order, same skipped zero
/// weights, same memo updates: bit-identical results.
fn step_one<F: FnMut(Vec3) -> Option<Vec3>>(
    f: &mut F,
    y: Vec3,
    h: f64,
    tol: &Tolerances,
    fsal: &mut FsalCache,
) -> Result<StepResult, StageFail> {
    let (a, _b5, ew, _c) = tableau();
    let mut k = [Vec3::ZERO; 7];
    k[0] = match fsal.lookup(y) {
        Some(k1) => k1,
        None => f(y).ok_or(StageFail)?,
    };
    fsal.note_start(y, k[0]);
    for s in 1..6 {
        let mut arg = y;
        for (j, kj) in k.iter().enumerate().take(s) {
            let w = a[s][j];
            if w != 0.0 {
                arg += *kj * (w * h);
            }
        }
        k[s] = f(arg).ok_or(StageFail)?;
    }
    let mut y1 = y;
    for (j, kj) in k.iter().enumerate().take(6) {
        let w = a[6][j];
        if w != 0.0 {
            y1 += *kj * (w * h);
        }
    }
    k[6] = f(y1).ok_or(StageFail)?;
    fsal.note_end(y1, k[6]);
    let mut err = Vec3::ZERO;
    for (s, ks) in k.iter().enumerate() {
        if ew[s] != 0.0 {
            err += *ks * (ew[s] * h);
        }
    }
    Ok(StepResult { y: y1, error: tol.error_norm(err, y, y1) })
}

/// Advance every lane of `lanes` with DOPRI5 while `region(position)` holds
/// and `sample(lane, p)` provides field values, exactly like running the
/// scalar [`advect`](crate::tracer::advect) on each lane in isolation.
///
/// `sample` receives the lane index so the caller can thread one stateful
/// sampler per lane (preserving the scalar path's per-streamline stencil
/// cache behaviour, counters included). Lanes that terminate or leave the
/// region are compacted out of the active set; the call returns when every
/// lane has an outcome. Terminated lanes have their status updated, like
/// the scalar tracer.
#[allow(clippy::needless_range_loop)] // index-coupled lane loops are the vectorization shape
pub fn advect_batch<S, R>(
    lanes: &mut [Streamline],
    scratch: &mut StreamlineBatch,
    sample: &mut S,
    region: &R,
    limits: &StepLimits,
) -> BatchAdvected
where
    S: BatchSampler + ?Sized,
    R: Fn(Vec3) -> bool,
{
    let n = lanes.len();
    scratch.reset(n);
    let (a, _b5, ew, _c) = tableau();
    // Every lane leaves `active` exactly once, writing its outcome as it
    // goes, and the loop runs until `active` is empty — so each placeholder
    // is overwritten before the call returns.
    let mut outcomes = vec![AdvectOutcome::LeftRegion; n];
    let mut total_steps = 0u64;
    let mut active: Vec<usize> = (0..n).collect();
    // Phase B row buffers, hoisted so the per-chunk loop never re-zeroes
    // them (stale slots are always overwritten before use or masked out).
    let mut y = [[0.0f64; W]; 3];
    let mut h = [0.0f64; W];
    let mut k = [[[0.0f64; W]; 3]; 7];
    let mut out = [[0.0f64; W]; 3];
    let mut arg: [[f64; W]; 3];
    let mut wh = [0.0f64; W];
    let mut err: [[f64; W]; 3];

    while !active.is_empty() {
        // Phase A — per-lane pre-step checks, in the scalar tracer's order:
        // region, step/arc/time budgets, velocity lookup, stagnation. Lanes
        // with a terminal outcome are compacted out before the shared step.
        active.retain(|&lane| {
            let sl = &mut lanes[lane];
            let pos = sl.state.position;
            if !region(pos) {
                outcomes[lane] = AdvectOutcome::LeftRegion;
                return false;
            }
            scratch.steps[lane] = sl.state.steps;
            scratch.arc_lengths[lane] = sl.state.arc_length;
            scratch.times[lane] = sl.state.time;
            let why = if scratch.steps[lane] >= limits.max_steps {
                Some(Termination::MaxSteps)
            } else if scratch.arc_lengths[lane] >= limits.max_arc_length {
                Some(Termination::MaxArcLength)
            } else if scratch.times[lane] >= limits.max_time {
                Some(Termination::MaxTime)
            } else {
                None
            };
            if let Some(why) = why {
                sl.terminate(why);
                outcomes[lane] = AdvectOutcome::Terminated(why);
                return false;
            }
            let v = match scratch.fsal[lane].lookup(pos) {
                Some(v) => v,
                None => match sample.sample_lane(lane, pos) {
                    Some(v) => v,
                    None => {
                        sl.terminate(Termination::ExitedDomain);
                        outcomes[lane] = AdvectOutcome::Terminated(Termination::ExitedDomain);
                        return false;
                    }
                },
            };
            if v.norm() < limits.min_speed {
                sl.terminate(Termination::ZeroVelocity);
                outcomes[lane] = AdvectOutcome::Terminated(Termination::ZeroVelocity);
                return false;
            }
            scratch.positions[lane] = pos;
            scratch.velocities[lane] = v;
            scratch.step_sizes[lane] = clamp(sl.state.h, limits.h_min, limits.h_max);
            scratch.failed[lane] = false;
            true
        });

        // Phase B — the shared first step attempt, one GROUP_WIDTH chunk of
        // lanes at a time with all step state held in structure-of-arrays
        // rows: the stage arguments, the combination axpys, the fifth-order
        // result and the embedded error are all elementwise row loops the
        // compiler vectorizes across lanes, and each stage is one
        // `sample_rows` call. Per lane this computes the `step_one`
        // arithmetic operation for operation (Vec3 `+=`/`*` are plain
        // componentwise f64 ops, so a row loop over one component is the
        // same op sequence), so results are bit-identical. A lane whose
        // stage evaluation fails drops out of the chunk's live mask (like
        // the `?` early return in the scalar stepper) and retries in
        // Phase C.
        for chunk in scratch.live.iter_mut() {
            *chunk = 0;
        }
        for &lane in &active {
            scratch.live[lane / W] |= 1 << (lane % W);
        }
        for (ci, &live_in) in scratch.live.iter().enumerate() {
            if live_in == 0 {
                continue;
            }
            let base = ci * W;
            // A chunk that has decayed to a lane or two no longer amortizes
            // the fixed per-row cost, so its survivors take the per-lane
            // stepper instead — the same `step_one` the retry path uses, so
            // the bits (and the per-lane sampler cache state) are identical
            // either way; only the wall clock moves.
            if live_in.count_ones() <= THIN_CHUNK_LANES {
                for slot in 0..W {
                    if live_in & (1 << slot) == 0 {
                        continue;
                    }
                    let lane = base + slot;
                    let mut f = |p: Vec3| sample.sample_lane(lane, p);
                    match step_one(
                        &mut f,
                        scratch.positions[lane],
                        scratch.step_sizes[lane],
                        &limits.tol,
                        &mut scratch.fsal[lane],
                    ) {
                        Ok(res) => {
                            scratch.end_positions[lane] = res.y;
                            scratch.errors[lane] = res.error;
                        }
                        Err(StageFail) => scratch.failed[lane] = true,
                    }
                }
                continue;
            }
            // Gather this chunk's step state into rows.
            for slot in 0..W {
                if live_in & (1 << slot) != 0 {
                    let p = scratch.positions[base + slot];
                    y[0][slot] = p.x;
                    y[1][slot] = p.y;
                    y[2][slot] = p.z;
                    h[slot] = scratch.step_sizes[base + slot];
                }
            }
            let mut live = live_in;
            // Stage 1 — FSAL memo per lane, sampling only the misses.
            let mut need = 0u8;
            for slot in 0..W {
                if live & (1 << slot) == 0 {
                    continue;
                }
                let lane = base + slot;
                let yv = scratch.positions[lane];
                match scratch.fsal[lane].lookup(yv) {
                    Some(k1) => {
                        k[0][0][slot] = k1.x;
                        k[0][1][slot] = k1.y;
                        k[0][2][slot] = k1.z;
                        scratch.fsal[lane].note_start(yv, k1);
                    }
                    None => need |= 1 << slot,
                }
            }
            if need != 0 {
                let ok = sample.sample_rows(base, &y, need, &mut out);
                for slot in 0..W {
                    if need & (1 << slot) == 0 {
                        continue;
                    }
                    let lane = base + slot;
                    if ok & (1 << slot) != 0 {
                        let k1 = Vec3::new(out[0][slot], out[1][slot], out[2][slot]);
                        k[0][0][slot] = k1.x;
                        k[0][1][slot] = k1.y;
                        k[0][2][slot] = k1.z;
                        scratch.fsal[lane].note_start(scratch.positions[lane], k1);
                    } else {
                        scratch.failed[lane] = true;
                        live &= !(1 << slot);
                    }
                }
            }
            // Stages 2..6 — row axpy (`arg = y + Σ_j k_j · (a[s][j] · h)`,
            // ascending j, zero weights skipped: step_one's loop), then one
            // masked row evaluation. Failed lanes' k rows are never read.
            for s in 1..6 {
                if live == 0 {
                    break;
                }
                arg = y;
                for (j, kj) in k.iter().enumerate().take(s) {
                    let w = a[s][j];
                    if w != 0.0 {
                        for l in 0..W {
                            wh[l] = w * h[l];
                        }
                        for (argc, kc) in arg.iter_mut().zip(kj) {
                            for l in 0..W {
                                argc[l] += kc[l] * wh[l];
                            }
                        }
                    }
                }
                let ok = sample.sample_rows(base, &arg, live, &mut out);
                for slot in 0..W {
                    if live & !ok & (1 << slot) != 0 {
                        scratch.failed[base + slot] = true;
                    }
                }
                live &= ok;
                k[s] = out;
            }
            if live == 0 {
                continue;
            }
            // Fifth-order combination (reusing `arg` as the y1 rows) and
            // the last stage's evaluation at y1.
            arg = y;
            for (j, kj) in k.iter().enumerate().take(6) {
                let w = a[6][j];
                if w != 0.0 {
                    for l in 0..W {
                        wh[l] = w * h[l];
                    }
                    for (argc, kc) in arg.iter_mut().zip(kj) {
                        for l in 0..W {
                            argc[l] += kc[l] * wh[l];
                        }
                    }
                }
            }
            let ok = sample.sample_rows(base, &arg, live, &mut out);
            for slot in 0..W {
                if live & !ok & (1 << slot) != 0 {
                    scratch.failed[base + slot] = true;
                }
            }
            live &= ok;
            if live == 0 {
                continue;
            }
            k[6] = out;
            // Embedded error rows, then the per-lane scatter: FSAL end memo,
            // end position and the scalar `error_norm` (identical call).
            err = [[0.0f64; W]; 3];
            for (s, ks) in k.iter().enumerate() {
                if ew[s] != 0.0 {
                    let w = ew[s];
                    for l in 0..W {
                        wh[l] = w * h[l];
                    }
                    for (errc, kc) in err.iter_mut().zip(ks) {
                        for l in 0..W {
                            errc[l] += kc[l] * wh[l];
                        }
                    }
                }
            }
            for slot in 0..W {
                if live & (1 << slot) == 0 {
                    continue;
                }
                let lane = base + slot;
                let yv = scratch.positions[lane];
                let y1 = Vec3::new(arg[0][slot], arg[1][slot], arg[2][slot]);
                let k6 = Vec3::new(k[6][0][slot], k[6][1][slot], k[6][2][slot]);
                let ev = Vec3::new(err[0][slot], err[1][slot], err[2][slot]);
                scratch.fsal[lane].note_end(y1, k6);
                scratch.end_positions[lane] = y1;
                scratch.errors[lane] = limits.tol.error_norm(ev, yv, y1);
            }
        }

        // Phase C/D — per-lane step control: the scalar tracer's attempt
        // loop verbatim, seeded with the shared attempt's result, then the
        // accepted-step scatter (push_step + next-h growth) or the Euler
        // edge-step fallback.
        active.retain(|&lane| {
            let pos = scratch.positions[lane];
            let v = scratch.velocities[lane];
            let mut h = scratch.step_sizes[lane];
            let mut attempts = 0;
            let mut pending: Option<Result<StepResult, StageFail>> =
                Some(if scratch.failed[lane] {
                    Err(StageFail)
                } else {
                    Ok(StepResult { y: scratch.end_positions[lane], error: scratch.errors[lane] })
                });
            let accepted = loop {
                let attempt = match pending.take() {
                    Some(r) => r,
                    None => step_one(
                        &mut |p| sample.sample_lane(lane, p),
                        pos,
                        h,
                        &limits.tol,
                        &mut scratch.fsal[lane],
                    ),
                };
                match attempt {
                    Err(StageFail) => {
                        attempts += 1;
                        if attempts > 8 || h <= limits.h_min * 1.0001 {
                            break None;
                        }
                        h *= 0.5;
                    }
                    Ok(res) => {
                        if res.error > 1.0 {
                            attempts += 1;
                            let fac = clamp(0.9 * res.error.powf(-0.2), 0.2, 0.9);
                            h *= fac;
                            if h < limits.h_min {
                                lanes[lane].terminate(Termination::StepUnderflow);
                                outcomes[lane] =
                                    AdvectOutcome::Terminated(Termination::StepUnderflow);
                                return false;
                            }
                            continue;
                        }
                        break Some(res);
                    }
                }
            };
            let sl = &mut lanes[lane];
            match accepted {
                Some(res) => {
                    sl.push_step(res.y, h);
                    total_steps += 1;
                    let err = res.error.max(1e-10);
                    sl.state.h = clamp(
                        h * clamp(0.9 * err.powf(-0.2), 0.2, 5.0),
                        limits.h_min,
                        limits.h_max,
                    );
                }
                None => {
                    // Euler edge-step fallback, with the possibly-halved h
                    // and without touching the stored step size — exactly
                    // the scalar tracer's behaviour.
                    sl.push_step(pos + v * h, h);
                    total_steps += 1;
                }
            }
            true
        });
    }

    BatchAdvected { outcomes, steps: total_steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streamline::StreamlineId;
    use crate::tracer::advect;
    use crate::Dopri5;
    use streamline_math::Aabb;

    fn fresh(i: u32, seed: Vec3) -> Streamline {
        Streamline::new(StreamlineId(i), seed, 1e-2)
    }

    /// Run every lane through the scalar tracer and through one batch call,
    /// asserting bit-identical state, status, geometry and outcome.
    fn assert_batch_matches_scalar(
        seeds: &[Vec3],
        field: impl Fn(Vec3) -> Option<Vec3> + Copy,
        region: impl Fn(Vec3) -> bool + Copy,
        limits: &StepLimits,
    ) {
        let mut scalar: Vec<Streamline> =
            seeds.iter().enumerate().map(|(i, &s)| fresh(i as u32, s)).collect();
        let scalar_outcomes: Vec<AdvectOutcome> = scalar
            .iter_mut()
            .map(|sl| {
                let mut sample = |p: Vec3| field(p);
                advect(sl, &mut sample, &region, limits, &Dopri5).outcome
            })
            .collect();

        let mut batched: Vec<Streamline> =
            seeds.iter().enumerate().map(|(i, &s)| fresh(i as u32, s)).collect();
        let mut scratch = StreamlineBatch::new();
        let r = advect_batch(
            &mut batched,
            &mut scratch,
            &mut |_lane: usize, p: Vec3| field(p),
            &region,
            limits,
        );

        assert_eq!(r.outcomes, scalar_outcomes);
        let scalar_steps: u64 = scalar.iter().map(|sl| sl.state.steps).sum();
        let batch_steps: u64 = batched.iter().map(|sl| sl.state.steps).sum();
        assert_eq!(scalar_steps, batch_steps);
        for (a, b) in scalar.iter().zip(&batched) {
            assert_eq!(a.status, b.status, "lane {:?}", a.id);
            assert_eq!(a.state.steps, b.state.steps, "lane {:?}", a.id);
            assert_eq!(a.state.position.x.to_bits(), b.state.position.x.to_bits());
            assert_eq!(a.state.position.y.to_bits(), b.state.position.y.to_bits());
            assert_eq!(a.state.position.z.to_bits(), b.state.position.z.to_bits());
            assert_eq!(a.state.h.to_bits(), b.state.h.to_bits(), "lane {:?}", a.id);
            assert_eq!(a.state.time.to_bits(), b.state.time.to_bits());
            assert_eq!(a.state.arc_length.to_bits(), b.state.arc_length.to_bits());
            assert_eq!(a.geometry.len(), b.geometry.len());
            for (p, q) in a.geometry.iter().zip(&b.geometry) {
                assert_eq!(p.x.to_bits(), q.x.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
                assert_eq!(p.z.to_bits(), q.z.to_bits());
            }
        }
    }

    #[test]
    fn uniform_field_batch_matches_scalar() {
        let region_box = Aabb::unit();
        let seeds: Vec<Vec3> = (0..7).map(|i| Vec3::new(0.1, 0.1 + 0.1 * i as f64, 0.5)).collect();
        assert_batch_matches_scalar(
            &seeds,
            |_p| Some(Vec3::X),
            move |p| region_box.contains(p),
            &StepLimits::default(),
        );
    }

    #[test]
    fn rotation_with_mixed_budgets_matches_scalar() {
        // Lanes at different radii terminate at different times (steps vs
        // region exit), exercising mid-flight compaction.
        let seeds: Vec<Vec3> = (1..9).map(|i| Vec3::new(0.25 * i as f64, 0.0, 0.0)).collect();
        let limits = StepLimits { max_steps: 120, ..StepLimits::default() };
        assert_batch_matches_scalar(
            &seeds,
            |p| Some(Vec3::new(-p.y, p.x, 0.0)),
            |p| p.norm() < 1.3,
            &limits,
        );
    }

    #[test]
    fn stagnation_and_domain_exit_mix_matches_scalar() {
        // A sink field: lanes near the sink stagnate (ZeroVelocity), lanes
        // started outside the lattice exit immediately.
        let c = Vec3::splat(0.5);
        let seeds = vec![Vec3::ZERO, Vec3::splat(0.45), Vec3::splat(2.0), Vec3::new(0.9, 0.1, 0.2)];
        let limits = StepLimits { min_speed: 1e-6, max_steps: 100_000, ..StepLimits::default() };
        assert_batch_matches_scalar(
            &seeds,
            move |p| {
                if p.x <= 1.0 {
                    Some((c - p) * 2.0)
                } else {
                    None
                }
            },
            |_p| true,
            &limits,
        );
    }

    #[test]
    fn lattice_edge_euler_fallback_matches_scalar() {
        // Data only for x < 1, region x < 1: stage failures at the face
        // force the halving retries and the final Euler edge-step.
        let seeds: Vec<Vec3> =
            (0..5).map(|i| Vec3::new(0.95 + 0.01 * i as f64, 0.3, 0.3)).collect();
        assert_batch_matches_scalar(
            &seeds,
            |p| if p.x < 1.0 { Some(Vec3::X) } else { None },
            |p| p.x < 1.0,
            &StepLimits::default(),
        );
    }

    #[test]
    fn single_lane_batch_is_the_scalar_path() {
        assert_batch_matches_scalar(
            &[Vec3::new(0.2, 0.7, 0.4)],
            |p| Some(Vec3::new(1.0, (p.x * 3.0).sin() * 0.2, 0.1)),
            |p| p.x < 4.0,
            &StepLimits::default(),
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut scratch = StreamlineBatch::new();
        let r = advect_batch(
            &mut [],
            &mut scratch,
            &mut |_l: usize, _p: Vec3| Some(Vec3::X),
            &|_p| true,
            &StepLimits::default(),
        );
        assert!(r.outcomes.is_empty());
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn step_one_matches_dopri5_step_fsal() {
        use crate::ode::Stepper;
        let field = |p: Vec3| Some(Vec3::new(p.y * p.z + 1.0, (-p.x * 0.7).cos(), p.x - p.z));
        let tol = Tolerances::default();
        let y = Vec3::new(0.2, -0.1, 0.4);
        let mut f1 = field;
        let mut c1 = FsalCache::new();
        let mut c2 = FsalCache::new();
        let mut y_a = y;
        let mut y_b = y;
        for _ in 0..25 {
            let a = Dopri5.step_fsal(&mut f1, y_a, 0.05, &tol, &mut c1).unwrap();
            let b = step_one(&mut { field }, y_b, 0.05, &tol, &mut c2).unwrap();
            assert_eq!(a.y.x.to_bits(), b.y.x.to_bits());
            assert_eq!(a.y.y.to_bits(), b.y.y.to_bits());
            assert_eq!(a.y.z.to_bits(), b.y.z.to_bits());
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            y_a = a.y;
            y_b = b.y;
        }
    }

    #[test]
    fn batch_sample_count_matches_scalar_per_lane() {
        // The per-lane sequence of sample calls must be exactly the scalar
        // one (this is what makes per-lane stencil-cache counters match).
        let field = |p: Vec3| {
            if p.x < 2.0 {
                Some(Vec3::new(1.0, (p.x * 2.0).sin() * 0.3, 0.0))
            } else {
                None
            }
        };
        let region = |p: Vec3| p.x < 2.0;
        let limits = StepLimits::default();
        let seeds: Vec<Vec3> = (0..4).map(|i| Vec3::new(0.2 * i as f64, 0.5, 0.5)).collect();

        let mut scalar_calls: Vec<Vec<Vec3>> = vec![Vec::new(); seeds.len()];
        for (i, &s) in seeds.iter().enumerate() {
            let mut sl = fresh(i as u32, s);
            let calls = &mut scalar_calls[i];
            let mut sample = |p: Vec3| {
                calls.push(p);
                field(p)
            };
            advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
        }

        let mut batch_calls: Vec<Vec<Vec3>> = vec![Vec::new(); seeds.len()];
        let mut lanes: Vec<Streamline> =
            seeds.iter().enumerate().map(|(i, &s)| fresh(i as u32, s)).collect();
        let mut scratch = StreamlineBatch::new();
        advect_batch(
            &mut lanes,
            &mut scratch,
            &mut |lane: usize, p: Vec3| {
                batch_calls[lane].push(p);
                field(p)
            },
            &region,
            &limits,
        );

        for (lane, (a, b)) in scalar_calls.iter().zip(&batch_calls).enumerate() {
            assert_eq!(a.len(), b.len(), "lane {lane} sample-call count");
            for (p, q) in a.iter().zip(b) {
                assert_eq!(p.x.to_bits(), q.x.to_bits(), "lane {lane}");
                assert_eq!(p.y.to_bits(), q.y.to_bits(), "lane {lane}");
                assert_eq!(p.z.to_bits(), q.z.to_bits(), "lane {lane}");
            }
        }
    }
}
