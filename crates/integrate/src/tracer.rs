//! The block-local tracer: advance a streamline through resident data until
//! it leaves the region the caller owns or terminates for good.
//!
//! This is the inner loop shared by all three parallel algorithms. Each
//! algorithm decides *which* blocks are resident and *what to do* when a
//! streamline exits ("Each streamline is integrated until it leaves the
//! blocks owned by the processor", §4.1); the tracer only integrates.

use crate::ode::{FsalCache, StageFail, Stepper, Tolerances};
use crate::streamline::{Streamline, Termination};
use streamline_math::float::clamp;
use streamline_math::Vec3;

/// Integration budgets and step-size control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLimits {
    /// Per-streamline accepted-step budget.
    pub max_steps: u64,
    /// Terminate after this much arc length.
    pub max_arc_length: f64,
    /// Terminate after this much integration time.
    pub max_time: f64,
    /// Stagnation threshold: |v| below this terminates (critical point).
    pub min_speed: f64,
    /// Initial step size for fresh streamlines.
    pub h0: f64,
    /// Hard lower bound on the step size.
    pub h_min: f64,
    /// Hard upper bound on the step size.
    pub h_max: f64,
    /// Error tolerances of the adaptive step-size control.
    pub tol: Tolerances,
}

impl Default for StepLimits {
    fn default() -> Self {
        StepLimits {
            max_steps: 10_000,
            max_arc_length: f64::INFINITY,
            max_time: f64::INFINITY,
            min_speed: 1e-9,
            h0: 1e-2,
            h_min: 1e-9,
            h_max: 0.5,
            tol: Tolerances::default(),
        }
    }
}

/// Why an [`advect`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvectOutcome {
    /// The streamline's position left the caller's region; it is still
    /// active and must continue in whichever block owns the position.
    LeftRegion,
    /// The streamline terminated (status already updated).
    Terminated(Termination),
}

/// What [`advect`] did, with the work it performed for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advected {
    pub outcome: AdvectOutcome,
    /// Accepted integration steps performed by this call.
    pub steps: u64,
}

/// Advance `sl` with `stepper` while `region(position)` holds and `sample`
/// provides field values (the ghost-extended lattice, a superset of the
/// region).
///
/// ```
/// use streamline_integrate::{advect, AdvectOutcome, Dopri5, StepLimits, Streamline, StreamlineId};
/// use streamline_math::Vec3;
///
/// // A uniform +x field over the unit slab x < 1.
/// let mut sample = |_p: Vec3| Some(Vec3::X);
/// let region = |p: Vec3| p.x < 1.0;
/// let mut sl = Streamline::new(StreamlineId(0), Vec3::ZERO, 1e-2);
/// let r = advect(&mut sl, &mut sample, &region, &StepLimits::default(), &Dopri5);
/// assert_eq!(r.outcome, AdvectOutcome::LeftRegion);
/// assert!(sl.state.position.x >= 1.0); // handed off at the block face
/// ```
///
/// Returns when the streamline leaves the region (hand-off point) or
/// terminates. The step size is under PI-style adaptive control; stage
/// failures (probe outside resident data) shrink the step and, as a last
/// resort, fall back to a single Euler edge-step so the curve always makes
/// progress toward the hand-off.
///
/// An [`FsalCache`] local to this call carries known `(y, f(y))` pairs
/// between steps, so FSAL steppers reuse an accepted step's last stage as
/// the next step's first and the per-iteration speed check costs no extra
/// evaluation. The cache dies with the call, which is exactly the required
/// invalidation at seeds and block hand-offs (the RHS changes there).
pub fn advect(
    sl: &mut Streamline,
    sample: &mut dyn FnMut(Vec3) -> Option<Vec3>,
    region: &dyn Fn(Vec3) -> bool,
    limits: &StepLimits,
    stepper: &dyn Stepper,
) -> Advected {
    let mut steps_this = 0u64;
    let mut fsal = FsalCache::new();
    let done = |sl: &mut Streamline, why: Termination, steps: u64| {
        sl.terminate(why);
        Advected { outcome: AdvectOutcome::Terminated(why), steps }
    };
    loop {
        let pos = sl.state.position;
        if !region(pos) {
            return Advected { outcome: AdvectOutcome::LeftRegion, steps: steps_this };
        }
        if sl.state.steps >= limits.max_steps {
            return done(sl, Termination::MaxSteps, steps_this);
        }
        if sl.state.arc_length >= limits.max_arc_length {
            return done(sl, Termination::MaxArcLength, steps_this);
        }
        if sl.state.time >= limits.max_time {
            return done(sl, Termination::MaxTime, steps_this);
        }
        let v = match fsal.lookup(pos) {
            // An accepted FSAL step already evaluated f here.
            Some(v) => v,
            None => match sample(pos) {
                Some(v) => v,
                // Inside the region but outside the lattice: only possible at
                // the domain boundary — the streamline has effectively exited.
                None => return done(sl, Termination::ExitedDomain, steps_this),
            },
        };
        if v.norm() < limits.min_speed {
            return done(sl, Termination::ZeroVelocity, steps_this);
        }

        let mut h = clamp(sl.state.h, limits.h_min, limits.h_max);
        // Try the step, shrinking on stage failure or excessive error.
        let mut attempts = 0;
        let accepted = loop {
            match stepper.step_fsal(sample, pos, h, &limits.tol, &mut fsal) {
                Err(StageFail) => {
                    attempts += 1;
                    if attempts > 8 || h <= limits.h_min * 1.0001 {
                        // Edge of the resident lattice: take one Euler step
                        // with the current h so the curve crosses the face
                        // and the hand-off logic can take over.
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
                            return done(sl, Termination::StepUnderflow, steps_this);
                        }
                        continue;
                    }
                    break Some(res);
                }
            }
        };

        match accepted {
            Some(res) => {
                sl.push_step(res.y, h);
                steps_this += 1;
                // Grow/shrink for the next step.
                let err = res.error.max(1e-10);
                sl.state.h =
                    clamp(h * clamp(0.9 * err.powf(-0.2), 0.2, 5.0), limits.h_min, limits.h_max);
            }
            None => {
                // Euler edge-step fallback.
                sl.push_step(pos + v * h, h);
                steps_this += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dopri5::Dopri5;
    use crate::streamline::{StreamlineId, StreamlineStatus};
    use streamline_math::Aabb;

    fn fresh(seed: Vec3) -> Streamline {
        Streamline::new(StreamlineId(0), seed, 1e-2)
    }

    #[test]
    fn uniform_field_crosses_region() {
        // Field +x over all space; region is the unit cube. A streamline
        // seeded inside must leave through the x = 1 face.
        let region_box = Aabb::unit();
        let mut sample = |_p: Vec3| Some(Vec3::X);
        let region = move |p: Vec3| region_box.contains(p);
        let mut sl = fresh(Vec3::splat(0.5));
        let r = advect(&mut sl, &mut sample, &region, &StepLimits::default(), &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::LeftRegion);
        assert!(sl.is_active());
        assert!(sl.state.position.x > 1.0);
        assert!((sl.state.position.y - 0.5).abs() < 1e-9);
        assert!(r.steps > 0);
        assert_eq!(r.steps, sl.state.steps);
    }

    #[test]
    fn rotation_stays_and_hits_step_budget() {
        // Circular orbit fully inside the region: must terminate on steps.
        let mut sample = |p: Vec3| Some(Vec3::new(-p.y, p.x, 0.0));
        let region = |p: Vec3| p.norm() < 10.0;
        let mut sl = fresh(Vec3::new(1.0, 0.0, 0.0));
        let limits = StepLimits { max_steps: 500, ..Default::default() };
        let r = advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::Terminated(Termination::MaxSteps));
        assert_eq!(sl.state.steps, 500);
        // Radius conserved to tolerance by the adaptive integrator.
        assert!((sl.state.position.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sink_terminates_on_zero_velocity() {
        let c = Vec3::splat(0.5);
        let mut sample = move |p: Vec3| Some((c - p) * 2.0);
        let region = |_p: Vec3| true;
        let mut sl = fresh(Vec3::ZERO);
        let limits = StepLimits { min_speed: 1e-6, max_steps: 100_000, ..Default::default() };
        let r = advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::Terminated(Termination::ZeroVelocity));
        assert!(sl.state.position.distance(c) < 1e-3);
    }

    #[test]
    fn arc_length_budget_respected() {
        let mut sample = |_p: Vec3| Some(Vec3::X * 2.0);
        let region = |_p: Vec3| true;
        let mut sl = fresh(Vec3::ZERO);
        let limits = StepLimits { max_arc_length: 3.0, ..Default::default() };
        let r = advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::Terminated(Termination::MaxArcLength));
        // Overshoot bounded by one h_max step.
        assert!(sl.state.arc_length < 3.0 + 2.0 * limits.h_max + 1e-9);
    }

    #[test]
    fn max_time_budget_respected() {
        let mut sample = |_p: Vec3| Some(Vec3::X);
        let region = |_p: Vec3| true;
        let mut sl = fresh(Vec3::ZERO);
        let limits = StepLimits { max_time: 1.5, ..Default::default() };
        let r = advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::Terminated(Termination::MaxTime));
        assert!(sl.state.time >= 1.5);
    }

    #[test]
    fn lattice_edge_falls_back_to_euler_handoff() {
        // Sample data exists only for x < 1 (no ghost margin); region is
        // x < 1 as well. The tracer must still push the curve past the face.
        let mut sample = |p: Vec3| if p.x < 1.0 { Some(Vec3::X) } else { None };
        let region = |p: Vec3| p.x < 1.0;
        let mut sl = fresh(Vec3::new(0.99, 0.0, 0.0));
        let r = advect(&mut sl, &mut sample, &region, &StepLimits::default(), &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::LeftRegion);
        assert!(sl.state.position.x >= 1.0);
    }

    #[test]
    fn out_of_lattice_inside_region_is_domain_exit() {
        let mut sample = |_p: Vec3| None::<Vec3>;
        let region = |_p: Vec3| true;
        let mut sl = fresh(Vec3::ZERO);
        let r = advect(&mut sl, &mut sample, &region, &StepLimits::default(), &Dopri5);
        assert_eq!(r.outcome, AdvectOutcome::Terminated(Termination::ExitedDomain));
        assert_eq!(sl.status, StreamlineStatus::Terminated(Termination::ExitedDomain));
    }

    #[test]
    fn adaptive_takes_fewer_steps_in_smooth_field_than_fixed_h0() {
        let mut sample = |p: Vec3| Some(Vec3::new(1.0, (p.x).sin() * 0.1, 0.0));
        let region = |p: Vec3| p.x < 50.0;
        let limits = StepLimits { max_steps: 1_000_000, ..Default::default() };
        let mut a = fresh(Vec3::ZERO);
        let ra = advect(&mut a, &mut sample, &region, &limits, &Dopri5);
        assert_eq!(ra.outcome, AdvectOutcome::LeftRegion);
        // Dopri5 grows its step toward h_max: a fixed step of h0 would need
        // distance / h0 steps (5,000 here) to cover the same x-distance.
        let fixed_steps = (50.0 / limits.h0) as u64;
        assert!(ra.steps * 2 < fixed_steps, "dopri {} vs fixed h0 {fixed_steps}", ra.steps);
        assert!(a.state.h > limits.h0, "the step grew from h0 to {}", a.state.h);
    }

    #[test]
    fn resume_after_handoff_continues_geometry() {
        // Advect through region A, then hand the same streamline to region B.
        let mut sample = |_p: Vec3| Some(Vec3::X);
        let region_a = |p: Vec3| p.x < 1.0;
        let region_b = |p: Vec3| p.x < 2.0;
        let mut sl = fresh(Vec3::ZERO);
        let limits = StepLimits::default();
        assert_eq!(
            advect(&mut sl, &mut sample, &region_a, &limits, &Dopri5).outcome,
            AdvectOutcome::LeftRegion
        );
        let mid_len = sl.geometry.len();
        assert_eq!(
            advect(&mut sl, &mut sample, &region_b, &limits, &Dopri5).outcome,
            AdvectOutcome::LeftRegion
        );
        assert!(sl.geometry.len() > mid_len);
        assert!(sl.state.position.x >= 2.0);
        // Geometry is monotone in x for this field.
        for w in sl.geometry.windows(2) {
            assert!(w[1].x >= w[0].x);
        }
    }
}
