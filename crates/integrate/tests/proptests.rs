//! Property-based tests for the integrators and the tracer.

use proptest::prelude::*;
use streamline_integrate::tracer::{advect, AdvectOutcome, StepLimits};
use streamline_integrate::{advect_batch, StreamlineBatch};
use streamline_integrate::{Dopri5, Stepper, Streamline, StreamlineId, Termination, Tolerances};
use streamline_math::{Aabb, Vec3};

proptest! {
    /// On a rigid rotation, DOPRI5 conserves the orbit radius to 1e-8
    /// (relative) over a quarter turn of 200 fixed steps.
    #[test]
    fn rotation_radius_conservation(r0 in 0.1f64..5.0, omega in 0.1f64..3.0) {
        let mut f = move |p: Vec3| Some(Vec3::new(-omega * p.y, omega * p.x, 0.0));
        let quarter = std::f64::consts::FRAC_PI_2 / omega;
        let n = 200usize;
        let h = quarter / n as f64;
        let tol = Tolerances::default();
        let mut y = Vec3::new(r0, 0.0, 0.0);
        for _ in 0..n {
            y = Dopri5.step(&mut f, y, h, &tol).unwrap().y;
        }
        let drift = (y.norm() - r0).abs() / r0;
        prop_assert!(drift < 1e-8, "relative drift {drift}");
    }

    /// The tracer always terminates and always returns a sound outcome:
    /// LeftRegion ⇒ position outside region; Terminated ⇒ status set.
    #[test]
    fn tracer_outcomes_are_sound(
        sx in 0.05f64..0.95, sy in 0.05f64..0.95, sz in 0.05f64..0.95,
        vx in -1f64..1.0, vy in -1f64..1.0, vz in -1f64..1.0,
        swirl in 0f64..3.0,
    ) {
        let v0 = Vec3::new(vx, vy, vz);
        let mut f = move |p: Vec3| {
            Some(v0 + Vec3::new(-swirl * (p.y - 0.5), swirl * (p.x - 0.5), 0.0))
        };
        let bounds = Aabb::unit();
        let region = move |p: Vec3| bounds.contains(p);
        let limits = StepLimits { max_steps: 500, ..Default::default() };
        let mut sl = Streamline::new(StreamlineId(0), Vec3::new(sx, sy, sz), limits.h0);
        let r = advect(&mut sl, &mut f, &region, &limits, &Dopri5);
        match r.outcome {
            AdvectOutcome::LeftRegion => {
                prop_assert!(!bounds.contains(sl.state.position));
                prop_assert!(sl.is_active());
            }
            AdvectOutcome::Terminated(t) => {
                prop_assert!(!sl.is_active());
                // Only these terminations are reachable here.
                prop_assert!(matches!(
                    t,
                    Termination::MaxSteps | Termination::ZeroVelocity | Termination::StepUnderflow
                ), "unexpected termination {t:?}");
            }
        }
        // Work accounting is consistent.
        prop_assert_eq!(r.steps, sl.state.steps);
        prop_assert_eq!(sl.geometry.len() as u64, sl.vertex_count());
        // Arc length is at least the net displacement.
        prop_assert!(sl.state.arc_length + 1e-9 >= sl.seed.distance(sl.state.position));
    }

    /// Geometry vertices are exactly steps + 1 and monotone in time for the
    /// recorded variant.
    #[test]
    fn geometry_accounting(n_moves in 1usize..50) {
        let mut sl = Streamline::new(StreamlineId(3), Vec3::ZERO, 1e-2);
        let mut t = 0.0;
        for i in 0..n_moves {
            t += 0.1;
            sl.push_step(Vec3::splat(i as f64 * 0.01), 0.1);
            prop_assert!((sl.state.time - t).abs() < 1e-12);
        }
        prop_assert_eq!(sl.vertex_count() as usize, n_moves + 1);
        prop_assert_eq!(sl.geometry.len(), n_moves + 1);
    }
}

proptest! {
    /// The batch kernel is bit-identical to the scalar tracer for any lane
    /// count (1 included — a partial chunk), any seed cloud and a random
    /// swirl-plus-drain field whose lanes finish in different ways mid
    /// flight: some hit the step budget, some drain into the stagnation
    /// point, some leave the domain box. Every lane's final state, step
    /// size, recorded geometry and outcome must match the scalar run
    /// bit for bit.
    #[test]
    fn batch_matches_scalar_bitwise(
        n in 1usize..24,
        seed_jitter in prop::collection::vec((0.05f64..0.95, 0.05f64..0.95, 0.05f64..0.95), 24),
        swirl in 0.2f64..3.0,
        drain in 0.0f64..1.5,
        drift in -0.4f64..0.4,
        max_steps in 8u64..120,
    ) {
        let bounds = Aabb::unit();
        let center = Vec3::splat(0.5);
        let field = move |p: Vec3| {
            if !bounds.contains(p) {
                return None;
            }
            let r = p - center;
            let v = Vec3::new(-swirl * r.y, swirl * r.x, drift) - r * drain;
            Some(v)
        };
        let region = move |p: Vec3| bounds.contains(p);
        let limits = StepLimits { max_steps, ..Default::default() };
        let seeds: Vec<Vec3> =
            seed_jitter.iter().take(n).map(|&(x, y, z)| Vec3::new(x, y, z)).collect();

        let mut scalar: Vec<Streamline> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| Streamline::new(StreamlineId(i as u32), s, limits.h0))
            .collect();
        let scalar_outcomes: Vec<AdvectOutcome> = scalar
            .iter_mut()
            .map(|sl| {
                let mut sample = |p: Vec3| field(p);
                advect(sl, &mut sample, &region, &limits, &Dopri5).outcome
            })
            .collect();

        let mut batched: Vec<Streamline> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| Streamline::new(StreamlineId(i as u32), s, limits.h0))
            .collect();
        let mut scratch = StreamlineBatch::new();
        let r = advect_batch(
            &mut batched,
            &mut scratch,
            &mut |_lane: usize, p: Vec3| field(p),
            &region,
            &limits,
        );

        prop_assert_eq!(&r.outcomes, &scalar_outcomes);
        for (a, b) in scalar.iter().zip(&batched) {
            prop_assert_eq!(a.status, b.status, "lane {:?}", a.id);
            prop_assert_eq!(a.state.steps, b.state.steps, "lane {:?}", a.id);
            prop_assert_eq!(a.state.position.x.to_bits(), b.state.position.x.to_bits());
            prop_assert_eq!(a.state.position.y.to_bits(), b.state.position.y.to_bits());
            prop_assert_eq!(a.state.position.z.to_bits(), b.state.position.z.to_bits());
            prop_assert_eq!(a.state.h.to_bits(), b.state.h.to_bits(), "lane {:?}", a.id);
            prop_assert_eq!(a.state.time.to_bits(), b.state.time.to_bits());
            prop_assert_eq!(a.state.arc_length.to_bits(), b.state.arc_length.to_bits());
            prop_assert_eq!(a.geometry.len(), b.geometry.len());
            for (p, q) in a.geometry.iter().zip(&b.geometry) {
                prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
                prop_assert_eq!(p.z.to_bits(), q.z.to_bits());
            }
        }
    }
}
