//! Dormand–Prince 5(4) embedded Runge–Kutta pair (DOPRI5).
//!
//! The scheme the paper uses (§2.1, reference \[18\] — Prince & Dormand,
//! "High order embedded Runge-Kutta formulae"). Seven stages, fifth-order
//! solution with an embedded fourth-order estimate whose difference drives
//! adaptive step-size control in the tracer.

use crate::ode::{FsalCache, Rhs, StageFail, StepResult, Stepper, Tolerances};
use streamline_math::Vec3;

// Butcher tableau (c nodes, a coefficients, b fifth-order weights,
// e = b − b̂ error weights).
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];

const A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];

const B5: [f64; 7] =
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0];

// Error weights: b5 − b4 (the embedded 4th-order weights folded in).
const E: [f64; 7] = [
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
];

/// The `(a, b5, e, c)` tableau references, shared with the non-autonomous
/// stepper in [`crate::unsteady`].
pub(crate) type Tableau =
    (&'static [[f64; 6]; 7], &'static [f64; 7], &'static [f64; 7], &'static [f64; 7]);

pub(crate) fn tableau() -> Tableau {
    (&A, &B5, &E, &C)
}

/// The Dormand–Prince 5(4) stepper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dopri5;

impl Stepper for Dopri5 {
    fn step(&self, f: Rhs<'_>, y: Vec3, h: f64, tol: &Tolerances) -> Result<StepResult, StageFail> {
        self.step_fsal(f, y, h, tol, &mut FsalCache::new())
    }

    /// FSAL stepping: `A[6]` (the seventh-stage abscissa weights) equals
    /// `B5[..6]` with `B5[6] = 0`, and both loops skip zero weights and
    /// accumulate in the same order — so the seventh stage's argument *is*
    /// the fifth-order solution, bit for bit. That makes `k7 = f(y1)` the
    /// next step's `k1`, which the memo hands back whenever the next
    /// invocation starts from `y1` exactly (accepted step) or retries `y`
    /// exactly (rejected step).
    fn step_fsal(
        &self,
        f: Rhs<'_>,
        y: Vec3,
        h: f64,
        tol: &Tolerances,
        fsal: &mut FsalCache,
    ) -> Result<StepResult, StageFail> {
        let mut k = [Vec3::ZERO; 7];
        k[0] = match fsal.lookup(y) {
            Some(k1) => k1,
            None => f(y).ok_or(StageFail)?,
        };
        fsal.note_start(y, k[0]);
        for s in 1..6 {
            let mut arg = y;
            for (j, kj) in k.iter().enumerate().take(s) {
                let a = A[s][j];
                if a != 0.0 {
                    arg += *kj * (a * h);
                }
            }
            k[s] = f(arg).ok_or(StageFail)?;
        }
        // Seventh stage argument == y1 (see above).
        let mut y1 = y;
        for (j, kj) in k.iter().enumerate().take(6) {
            let a = A[6][j];
            if a != 0.0 {
                y1 += *kj * (a * h);
            }
        }
        k[6] = f(y1).ok_or(StageFail)?;
        fsal.note_end(y1, k[6]);
        let mut err = Vec3::ZERO;
        for (s, ks) in k.iter().enumerate() {
            if E[s] != 0.0 {
                err += *ks * (E[s] * h);
            }
        }
        Ok(StepResult { y: y1, error: tol.error_norm(err, y, y1) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integrate the saddle field y' = (x, −y, 0) whose exact solution is
    /// exponential, and return the error at t = 1 with fixed step h.
    fn saddle_error(h: f64) -> f64 {
        let mut f = |p: Vec3| Some(Vec3::new(p.x, -p.y, 0.0));
        let mut y = Vec3::new(1.0, 1.0, 0.0);
        let n = (1.0 / h).round() as usize;
        for _ in 0..n {
            y = Dopri5.step(&mut f, y, h, &Tolerances::default()).unwrap().y;
        }
        let exact = Vec3::new(1f64.exp(), (-1f64).exp(), 0.0);
        y.distance(exact)
    }

    #[test]
    fn fifth_order_convergence() {
        // Halving h should reduce the error by about 2^5 = 32.
        let e1 = saddle_error(0.1);
        let e2 = saddle_error(0.05);
        let rate = (e1 / e2).log2();
        assert!(rate > 4.5, "observed order {rate}, e1={e1}, e2={e2}");
    }

    #[test]
    fn error_estimate_tracks_true_error() {
        // For a nonlinear field the embedded estimate should be within a
        // couple of orders of magnitude of the true one-step error.
        let mut f = |p: Vec3| Some(Vec3::new(p.y * p.z + 1.0, -p.x, (p.x * 0.5).sin()));
        let y = Vec3::new(0.3, 0.7, -0.2);
        let h = 0.2;
        let tol = Tolerances { abs: 1.0, rel: 0.0 }; // error_norm == |err| in max-norm
        let big = Dopri5.step(&mut f, y, h, &tol).unwrap();
        // Reference: 100 small steps.
        let mut r = y;
        for _ in 0..100 {
            r = Dopri5.step(&mut f, r, h / 100.0, &tol).unwrap().y;
        }
        let true_err = big.y.distance(r);
        assert!(big.error > 0.0);
        assert!(
            big.error / true_err < 100.0 && true_err / big.error < 100.0,
            "estimate {} vs true {}",
            big.error,
            true_err
        );
    }

    #[test]
    fn consistency_b5_sums_to_one() {
        let s: f64 = B5.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
        // Row sums of A equal the C nodes (stage consistency).
        for i in 0..7 {
            let row: f64 = A[i].iter().sum();
            assert!((row - C[i]).abs() < 1e-12, "row {i}: {row} vs {}", C[i]);
        }
    }

    #[test]
    fn uniform_field_has_zero_error_estimate() {
        let mut f = |_: Vec3| Some(Vec3::new(2.0, 0.0, 0.0));
        let r = Dopri5.step(&mut f, Vec3::ZERO, 0.5, &Tolerances::default()).unwrap();
        // Exact up to the rounding of the tableau-weight sums.
        assert!(r.y.distance(Vec3::new(1.0, 0.0, 0.0)) < 1e-14);
        assert!(r.error < 1e-6);
    }

    #[test]
    fn fsal_tableau_identity_holds() {
        // The property everything rests on: the seventh-stage abscissa
        // weights are the fifth-order solution weights.
        for j in 0..6 {
            assert_eq!(A[6][j].to_bits(), B5[j].to_bits(), "A[6][{j}] != B5[{j}]");
        }
        assert_eq!(B5[6], 0.0);
    }

    #[test]
    fn fsal_chain_is_bit_identical_and_saves_one_stage() {
        let field = |p: Vec3| Some(Vec3::new(p.y * p.z + 1.0, (-p.x * 0.7).cos(), p.x - p.z));
        let tol = Tolerances::default();
        let h = 0.05;
        let n = 40;

        let plain_evals = std::cell::Cell::new(0u64);
        let mut plain = Vec3::new(0.2, -0.1, 0.4);
        let mut f = |p: Vec3| {
            plain_evals.set(plain_evals.get() + 1);
            field(p)
        };
        for _ in 0..n {
            plain = Dopri5.step(&mut f, plain, h, &tol).unwrap().y;
        }

        let fsal_evals = std::cell::Cell::new(0u64);
        let mut reused = Vec3::new(0.2, -0.1, 0.4);
        let mut g = |p: Vec3| {
            fsal_evals.set(fsal_evals.get() + 1);
            field(p)
        };
        let mut cache = FsalCache::new();
        for _ in 0..n {
            reused = Dopri5.step_fsal(&mut g, reused, h, &tol, &mut cache).unwrap().y;
        }

        assert_eq!(plain.x.to_bits(), reused.x.to_bits());
        assert_eq!(plain.y.to_bits(), reused.y.to_bits());
        assert_eq!(plain.z.to_bits(), reused.z.to_bits());
        assert_eq!(plain_evals.get(), 7 * n);
        // First step pays all seven stages; every later step reuses k7 as k1.
        assert_eq!(fsal_evals.get(), 7 + 6 * (n - 1));
    }

    #[test]
    fn fsal_reuses_k1_when_a_step_is_retried() {
        // A rejected step retries from the same start point with a smaller
        // h; the memoized k1 must serve that retry without re-evaluating.
        let evals = std::cell::Cell::new(0u64);
        let mut f = |p: Vec3| {
            evals.set(evals.get() + 1);
            Some(Vec3::new(p.x + 1.0, p.y * 2.0, 0.3))
        };
        let tol = Tolerances::default();
        let mut cache = FsalCache::new();
        let y = Vec3::new(0.5, 0.5, 0.5);
        let full = Dopri5.step_fsal(&mut f, y, 0.4, &tol, &mut cache).unwrap();
        assert_eq!(evals.get(), 7);
        let retry = Dopri5.step_fsal(&mut f, y, 0.2, &tol, &mut cache).unwrap();
        assert_eq!(evals.get(), 7 + 6, "the retry must reuse the memoized k1");
        // And the retried step is what a cold stepper would produce.
        let cold = Dopri5.step(&mut f, y, 0.2, &tol).unwrap();
        assert_eq!(retry.y, cold.y);
        assert_eq!(retry.error, cold.error);
        assert_ne!(full.y, retry.y);
    }

    #[test]
    fn stage_failure_inside_step() {
        // Field undefined past x = 0.15: the k2 stage (x = 0.2·h·k1) fails
        // for h = 1.
        let mut f = |p: Vec3| if p.x <= 0.15 { Some(Vec3::X) } else { None };
        assert!(Dopri5.step(&mut f, Vec3::ZERO, 1.0, &Tolerances::default()).is_err());
        assert!(Dopri5.step(&mut f, Vec3::ZERO, 0.1, &Tolerances::default()).is_ok());
    }
}
