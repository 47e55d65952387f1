//! The stepper abstraction the tracer integrates through.
//!
//! A stepper advances the autonomous ODE `y' = f(y)` one step. The
//! right-hand side is a *partial* function — sampling block data fails
//! outside the resident lattice — so a step can fail at any internal stage;
//! the tracer reacts by shrinking the step or handing the streamline off.

use streamline_math::Vec3;

/// Right-hand side of the streamline ODE: the interpolated vector field.
/// `None` means the requested point is outside the resident data.
///
/// `FnMut` rather than `Fn`: the hot path threads a stateful
/// cell-cached sampler through here without interior mutability.
pub type Rhs<'a> = &'a mut dyn FnMut(Vec3) -> Option<Vec3>;

/// A stage evaluation landed outside the resident data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFail;

/// Memo of known `(y, f(y))` pairs carried between stepper invocations, the
/// vehicle for DOPRI5's FSAL ("first same as last") property.
///
/// Entries are keyed by the *exact bits* of the evaluation point, and `f` is
/// a pure function of position for the cache's lifetime (one streamline
/// inside one block), so a hit returns precisely what a fresh evaluation
/// would — reuse can never change a trajectory, only skip work. Two slots
/// suffice: the step's start point (which a rejected step retries) and its
/// end point (which an accepted step starts from).
#[derive(Debug, Clone, Copy, Default)]
pub struct FsalCache {
    start: Option<(Vec3, Vec3)>,
    end: Option<(Vec3, Vec3)>,
}

#[inline]
fn same_bits(a: Vec3, b: Vec3) -> bool {
    a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.z.to_bits() == b.z.to_bits()
}

impl FsalCache {
    pub fn new() -> Self {
        FsalCache::default()
    }

    /// Known value of `f(y)`, if `y` matches a memoized point bit-for-bit.
    #[inline]
    pub fn lookup(&self, y: Vec3) -> Option<Vec3> {
        if let Some((p, k)) = self.end {
            if same_bits(p, y) {
                return Some(k);
            }
        }
        if let Some((p, k)) = self.start {
            if same_bits(p, y) {
                return Some(k);
            }
        }
        None
    }

    /// Memoize `f(y)` for the step's start point.
    #[inline]
    pub fn note_start(&mut self, y: Vec3, fy: Vec3) {
        self.start = Some((y, fy));
    }

    /// Memoize `f(y1)` for the step's end point (the FSAL stage).
    #[inline]
    pub fn note_end(&mut self, y1: Vec3, fy1: Vec3) {
        self.end = Some((y1, fy1));
    }

    /// Drop all memoized evaluations (the RHS is about to change).
    pub fn clear(&mut self) {
        *self = FsalCache::default();
    }
}

/// Result of one accepted stepper invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Solution at `t + h`.
    pub y: Vec3,
    /// Scaled error-norm estimate: `<= 1` means the step satisfies the
    /// tolerances.
    pub error: f64,
}

/// Absolute/relative error tolerances for the adaptive step-size control
/// (§2.1's "adaptive stepsize control").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    pub abs: f64,
    pub rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances { abs: 1e-7, rel: 1e-6 }
    }
}

impl Tolerances {
    /// Scaled max-norm of the embedded error estimate `e` given solution
    /// magnitudes `y0`, `y1` — the standard Hairer–Nørsett–Wanner form.
    pub fn error_norm(&self, e: Vec3, y0: Vec3, y1: Vec3) -> f64 {
        let mut norm = 0.0f64;
        for c in 0..3 {
            let scale = self.abs + self.rel * y0[c].abs().max(y1[c].abs());
            norm = norm.max((e[c] / scale).abs());
        }
        norm
    }
}

/// One-step integration scheme for `y' = f(y)`.
pub trait Stepper {
    /// Attempt one step of size `h` from `y`. Fails when `f` is undefined at
    /// any required stage point.
    fn step(&self, f: Rhs<'_>, y: Vec3, h: f64, tol: &Tolerances) -> Result<StepResult, StageFail>;

    /// Like [`Self::step`], consulting and maintaining `fsal`'s memo of
    /// known `(y, f(y))` pairs across invocations. The default clears the
    /// memo and delegates to `step`, so a stepper without stage reuse never
    /// leaves stale entries for the caller to trust; [`Dopri5`](crate::Dopri5)
    /// overrides it to hand an accepted step's last stage to the next step
    /// as its first.
    fn step_fsal(
        &self,
        f: Rhs<'_>,
        y: Vec3,
        h: f64,
        tol: &Tolerances,
        fsal: &mut FsalCache,
    ) -> Result<StepResult, StageFail> {
        fsal.clear();
        self.step(f, y, h, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_norm_scales_with_tolerances() {
        let tol = Tolerances { abs: 1e-6, rel: 0.0 };
        let e = Vec3::new(1e-6, 0.0, 0.0);
        assert!((tol.error_norm(e, Vec3::ZERO, Vec3::ZERO) - 1.0).abs() < 1e-12);
        // Relative part kicks in for large solutions.
        let tol = Tolerances { abs: 0.0, rel: 1e-6 };
        let y = Vec3::splat(100.0);
        assert!((tol.error_norm(Vec3::splat(1e-4), y, y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_norm_takes_max_component() {
        let tol = Tolerances { abs: 1.0, rel: 0.0 };
        let n = tol.error_norm(Vec3::new(0.5, 2.0, 1.0), Vec3::ZERO, Vec3::ZERO);
        assert_eq!(n, 2.0);
    }

    #[test]
    fn fsal_cache_is_keyed_by_exact_bits() {
        let mut c = FsalCache::new();
        let y = Vec3::new(0.1, 0.2, 0.3);
        assert_eq!(c.lookup(y), None);
        c.note_start(y, Vec3::X);
        assert_eq!(c.lookup(y), Some(Vec3::X));
        // One ulp off must miss: the memo may never stand in for a point it
        // was not evaluated at.
        let off = Vec3::new(f64::from_bits(y.x.to_bits() + 1), y.y, y.z);
        assert_eq!(c.lookup(off), None);
        // The end slot shadows the start slot when both match.
        c.note_end(y, Vec3::Y);
        assert_eq!(c.lookup(y), Some(Vec3::Y));
        c.clear();
        assert_eq!(c.lookup(y), None);
    }
}
