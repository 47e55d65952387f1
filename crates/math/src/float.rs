//! Floating-point comparison helpers used by tests and step-size control.

/// Absolute-difference comparison: `|a - b| <= tol`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Clamp `v` into `[lo, hi]`.
///
/// Unlike `f64::clamp` this does not panic on `lo > hi`; it returns `lo`,
/// which is the safe choice inside the step-size controller.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        return lo;
    }
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
    }

    #[test]
    fn clamp_behaviour() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        // Degenerate interval does not panic.
        assert_eq!(clamp(0.5, 2.0, 1.0), 2.0);
    }
}
