//! A minimal 3-component `f64` vector.
//!
//! Positions, velocities and magnetic-field samples are all `Vec3`. The type is
//! `Copy` and 24 bytes, so it is passed by value everywhere.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-component double-precision vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to `rhs`.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Unit vector in the same direction; `None` when the norm is not a
    /// positive finite number (zero, NaN or infinite input).
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n.is_finite() && n > 0.0 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise product (Hadamard product).
    #[inline]
    pub fn mul_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Component-wise quotient.
    #[inline]
    pub fn div_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x / rhs.x, self.y / rhs.y, self.z / rhs.z)
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Largest absolute component.
    #[inline]
    pub fn max_abs_component(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// True when all three components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as an array, for serialization and indexed access.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Lossy narrowing to `f32` components, used by the on-disk block format.
    #[inline]
    pub fn to_f32_array(self) -> [f32; 3] {
        [self.x as f32, self.y as f32, self.z as f32]
    }

    #[inline]
    pub fn from_f32_array(a: [f32; 3]) -> Vec3 {
        Vec3::new(a[0] as f64, a[1] as f64, a[2] as f64)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn add_sub_roundtrip() {
        let a = Vec3::new(1.0, -2.0, 3.5);
        let b = Vec3::new(0.25, 4.0, -1.5);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn dot_orthogonal_axes() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::Y.dot(Vec3::Z), 0.0);
        assert_eq!(Vec3::X.dot(Vec3::X), 1.0);
    }

    #[test]
    fn cross_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn cross_anticommutative() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        assert_eq!(a.cross(b), -(b.cross(a)));
    }

    #[test]
    fn norm_of_345() {
        assert!(approx_eq(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0, 1e-15));
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        assert!(Vec3::new(f64::NAN, 0.0, 0.0).normalized().is_none());
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec3::new(2.0, -7.0, 0.3).normalized().unwrap();
        assert!(approx_eq(v.norm(), 1.0, 1e-14));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 0.0, -1.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 0.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, -1.0));
    }

    #[test]
    fn index_matches_fields() {
        let v = Vec3::new(9.0, 8.0, 7.0);
        assert_eq!(v[0], 9.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn f32_roundtrip_is_close() {
        let v = Vec3::new(1.25, -3.5, 0.0625);
        // Values exactly representable in f32 roundtrip exactly.
        assert_eq!(Vec3::from_f32_array(v.to_f32_array()), v);
    }

    #[test]
    fn sum_of_iter() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }
}
