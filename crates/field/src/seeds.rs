//! Seed-set generation for the sparse/dense initial conditions of §5.
//!
//! §3.1: seed set *size* and *distribution* are two of the four axes that
//! classify a streamline problem. The generators here produce exactly the
//! configurations the paper measures:
//!
//! * sparse uniform lattices through the volume (thermal sparse:
//!   "4,096 seed points evenly on a 16x16x16 grid throughout the box"),
//! * sparse random placement over the whole domain (astro/fusion sparse),
//! * dense balls around a point of interest (astro/fusion dense),
//! * dense circles around an inlet (thermal dense: "22,000 seed points ...
//!   in the shape of a circle immediately around the inlet", mimicking
//!   stream-surface seeding).

use rand::Rng;
use serde::{Deserialize, Serialize};
use streamline_math::{rng, Aabb, Vec3};

/// A set of seed points plus a label describing how it was produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedSet {
    pub label: String,
    pub points: Vec<Vec3>,
}

impl SeedSet {
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Smallest box containing every seed (`None` when empty).
    pub fn bounds(&self) -> Option<Aabb> {
        let first = *self.points.first()?;
        let mut bb = Aabb::new(first, first);
        for &p in &self.points[1..] {
            bb = bb.union(&Aabb::new(p, p));
        }
        Some(bb)
    }
}

/// `n³`-ish uniform lattice of seeds spanning `domain`, inset by half a cell
/// so no seed sits exactly on the boundary. `counts` seeds per axis.
pub fn sparse_lattice(domain: &Aabb, counts: [usize; 3]) -> SeedSet {
    assert!(counts.iter().all(|&c| c >= 1));
    let mut points = Vec::with_capacity(counts[0] * counts[1] * counts[2]);
    let s = domain.size();
    let cell = Vec3::new(s.x / counts[0] as f64, s.y / counts[1] as f64, s.z / counts[2] as f64);
    for k in 0..counts[2] {
        for j in 0..counts[1] {
            for i in 0..counts[0] {
                points.push(
                    domain.min
                        + Vec3::new(
                            (i as f64 + 0.5) * cell.x,
                            (j as f64 + 0.5) * cell.y,
                            (k as f64 + 0.5) * cell.z,
                        ),
                );
            }
        }
    }
    SeedSet { label: format!("sparse-lattice-{}x{}x{}", counts[0], counts[1], counts[2]), points }
}

/// `n` uniformly random seeds over a sub-box of `domain` shrunk by `margin`
/// (fraction of the half-size) so seeds start away from the outflow boundary.
pub fn sparse_random(domain: &Aabb, n: usize, margin: f64, seed: u64) -> SeedSet {
    let shrink = domain.size().max_abs_component() * 0.5 * margin;
    let inner = domain.expanded(-shrink);
    let mut r = rng::stream(seed, "sparse-random");
    let points = (0..n).map(|_| rng::point_in_aabb(&mut r, &inner)).collect();
    SeedSet { label: format!("sparse-random-{n}"), points }
}

/// `n` seeds uniformly in a ball — the dense cluster configuration.
pub fn dense_ball(center: Vec3, radius: f64, n: usize, seed: u64) -> SeedSet {
    let mut r = rng::stream(seed, "dense-ball");
    let points = (0..n).map(|_| rng::point_in_ball(&mut r, center, radius)).collect();
    SeedSet { label: format!("dense-ball-{n}"), points }
}

/// `n` seeds on a circle of `radius` around `center` with the given `normal`,
/// jittered slightly along the normal — the paper's stream-surface seeding
/// around the thermal-hydraulics inlet.
pub fn dense_circle(center: Vec3, normal: Vec3, radius: f64, n: usize, seed: u64) -> SeedSet {
    let nrm = normal.normalized().expect("circle normal must be nonzero");
    // Build an orthonormal frame (u, v, nrm).
    let helper = if nrm.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    let u = nrm.cross(helper).normalized().unwrap();
    let v = nrm.cross(u);
    let mut r = rng::stream(seed, "dense-circle");
    let points = (0..n)
        .map(|i| {
            let ang = i as f64 / n as f64 * std::f64::consts::TAU;
            let jitter = r.gen_range(-0.01..0.01) * radius;
            center + (u * ang.cos() + v * ang.sin()) * radius + nrm * jitter
        })
        .collect();
    SeedSet { label: format!("dense-circle-{n}"), points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_count_and_containment() {
        let d = Aabb::unit();
        let s = sparse_lattice(&d, [4, 4, 4]);
        assert_eq!(s.len(), 64);
        assert!(s.points.iter().all(|&p| d.contains(p)));
        // Inset: no seed on the boundary.
        assert!(s.points.iter().all(|&p| p.x > 0.0 && p.x < 1.0));
    }

    #[test]
    fn lattice_16_cubed_matches_paper_thermal_sparse() {
        let s = sparse_lattice(&Aabb::unit(), [16, 16, 16]);
        assert_eq!(s.len(), 4096);
    }

    #[test]
    fn random_deterministic_and_contained() {
        let d = Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0));
        let a = sparse_random(&d, 100, 0.1, 5);
        let b = sparse_random(&d, 100, 0.1, 5);
        assert_eq!(a.points, b.points);
        assert!(a.points.iter().all(|&p| d.contains(p)));
    }

    #[test]
    fn ball_radius_respected() {
        let c = Vec3::new(1.0, 2.0, 3.0);
        let s = dense_ball(c, 0.3, 500, 11);
        assert_eq!(s.len(), 500);
        assert!(s.points.iter().all(|&p| p.distance(c) <= 0.3 + 1e-12));
    }

    #[test]
    fn circle_lies_near_plane() {
        let c = Vec3::new(0.0, 0.3, 0.18);
        let n = Vec3::X;
        let s = dense_circle(c, n, 0.05, 256, 3);
        assert_eq!(s.len(), 256);
        for &p in &s.points {
            // Distance from the circle's plane is at most the 1% jitter.
            assert!((p - c).dot(n).abs() <= 0.05 * 0.01 + 1e-12);
            // Radial distance close to the circle radius.
            let radial = (p - c) - n * (p - c).dot(n);
            assert!((radial.norm() - 0.05).abs() < 1e-9);
        }
    }

    #[test]
    fn bounds_cover_all_seeds() {
        let s = dense_ball(Vec3::ZERO, 1.0, 50, 2);
        let bb = s.bounds().unwrap();
        assert!(s.points.iter().all(|&p| bb.contains(p)));
        assert!(SeedSet { label: "e".into(), points: vec![] }.bounds().is_none());
    }
}
