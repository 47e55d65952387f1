//! A resident data block: node-centered vector samples over one tile of the
//! decomposed mesh, plus ghost layers.
//!
//! Blocks are the unit of I/O, caching and ownership in all three algorithms.
//! The in-memory payload is `f32` (matching typical simulation output); all
//! arithmetic on sampled values is done in `f64`.

use crate::interp;
use serde::{Deserialize, Serialize};
use std::fmt;
use streamline_math::{Aabb, Vec3};

/// Identifier of a block within a [`crate::BlockDecomposition`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A block shape the interpolation stencil cannot handle: trilinear
/// interpolation needs at least one cell (two nodes) per axis, or the
/// `(f.floor() as usize).min(n - 2)` corner clamp underflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShapeError {
    pub id: BlockId,
    pub nodes: [usize; 3],
}

impl fmt::Display for BlockShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {} has a degenerate lattice {:?}: every axis needs >= 2 nodes",
            self.id, self.nodes
        )
    }
}

impl std::error::Error for BlockShapeError {}

/// Node-centered vector samples over one block (including ghost nodes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub id: BlockId,
    /// Core spatial bounds (excludes the ghost margin).
    pub bounds: Aabb,
    /// Ghost layers on every face, in cells.
    pub ghost: usize,
    /// Node counts per axis, including ghost nodes. Every axis is >= 2.
    pub nodes: [usize; 3],
    /// Cell spacing.
    pub spacing: Vec3,
    /// Reciprocal cell spacing, hoisted at construction so the sampling hot
    /// path multiplies instead of divides.
    pub inv_spacing: Vec3,
    /// Position of node (0,0,0) — `bounds.min − ghost·spacing`.
    pub origin: Vec3,
    /// Row-major (x fastest) `[vx, vy, vz]` per node.
    pub data: Vec<[f32; 3]>,
}

impl Block {
    /// Allocate a zero-filled block. `nodes` includes ghost nodes.
    ///
    /// Panics on a degenerate lattice (< 2 nodes on any axis); use
    /// [`Self::try_zeroed`] when the shape comes from untrusted input.
    pub fn zeroed(
        id: BlockId,
        bounds: Aabb,
        ghost: usize,
        nodes: [usize; 3],
        spacing: Vec3,
    ) -> Self {
        Self::try_zeroed(id, bounds, ghost, nodes, spacing).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocate a zero-filled block, rejecting lattices with fewer than two
    /// nodes on any axis (the trilinear stencil needs a full cell).
    pub fn try_zeroed(
        id: BlockId,
        bounds: Aabb,
        ghost: usize,
        nodes: [usize; 3],
        spacing: Vec3,
    ) -> Result<Self, BlockShapeError> {
        if nodes.iter().any(|&n| n < 2) {
            return Err(BlockShapeError { id, nodes });
        }
        let origin = bounds.min - spacing * ghost as f64;
        let inv_spacing = Vec3::new(1.0 / spacing.x, 1.0 / spacing.y, 1.0 / spacing.z);
        Ok(Block {
            id,
            bounds,
            ghost,
            nodes,
            spacing,
            inv_spacing,
            origin,
            data: vec![[0.0; 3]; nodes[0] * nodes[1] * nodes[2]],
        })
    }

    /// Linear index of node `(i, j, k)` in ghost-inclusive coordinates.
    #[inline]
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nodes[0] && j < self.nodes[1] && k < self.nodes[2]);
        (k * self.nodes[1] + j) * self.nodes[0] + i
    }

    /// Position of node `(i, j, k)` in ghost-inclusive coordinates.
    #[inline]
    pub fn node_pos(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                i as f64 * self.spacing.x,
                j as f64 * self.spacing.y,
                k as f64 * self.spacing.z,
            )
    }

    /// Set the sample at node `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: Vec3) {
        let idx = self.node_index(i, j, k);
        self.data[idx] = v.to_f32_array();
    }

    /// Sample at node `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> Vec3 {
        Vec3::from_f32_array(self.data[self.node_index(i, j, k)])
    }

    /// Region where trilinear interpolation is defined (the ghost-extended
    /// node lattice extent).
    pub fn interp_bounds(&self) -> Aabb {
        let hi = self.node_pos(self.nodes[0] - 1, self.nodes[1] - 1, self.nodes[2] - 1);
        Aabb::new(self.origin, hi)
    }

    /// Trilinear interpolation of the field at `p`. Valid anywhere in
    /// [`Self::interp_bounds`] (core plus ghost margin); `None` outside.
    #[inline]
    pub fn sample(&self, p: Vec3) -> Option<Vec3> {
        interp::trilinear(self, p)
    }

    /// In-memory payload size in bytes (node data only).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        // 2x2x2 cells + 1 ghost layer => 5 nodes per axis over core [0,2]^3.
        Block::zeroed(
            BlockId(3),
            Aabb::new(Vec3::ZERO, Vec3::splat(2.0)),
            1,
            [5, 5, 5],
            Vec3::splat(1.0),
        )
    }

    #[test]
    fn origin_offset_by_ghost() {
        let b = block();
        assert_eq!(b.origin, Vec3::splat(-1.0));
        assert_eq!(b.node_pos(0, 0, 0), Vec3::splat(-1.0));
        assert_eq!(b.node_pos(4, 4, 4), Vec3::splat(3.0));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = block();
        b.set(1, 2, 3, Vec3::new(0.5, -1.5, 2.5));
        assert_eq!(b.get(1, 2, 3), Vec3::new(0.5, -1.5, 2.5));
        assert_eq!(b.get(0, 0, 0), Vec3::ZERO);
    }

    #[test]
    fn interp_bounds_cover_core_plus_ghost() {
        let b = block();
        let ib = b.interp_bounds();
        assert_eq!(ib.min, Vec3::splat(-1.0));
        assert_eq!(ib.max, Vec3::splat(3.0));
        assert!(ib.contains(b.bounds.min) && ib.contains(b.bounds.max));
    }

    #[test]
    fn payload_bytes_counts_all_nodes() {
        assert_eq!(block().payload_bytes(), 125 * 12);
    }

    #[test]
    fn display_format() {
        assert_eq!(BlockId(17).to_string(), "B17");
    }

    #[test]
    fn degenerate_lattice_is_rejected_with_typed_error() {
        // Regression: a single-node axis used to underflow the `n - 2`
        // corner clamp inside trilinear interpolation. Such shapes must be
        // refused at construction instead.
        for nodes in [[1, 5, 5], [5, 1, 5], [5, 5, 1], [0, 5, 5], [1, 1, 1]] {
            let err = Block::try_zeroed(
                BlockId(7),
                Aabb::new(Vec3::ZERO, Vec3::splat(2.0)),
                0,
                nodes,
                Vec3::splat(1.0),
            )
            .expect_err("degenerate lattice must be rejected");
            assert_eq!(err, BlockShapeError { id: BlockId(7), nodes });
            assert!(err.to_string().contains("degenerate lattice"));
        }
    }

    #[test]
    fn minimal_valid_lattice_is_accepted() {
        let b = Block::try_zeroed(
            BlockId(0),
            Aabb::new(Vec3::ZERO, Vec3::splat(1.0)),
            0,
            [2, 2, 2],
            Vec3::splat(1.0),
        )
        .expect("one cell per axis is the smallest valid block");
        assert!(b.sample(Vec3::splat(0.5)).is_some());
    }

    #[test]
    fn inv_spacing_is_reciprocal_of_spacing() {
        let b = Block::zeroed(
            BlockId(0),
            Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0)),
            0,
            [3, 3, 3],
            Vec3::new(0.5, 0.25, 2.0),
        );
        assert_eq!(b.inv_spacing, Vec3::new(2.0, 4.0, 0.5));
    }
}
