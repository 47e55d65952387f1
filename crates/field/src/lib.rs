//! Vector-field data substrate.
//!
//! Everything the SC09 streamline algorithms consume lives here: the
//! [`VectorField`] trait with analytic test fields and the three application
//! fields of the paper (§3.2 — supernova, tokamak, thermal hydraulics), the
//! regular-grid block decomposition (§4: "the problem mesh is decomposed into
//! a number of spatially disjoint blocks"), the node-centered sampling
//! pipeline that mimics the paper's face→cell→node resampling of GenASiS
//! output, trilinear interpolation inside a block, and seed-set generators
//! for the sparse/dense initial conditions of §5.

pub mod analytic;
pub mod block;
pub mod dataset;
pub mod decomp;
pub mod grid;
pub mod group;
pub mod interp;
pub mod sample;
pub mod sampler;
pub mod seeds;
pub mod supernova;
pub mod thermal;
pub mod timedecomp;
pub mod tokamak;
pub mod unsteady;

pub use analytic::VectorField;
pub use block::{Block, BlockId, BlockShapeError};
pub use dataset::{Dataset, DatasetConfig};
pub use decomp::BlockDecomposition;
pub use grid::RegularGrid;
pub use group::{simd_isa, GroupSampler, GROUP_WIDTH};
pub use sampler::{CellSampler, SamplerStats};
pub use seeds::SeedSet;
