//! Shared helpers for unit tests inside this crate.

#![cfg(test)]

use crate::msg::Msg;
use std::sync::Arc;
use streamline_desim::Context;
use streamline_field::analytic::Uniform;
use streamline_field::dataset::{Dataset, DatasetConfig};
use streamline_field::decomp::BlockDecomposition;
use streamline_field::sample::SamplingMode;
use streamline_math::{Aabb, Vec3};

/// A dataset whose field is uniform +x over the unit cube, 2×2×2 blocks.
/// Streamlines are straight lines — every hand-off is predictable.
pub fn uniform_x_dataset() -> Dataset {
    custom_dataset(Uniform(Vec3::X), [2, 2, 2], [4, 4, 4])
}

/// Wrap any analytic field into a unit-cube dataset for tests.
pub fn custom_dataset(
    field: impl streamline_field::VectorField + 'static,
    blocks: [usize; 3],
    cells: [usize; 3],
) -> Dataset {
    let cfg = DatasetConfig { blocks_per_axis: blocks, cells_per_block: cells, ghost: 1, seed: 1 };
    Dataset::custom(
        "test-field",
        BlockDecomposition::new(Aabb::unit(), cfg.blocks_per_axis, cfg.cells_per_block, cfg.ghost),
        Arc::new(field),
        SamplingMode::Direct,
        cfg,
    )
}

/// A context that records charges and sends without any runtime behind it.
#[derive(Default)]
pub struct NullCtx {
    pub compute: f64,
    pub io: f64,
    pub sent: Vec<(usize, Msg, usize)>,
    pub wakes: Vec<(f64, u64)>,
    pub stopped: bool,
    /// Every charge, send and stop in call order (charges bit-exact).
    pub log: Vec<String>,
}

impl NullCtx {
    /// Pop the oldest recorded wake, if any (tests use this to pump
    /// wake-driven processes to completion).
    pub fn take_wake(&mut self) -> Option<(f64, u64)> {
        if self.wakes.is_empty() {
            None
        } else {
            Some(self.wakes.remove(0))
        }
    }
}

impl Context<Msg> for NullCtx {
    fn rank(&self) -> usize {
        0
    }
    fn n_ranks(&self) -> usize {
        1
    }
    fn now(&self) -> f64 {
        self.compute + self.io
    }
    fn charge_compute(&mut self, secs: f64) {
        self.log.push(format!("compute {:#x}", secs.to_bits()));
        self.compute += secs;
    }
    fn charge_io(&mut self, secs: f64) {
        self.log.push(format!("io {:#x}", secs.to_bits()));
        self.io += secs;
    }
    fn send(&mut self, to: usize, msg: Msg, bytes: usize) {
        self.log.push(format!("send {to} {bytes}"));
        self.sent.push((to, msg, bytes));
    }
    fn wake_after(&mut self, delay: f64, token: u64) {
        self.wakes.push((delay, token));
    }
    fn stop_all(&mut self) {
        self.log.push("stop".into());
        self.stopped = true;
    }
}
