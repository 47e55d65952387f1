//! The figure-regeneration harness: workload definitions, parameter sweeps
//! and table printers for every figure in the paper's evaluation (§5,
//! Figures 5–16), plus the §4.3 parameter ablation.

pub mod experiments;
pub mod harness;
pub mod tables;

pub use experiments::{
    case_config, dataset_for, limits_for, run_sweep, CaseResult, SweepScale, Workload,
};
pub use tables::{figure_block, render_markdown};
