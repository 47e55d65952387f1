//! Unified observability for the streamline workspace.
//!
//! The paper's entire evaluation (§5) is observability — wall-clock, total
//! I/O time, total communication time, block efficiency `E = (B_L − B_P)/B_L`
//! (Eq. 2), and the Gantt-style utilization analysis behind §8's "processor
//! starvation". This crate is the shared substrate all of it reports
//! through:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and log2 histograms with
//!   lock-free updates through cloned handles. Registration takes a short
//!   mutex; the hot path is one relaxed atomic op. Stable metric names live
//!   in [`names`].
//! - [`PhaseTimeline`]: per-rank, fixed-width-bucket accounting of the four
//!   phases ([`Phase::Compute`], [`Phase::Io`], [`Phase::Comm`],
//!   [`Phase::Idle`]). The desim drivers fill it with *virtual* seconds;
//!   [`WallTimeline`] wraps it behind a mutex and an epoch so serve runs
//!   can fill it with *wall* seconds. Either exports the same
//!   JSON [`TraceFile`] (schema [`TRACE_SCHEMA`]).
//! - [`prom`]: Prometheus text exposition of a registry snapshot, plus a
//!   parser for it so tests (and the CI smoke step) can reconcile the
//!   export against the legacy report structs bit-for-bit.

pub mod names;
pub mod prom;
pub mod registry;
pub mod timeline;

pub use registry::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry, HIST_BUCKETS};
pub use timeline::{
    Phase, PhaseTimeline, PhaseTotals, RankTrace, ScheduleTrace, TraceFile, WallTimeline,
    TRACE_SCHEMA,
};
