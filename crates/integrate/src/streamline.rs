//! The streamline object that algorithms own, advance and communicate.
//!
//! §8 of the paper notes that "communicating streamline geometry accounts
//! for a large proportion of communication cost"; a [`Streamline`] therefore
//! tracks its geometry explicitly and can report both its full communicated
//! size and the compact solver-state-only size the paper's future work
//! contemplates.

use serde::{Deserialize, Serialize};
use streamline_math::Vec3;

/// Globally unique streamline identifier (index into the seed set).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct StreamlineId(pub u32);

impl StreamlineId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why integration of a streamline stopped for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// Left the data domain entirely.
    ExitedDomain,
    /// Hit the per-streamline step budget.
    MaxSteps,
    /// Reached the maximum arc length.
    MaxArcLength,
    /// Reached the maximum integration time.
    MaxTime,
    /// Velocity magnitude fell below the stagnation threshold (critical
    /// point — the attracting structures of §3.1).
    ZeroVelocity,
    /// Step size collapsed below the minimum without progress.
    StepUnderflow,
    /// The block holding the streamline's position could not be loaded
    /// (permanent store fault after retries). The curve up to the failure
    /// point is kept; integration cannot continue without the data.
    BlockUnavailable,
    /// The rank carrying the streamline's in-flight state died (fail-stop)
    /// and no survivor could recover the work. Only the seed is known.
    RankLost,
}

/// Lifecycle state of a streamline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamlineStatus {
    /// Waiting to be integrated in the block that owns `position`.
    Active,
    /// Finished, with the reason.
    Terminated(Termination),
}

/// Compact integration state — what the paper's future-work section calls
/// "solver state": enough to resume integration anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverState {
    pub position: Vec3,
    /// Integration parameter t.
    pub time: f64,
    /// Current adaptive step size.
    pub h: f64,
    pub steps: u64,
    pub arc_length: f64,
}

/// A streamline: identity, solver state, accumulated geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Streamline {
    pub id: StreamlineId,
    pub seed: Vec3,
    pub state: SolverState,
    pub status: StreamlineStatus,
    /// Vertices of the computed curve, starting with the seed. Empty except
    /// for the seed when built with [`Streamline::new_lean`] — the vertex
    /// *count* (`state.steps + 1`) is tracked either way, so communicated
    /// sizes and memory accounting stay faithful to a geometry-carrying run.
    pub geometry: Vec<Vec3>,
    record_geometry: bool,
}

impl Streamline {
    /// A fresh streamline at its seed with initial step size `h0`.
    pub fn new(id: StreamlineId, seed: Vec3, h0: f64) -> Self {
        Streamline {
            id,
            seed,
            state: SolverState { position: seed, time: 0.0, h: h0, steps: 0, arc_length: 0.0 },
            status: StreamlineStatus::Active,
            geometry: vec![seed],
            record_geometry: true,
        }
    }

    /// Like [`Streamline::new`] but without storing vertices — used by the
    /// scaling experiments, where tens of thousands of long streamlines
    /// would otherwise dominate host memory.
    pub fn new_lean(id: StreamlineId, seed: Vec3, h0: f64) -> Self {
        let mut s = Self::new(id, seed, h0);
        s.record_geometry = false;
        s
    }

    pub fn is_active(&self) -> bool {
        self.status == StreamlineStatus::Active
    }

    /// Whether accepted steps append to [`Self::geometry`] (false for
    /// [`Streamline::new_lean`]).
    pub fn records_geometry(&self) -> bool {
        self.record_geometry
    }

    /// Record an accepted integration step.
    pub fn push_step(&mut self, new_pos: Vec3, dt: f64) {
        self.state.arc_length += new_pos.distance(self.state.position);
        self.state.position = new_pos;
        self.state.time += dt;
        self.state.steps += 1;
        if self.record_geometry {
            self.geometry.push(new_pos);
        }
    }

    pub fn terminate(&mut self, why: Termination) {
        self.status = StreamlineStatus::Terminated(why);
    }

    /// Number of curve vertices computed so far (seed included), whether or
    /// not they are stored.
    pub fn vertex_count(&self) -> u64 {
        self.state.steps + 1
    }

    /// Bytes needed to communicate this streamline *with* geometry — what the
    /// measured algorithms send (§8: geometry dominates communication cost).
    pub fn comm_bytes_full(&self) -> usize {
        Self::COMM_BYTES_STATE + self.vertex_count() as usize * 24
    }

    /// Bytes for solver state + identity only (the compact alternative the
    /// paper's future work proposes).
    pub const COMM_BYTES_STATE: usize = 4 /* id */ + 24 /* seed */ + 8 * 7 /* state */ + 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_streamline_is_active_at_seed() {
        let s = Streamline::new(StreamlineId(5), Vec3::new(1.0, 2.0, 3.0), 0.01);
        assert!(s.is_active());
        assert_eq!(s.state.position, s.seed);
        assert_eq!(s.geometry, vec![s.seed]);
        assert_eq!(s.state.steps, 0);
    }

    #[test]
    fn push_step_accumulates() {
        let mut s = Streamline::new(StreamlineId(0), Vec3::ZERO, 0.01);
        s.push_step(Vec3::new(3.0, 4.0, 0.0), 0.5);
        s.push_step(Vec3::new(3.0, 4.0, 1.0), 0.25);
        assert_eq!(s.state.steps, 2);
        assert!((s.state.arc_length - 6.0).abs() < 1e-12);
        assert!((s.state.time - 0.75).abs() < 1e-12);
        assert_eq!(s.geometry.len(), 3);
    }

    #[test]
    fn terminate_changes_status() {
        let mut s = Streamline::new(StreamlineId(0), Vec3::ZERO, 0.01);
        s.terminate(Termination::ExitedDomain);
        assert!(!s.is_active());
        assert_eq!(s.status, StreamlineStatus::Terminated(Termination::ExitedDomain));
    }

    #[test]
    fn comm_bytes_grow_with_geometry() {
        let mut s = Streamline::new(StreamlineId(0), Vec3::ZERO, 0.01);
        let before = s.comm_bytes_full();
        for i in 0..10 {
            s.push_step(Vec3::splat(i as f64), 0.1);
        }
        assert_eq!(s.comm_bytes_full(), before + 10 * 24);
        assert!(Streamline::COMM_BYTES_STATE < before);
    }

    #[test]
    fn lean_streamline_tracks_counts_without_vertices() {
        let mut full = Streamline::new(StreamlineId(0), Vec3::ZERO, 0.01);
        let mut lean = Streamline::new_lean(StreamlineId(0), Vec3::ZERO, 0.01);
        for i in 0..5 {
            let p = Vec3::splat(i as f64 + 1.0);
            full.push_step(p, 0.1);
            lean.push_step(p, 0.1);
        }
        assert_eq!(lean.geometry.len(), 1);
        assert_eq!(full.geometry.len(), 6);
        assert_eq!(lean.vertex_count(), full.vertex_count());
        assert_eq!(lean.comm_bytes_full(), full.comm_bytes_full());
        assert_eq!(lean.state, full.state);
    }
}
