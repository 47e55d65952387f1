//! Global-termination detection, factored behind a trait.
//!
//! The paper's drivers all assume a *closed* seed set fixed at start, so
//! "done" is simply "the globally communicated streamline count hits zero"
//! (§4.1). A service taking live queries needs *open-loop* operation:
//! seeds keep arriving while earlier ones integrate. Timely dataflow's
//! progress-tracking model gives the right primitive — a frontier that
//! proves "no more work at or before epoch `e` can ever arrive" — and the
//! [`FrontierDetector`] here generalizes the closed-set count to per-epoch
//! accounting: work is *opened* when an ingest epoch delivers seeds,
//! *retired* as streamlines terminate, and an epoch is complete once the
//! frontier passes it (all its work retired and no earlier epoch open).
//!
//! Both implementations answer the same question through the same trait,
//! and on a closed workload (a single epoch, sealed at start) they make the
//! done-transition at exactly the same event — which is what keeps frontier
//! runs bit-identical to closed-set runs on closed seed sets.

use serde::{Deserialize, Serialize};

/// Which termination detector a run uses. `ClosedSet` is the paper's
/// behaviour and the default; `Frontier` adds per-epoch completion
/// tracking for open-loop ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Single global outstanding-work counter (§4.1's communicated count).
    #[default]
    ClosedSet,
    /// Per-epoch outstanding counters plus a completion frontier.
    Frontier,
}

/// The common interface both detectors implement. All counts are in
/// streamlines; `now` is virtual time and only recorded (never branched on)
/// so closed-set and frontier runs stay schedule-identical.
pub trait TerminationDetector {
    /// `n` streamlines of ingest epoch `epoch` entered the system.
    fn open(&mut self, epoch: u32, n: u64);
    /// `n` streamlines of epoch `epoch` terminated at virtual time `now`.
    fn retire(&mut self, epoch: u32, n: u64, now: f64);
    /// No epoch beyond `n_epochs - 1` will ever arrive. Idempotent.
    fn seal(&mut self, n_epochs: u32);
    /// First epoch not yet known complete (== sealed epoch count once done).
    fn frontier(&self) -> u32;
    /// Streamlines opened but not yet retired, across all epochs.
    fn outstanding(&self) -> u64;
    /// Every epoch has been sealed, opened and fully retired.
    fn is_done(&self) -> bool;
}

/// The paper's detector: one global counter, no epoch structure.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClosedSetDetector {
    outstanding: u64,
    opened: u64,
    retired: u64,
    sealed: Option<u32>,
}

impl TerminationDetector for ClosedSetDetector {
    fn open(&mut self, _epoch: u32, n: u64) {
        self.outstanding += n;
        self.opened += n;
    }

    fn retire(&mut self, _epoch: u32, n: u64, _now: f64) {
        // Saturating, matching the pre-trait counter: resilient re-adoption
        // can double-report a termination and must not wrap.
        self.outstanding = self.outstanding.saturating_sub(n);
        self.retired += n;
    }

    fn seal(&mut self, n_epochs: u32) {
        self.sealed.get_or_insert(n_epochs);
    }

    fn frontier(&self) -> u32 {
        match self.sealed {
            Some(n) if self.outstanding == 0 => n,
            _ => 0,
        }
    }

    fn outstanding(&self) -> u64 {
        self.outstanding
    }

    fn is_done(&self) -> bool {
        self.sealed.is_some() && self.outstanding == 0
    }
}

/// Per-epoch accounting for one ingest epoch.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EpochLedger {
    /// Streamlines opened under this epoch.
    pub opened: u64,
    /// Streamlines of this epoch retired so far.
    pub retired: u64,
    /// Virtual time of the last retirement charged to this epoch.
    pub last_retire: f64,
    /// The epoch's ingest has been observed (even if it carried no seeds).
    /// The frontier cannot pass an undelivered epoch — work for it could
    /// still arrive.
    pub delivered: bool,
}

impl EpochLedger {
    pub fn outstanding(&self) -> u64 {
        self.opened.saturating_sub(self.retired)
    }
}

/// The frontier detector: outstanding work per ingest epoch, and the
/// completion frontier — the first epoch whose work (or any earlier
/// epoch's) is still outstanding or not yet sealed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FrontierDetector {
    /// Ledger per epoch, indexed by epoch id (grown on demand).
    pub epochs: Vec<EpochLedger>,
    /// Total epoch count once sealed.
    sealed: Option<u32>,
    /// Virtual time each epoch's completion was detected, parallel to
    /// `epochs` once complete (NaN while incomplete).
    completed_at: Vec<f64>,
}

impl FrontierDetector {
    fn ledger(&mut self, epoch: u32) -> &mut EpochLedger {
        let idx = epoch as usize;
        if self.epochs.len() <= idx {
            self.epochs.resize_with(idx + 1, EpochLedger::default);
        }
        &mut self.epochs[idx]
    }

    /// Advance the recorded completion times up to the current frontier.
    fn sweep(&mut self, now: f64) {
        let f = self.frontier() as usize;
        while self.completed_at.len() < f {
            self.completed_at.push(now);
        }
    }

    /// Virtual time epoch `epoch` was detected complete, if it is.
    pub fn completed_at(&self, epoch: u32) -> Option<f64> {
        self.completed_at.get(epoch as usize).copied()
    }

    /// `(opened, retired, last_retire)` per epoch, for driver-level folding.
    pub fn ledgers(&self) -> &[EpochLedger] {
        &self.epochs
    }
}

impl TerminationDetector for FrontierDetector {
    fn open(&mut self, epoch: u32, n: u64) {
        let l = self.ledger(epoch);
        l.opened += n;
        l.delivered = true;
    }

    fn retire(&mut self, epoch: u32, n: u64, now: f64) {
        let l = self.ledger(epoch);
        l.retired = l.retired.saturating_add(n);
        // Same saturating discipline as the closed counter: resilient
        // re-adoption can double-report a termination; never let `retired`
        // run past `opened` once the epoch's size is known.
        if l.opened > 0 {
            l.retired = l.retired.min(l.opened);
        }
        l.last_retire = now;
        self.sweep(now);
    }

    fn seal(&mut self, n_epochs: u32) {
        if self.sealed.is_none() {
            self.sealed = Some(n_epochs);
            if self.epochs.len() < n_epochs as usize {
                self.epochs.resize_with(n_epochs as usize, EpochLedger::default);
            }
        }
    }

    fn frontier(&self) -> u32 {
        let Some(n) = self.sealed else { return 0 };
        let mut f = 0u32;
        while f < n {
            match self.epochs.get(f as usize) {
                Some(l) if l.delivered && l.outstanding() == 0 => f += 1,
                _ => break,
            }
        }
        f
    }

    fn outstanding(&self) -> u64 {
        self.epochs.iter().map(|l| l.outstanding()).sum()
    }

    fn is_done(&self) -> bool {
        self.sealed.is_some_and(|n| self.frontier() == n)
    }
}

/// A concrete, serializable detector — the enum drivers embed in their
/// snapshots (no trait objects on the checkpoint path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyDetector {
    Closed(ClosedSetDetector),
    Frontier(FrontierDetector),
}

impl AnyDetector {
    pub fn new(kind: DetectorKind) -> Self {
        match kind {
            DetectorKind::ClosedSet => AnyDetector::Closed(ClosedSetDetector::default()),
            DetectorKind::Frontier => AnyDetector::Frontier(FrontierDetector::default()),
        }
    }

    /// Build a detector pre-opened and sealed over a known ingest plan:
    /// `epoch_totals[e]` streamlines in epoch `e`.
    pub fn sealed_over(kind: DetectorKind, epoch_totals: &[u64]) -> Self {
        let mut d = Self::new(kind);
        for (e, &n) in epoch_totals.iter().enumerate() {
            d.open(e as u32, n);
        }
        d.seal(epoch_totals.len() as u32);
        d
    }

    pub fn frontier_detector(&self) -> Option<&FrontierDetector> {
        match self {
            AnyDetector::Frontier(f) => Some(f),
            AnyDetector::Closed(_) => None,
        }
    }
}

impl TerminationDetector for AnyDetector {
    fn open(&mut self, epoch: u32, n: u64) {
        match self {
            AnyDetector::Closed(d) => d.open(epoch, n),
            AnyDetector::Frontier(d) => d.open(epoch, n),
        }
    }

    fn retire(&mut self, epoch: u32, n: u64, now: f64) {
        match self {
            AnyDetector::Closed(d) => d.retire(epoch, n, now),
            AnyDetector::Frontier(d) => d.retire(epoch, n, now),
        }
    }

    fn seal(&mut self, n_epochs: u32) {
        match self {
            AnyDetector::Closed(d) => d.seal(n_epochs),
            AnyDetector::Frontier(d) => d.seal(n_epochs),
        }
    }

    fn frontier(&self) -> u32 {
        match self {
            AnyDetector::Closed(d) => d.frontier(),
            AnyDetector::Frontier(d) => d.frontier(),
        }
    }

    fn outstanding(&self) -> u64 {
        match self {
            AnyDetector::Closed(d) => d.outstanding(),
            AnyDetector::Frontier(d) => d.outstanding(),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            AnyDetector::Closed(d) => d.is_done(),
            AnyDetector::Frontier(d) => d.is_done(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [AnyDetector; 2] {
        [AnyDetector::new(DetectorKind::ClosedSet), AnyDetector::new(DetectorKind::Frontier)]
    }

    #[test]
    fn closed_workload_transitions_identically() {
        for mut d in both() {
            d.open(0, 5);
            d.seal(1);
            assert!(!d.is_done());
            d.retire(0, 3, 1.0);
            assert!(!d.is_done());
            assert_eq!(d.outstanding(), 2);
            d.retire(0, 2, 2.0);
            assert!(d.is_done());
            assert_eq!(d.frontier(), 1);
        }
    }

    #[test]
    fn zero_seed_run_is_done_once_sealed() {
        for mut d in both() {
            assert!(!d.is_done(), "unsealed detector must not claim done");
            d.open(0, 0);
            d.seal(1);
            assert!(d.is_done(), "sealed empty workload is immediately done");
            assert_eq!(d.outstanding(), 0);
        }
    }

    #[test]
    fn frontier_advances_in_epoch_order() {
        let mut d = AnyDetector::new(DetectorKind::Frontier);
        d.open(0, 2);
        d.open(1, 1);
        d.open(2, 0); // an epoch can deliver zero seeds
        d.seal(3);
        assert_eq!(d.frontier(), 0);
        // Out-of-order completion: epoch 1 drains first, frontier holds.
        d.retire(1, 1, 1.0);
        assert_eq!(d.frontier(), 0);
        assert!(!d.is_done());
        d.retire(0, 2, 2.0);
        // Epoch 0 and 1 complete, empty epoch 2 is trivially complete.
        assert_eq!(d.frontier(), 3);
        assert!(d.is_done());
        let f = d.frontier_detector().unwrap();
        assert_eq!(f.completed_at(0), Some(2.0));
        assert_eq!(f.completed_at(1), Some(2.0), "held behind epoch 0");
        assert_eq!(f.completed_at(2), Some(2.0));
    }

    #[test]
    fn sealed_over_builds_a_complete_plan_view() {
        let d = AnyDetector::sealed_over(DetectorKind::Frontier, &[3, 0, 2]);
        assert_eq!(d.outstanding(), 5);
        assert!(!d.is_done());
        let mut d = d;
        d.retire(0, 3, 1.0);
        d.retire(2, 2, 4.0);
        assert!(d.is_done());
    }

    #[test]
    fn closed_retire_saturates() {
        let mut d = AnyDetector::new(DetectorKind::ClosedSet);
        d.open(0, 1);
        d.seal(1);
        d.retire(0, 1, 1.0);
        d.retire(0, 1, 2.0); // resilient double-report
        assert!(d.is_done());
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn detector_round_trips_through_serde() {
        let mut d = AnyDetector::new(DetectorKind::Frontier);
        d.open(0, 4);
        d.retire(0, 1, 0.5);
        d.seal(2);
        let json = serde_json::to_string(&d).unwrap();
        let back: AnyDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
