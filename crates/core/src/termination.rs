//! Global-termination detection.
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
//! On a closed workload (a single epoch, sealed at start) the frontier is
//! exactly §4.1's global count: it makes the done-transition at the same
//! event, so closed runs keep the paper's schedule bit for bit. All counts
//! are in streamlines; `now` is virtual time and only recorded, never
//! branched on.

use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierDetector {
    /// Ledger per epoch, indexed by epoch id (grown on demand).
    pub epochs: Vec<EpochLedger>,
    /// Total epoch count once sealed.
    sealed: Option<u32>,
}

impl Default for FrontierDetector {
    /// Epoch 0, the start set, exists in every run, so its ledger exists
    /// from construction and a closed run never grows one mid-run (a late
    /// small allocation among the integration buffers measurably raised
    /// peak RSS).
    fn default() -> Self {
        FrontierDetector { epochs: vec![EpochLedger::default()], sealed: None }
    }
}

impl FrontierDetector {
    fn ledger(&mut self, epoch: u32) -> &mut EpochLedger {
        let idx = epoch as usize;
        if self.epochs.len() <= idx {
            self.epochs.resize_with(idx + 1, EpochLedger::default);
        }
        &mut self.epochs[idx]
    }

    /// `(opened, retired, last_retire)` per epoch, for driver-level folding.
    pub fn ledgers(&self) -> &[EpochLedger] {
        &self.epochs
    }

    /// Build a detector pre-opened and sealed over a known ingest plan:
    /// `epoch_totals[e]` streamlines in epoch `e`.
    pub fn sealed_over(epoch_totals: &[u64]) -> Self {
        let mut d = Self::default();
        for (e, &n) in epoch_totals.iter().enumerate() {
            d.open(e as u32, n);
        }
        d.seal(epoch_totals.len() as u32);
        d
    }

    /// `n` streamlines of ingest epoch `epoch` entered the system.
    pub fn open(&mut self, epoch: u32, n: u64) {
        let l = self.ledger(epoch);
        l.opened += n;
        l.delivered = true;
    }

    /// `n` streamlines of epoch `epoch` terminated at virtual time `now`.
    pub fn retire(&mut self, epoch: u32, n: u64, now: f64) {
        let l = self.ledger(epoch);
        l.retired = l.retired.saturating_add(n);
        // Resilient re-adoption can double-report a termination; never let
        // `retired` run past `opened` once the epoch's size is known.
        if l.opened > 0 {
            l.retired = l.retired.min(l.opened);
        }
        l.last_retire = now;
    }

    /// No epoch beyond `n_epochs - 1` will ever arrive. Idempotent.
    pub fn seal(&mut self, n_epochs: u32) {
        if self.sealed.is_none() {
            self.sealed = Some(n_epochs);
            if self.epochs.len() < n_epochs as usize {
                self.epochs.resize_with(n_epochs as usize, EpochLedger::default);
            }
        }
    }

    /// First epoch not yet known complete (== sealed epoch count once done).
    pub fn frontier(&self) -> u32 {
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

    /// Streamlines opened but not yet retired, across all epochs.
    pub fn outstanding(&self) -> u64 {
        self.epochs.iter().map(|l| l.outstanding()).sum()
    }

    /// Every epoch has been sealed, opened and fully retired.
    pub fn is_done(&self) -> bool {
        self.sealed.is_some_and(|n| self.frontier() == n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_workload_is_the_global_count() {
        let mut d = FrontierDetector::default();
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

    #[test]
    fn zero_seed_run_is_done_once_sealed() {
        let mut d = FrontierDetector::default();
        assert!(!d.is_done(), "unsealed detector must not claim done");
        d.open(0, 0);
        d.seal(1);
        assert!(d.is_done(), "sealed empty workload is immediately done");
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn frontier_advances_in_epoch_order() {
        let mut d = FrontierDetector::default();
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
    }

    #[test]
    fn sealed_over_builds_a_complete_plan_view() {
        let mut d = FrontierDetector::sealed_over(&[3, 0, 2]);
        assert_eq!(d.outstanding(), 5);
        assert!(!d.is_done());
        d.retire(0, 3, 1.0);
        d.retire(2, 2, 4.0);
        assert!(d.is_done());
    }

    #[test]
    fn retire_saturates() {
        let mut d = FrontierDetector::default();
        d.open(0, 1);
        d.seal(1);
        d.retire(0, 1, 1.0);
        d.retire(0, 1, 2.0); // resilient double-report
        assert!(d.is_done());
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn detector_round_trips_through_serde() {
        let mut d = FrontierDetector::default();
        d.open(0, 4);
        d.retire(0, 1, 0.5);
        d.seal(2);
        let json = serde_json::to_string(&d).unwrap();
        let back: FrontierDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
