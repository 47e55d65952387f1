//! Open-loop seed ingestion: epoch-batched seed arrival schedules.
//!
//! The paper's runs are *closed*: every seed exists at `t = 0`. A
//! [`SeedSource`] generalizes that to a stream — epoch 0 is the base seed
//! set handed to ranks at start, and each later epoch is a batch of seeds
//! that arrives at a scheduled virtual time while earlier work is still
//! integrating. Streamline ids are assigned contiguously in epoch order,
//! so any rank can recover a seed's ingest epoch from its id alone (no
//! extra wire bytes on hand-offs), and the driver's conservation
//! accounting (`completed + unavailable + rank_lost == ingested`) indexes
//! one flat id space exactly as it does for closed runs.

use serde::{Deserialize, Serialize};
use std::fmt;
use streamline_field::seeds::SeedSet;
use streamline_integrate::StreamlineId;
use streamline_math::Vec3;

/// A typed rejection at ingestion time. The collect-time dedup downstream
/// assumes ids are unique per run; a malformed source must fail loudly
/// here, not silently drop trajectories there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IngestError {
    /// The same streamline id was submitted twice (possibly in different
    /// epochs).
    DuplicateSeedId { id: u32, first_epoch: u32, second_epoch: u32 },
    /// Explicit ids must tile `0..n` in epoch order so id ranges map back
    /// to epochs.
    NonContiguousIds { expected: u32, got: u32, epoch: u32 },
    /// Arrival times must be finite and non-negative.
    BadArrivalTime { epoch: u32, at: f64 },
    /// Arrival times must be non-decreasing in epoch order.
    NonMonotoneArrival { epoch: u32, at: f64, previous: f64 },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::DuplicateSeedId { id, first_epoch, second_epoch } => write!(
                f,
                "duplicate seed id {id}: first in epoch {first_epoch}, again in epoch {second_epoch}"
            ),
            IngestError::NonContiguousIds { expected, got, epoch } => {
                write!(f, "epoch {epoch}: expected seed id {expected}, got {got}")
            }
            IngestError::BadArrivalTime { epoch, at } => {
                write!(f, "epoch {epoch}: arrival time {at} is not finite and non-negative")
            }
            IngestError::NonMonotoneArrival { epoch, at, previous } => {
                write!(f, "epoch {epoch}: arrival time {at} precedes epoch {}'s {previous}", epoch - 1)
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// One ingest batch: `points` arrive together at virtual time `at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestEpoch {
    pub at: f64,
    pub points: Vec<Vec3>,
}

/// An epoch-batched seed arrival schedule. Epoch 0 (`at == 0`) is the base
/// set delivered at start; epochs `1..` arrive as scheduled events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedSource {
    pub label: String,
    epochs: Vec<IngestEpoch>,
}

impl SeedSource {
    /// A closed workload: everything in epoch 0, nothing arrives later.
    pub fn closed(seeds: &SeedSet) -> Self {
        SeedSource {
            label: seeds.label.clone(),
            epochs: vec![IngestEpoch { at: 0.0, points: seeds.points.clone() }],
        }
    }

    /// An open workload: `base` at start, then `arrivals` of
    /// `(virtual time, batch)` in non-decreasing time order.
    pub fn new(base: &SeedSet, arrivals: Vec<(f64, Vec<Vec3>)>) -> Result<Self, IngestError> {
        let mut epochs = vec![IngestEpoch { at: 0.0, points: base.points.clone() }];
        let mut prev = 0.0f64;
        for (i, (at, points)) in arrivals.into_iter().enumerate() {
            let epoch = (i + 1) as u32;
            if !at.is_finite() || at < 0.0 {
                return Err(IngestError::BadArrivalTime { epoch, at });
            }
            if at < prev {
                return Err(IngestError::NonMonotoneArrival { epoch, at, previous: prev });
            }
            prev = at;
            epochs.push(IngestEpoch { at, points });
        }
        Ok(SeedSource { label: base.label.clone(), epochs })
    }

    /// An open workload with caller-supplied streamline ids (a service
    /// front-end tagging queries). Ids must be unique — a duplicate is a
    /// typed error, never a silently merged trajectory — and must tile
    /// `0..n` in submission order so epoch recovery by id range works.
    pub fn with_tagged(
        label: &str,
        epochs: Vec<(f64, Vec<(StreamlineId, Vec3)>)>,
    ) -> Result<Self, IngestError> {
        let mut first_seen: std::collections::BTreeMap<u32, u32> =
            std::collections::BTreeMap::new();
        let mut expected = 0u32;
        let mut prev = 0.0f64;
        let mut out = Vec::with_capacity(epochs.len());
        for (i, (at, tagged)) in epochs.into_iter().enumerate() {
            let epoch = i as u32;
            if !at.is_finite() || at < 0.0 || (epoch == 0 && at != 0.0) {
                return Err(IngestError::BadArrivalTime { epoch, at });
            }
            if at < prev {
                return Err(IngestError::NonMonotoneArrival { epoch, at, previous: prev });
            }
            prev = at;
            let mut points = Vec::with_capacity(tagged.len());
            for (id, p) in tagged {
                if let Some(&first) = first_seen.get(&id.0) {
                    return Err(IngestError::DuplicateSeedId {
                        id: id.0,
                        first_epoch: first,
                        second_epoch: epoch,
                    });
                }
                first_seen.insert(id.0, epoch);
                if id.0 != expected {
                    return Err(IngestError::NonContiguousIds { expected, got: id.0, epoch });
                }
                expected += 1;
                points.push(p);
            }
            out.push(IngestEpoch { at, points });
        }
        if out.is_empty() {
            out.push(IngestEpoch { at: 0.0, points: Vec::new() });
        }
        Ok(SeedSource { label: label.to_string(), epochs: out })
    }

    /// `true` when nothing arrives after start — the paper's regime.
    pub fn is_closed(&self) -> bool {
        self.epochs.len() == 1
    }

    pub fn n_epochs(&self) -> u32 {
        self.epochs.len() as u32
    }

    pub fn epochs(&self) -> &[IngestEpoch] {
        &self.epochs
    }

    pub fn total_seeds(&self) -> usize {
        self.epochs.iter().map(|e| e.points.len()).sum()
    }

    /// Seeds per epoch, for sealing a detector over the whole plan.
    pub fn epoch_totals(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.points.len() as u64).collect()
    }

    /// First streamline id of each epoch (ids are contiguous in epoch
    /// order). Length `n_epochs + 1`; the last entry is the total count.
    pub fn epoch_starts(&self) -> Vec<u32> {
        let mut starts = Vec::with_capacity(self.epochs.len() + 1);
        let mut acc = 0u32;
        for e in &self.epochs {
            starts.push(acc);
            acc += e.points.len() as u32;
        }
        starts.push(acc);
        starts
    }

    /// Arrival time of each epoch.
    pub fn epoch_arrivals(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.at).collect()
    }

    /// The flat union of every epoch, ids implicit by position — what the
    /// driver's conservation accounting and output drain index against.
    pub fn all_seeds(&self) -> SeedSet {
        SeedSet {
            label: self.label.clone(),
            points: self.epochs.iter().flat_map(|e| e.points.iter().copied()).collect(),
        }
    }

    /// The base (epoch 0) set, delivered to ranks at start like any closed
    /// run's seeds.
    pub fn base(&self) -> SeedSet {
        SeedSet { label: self.label.clone(), points: self.epochs[0].points.clone() }
    }
}

impl From<&SeedSet> for SeedSource {
    fn from(seeds: &SeedSet) -> Self {
        SeedSource::closed(seeds)
    }
}

/// A cheap id → epoch map shared by every rank: the epoch boundaries in
/// the flat id space. Rebuilt from the run's [`SeedSource`], never carried
/// on the wire.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EpochMap {
    starts: Vec<u32>,
}

impl EpochMap {
    pub fn of(source: &SeedSource) -> Self {
        EpochMap { starts: source.epoch_starts() }
    }

    /// A single-epoch map for closed runs built without a source.
    pub fn closed(n_seeds: u32) -> Self {
        EpochMap { starts: vec![0, n_seeds] }
    }

    pub fn n_epochs(&self) -> u32 {
        (self.starts.len().max(1) - 1) as u32
    }

    /// The ingest epoch a streamline id belongs to. Ids past the known
    /// range fold into the last epoch (defensive; cannot happen for
    /// validated sources).
    pub fn epoch_of(&self, id: StreamlineId) -> u32 {
        if self.starts.len() < 2 {
            return 0;
        }
        match self.starts[..self.starts.len() - 1].binary_search_by(|s| s.cmp(&id.0)) {
            Ok(e) => {
                // Boundary ids belong to the epoch that starts there —
                // unless that epoch is empty, in which case walk forward to
                // the first non-empty one (equal consecutive starts).
                let mut e = e;
                while e + 1 < self.starts.len() - 1 && self.starts[e + 1] == self.starts[e] {
                    e += 1;
                }
                e as u32
            }
            Err(ins) => (ins - 1).min(self.n_epochs() as usize - 1) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> SeedSet {
        SeedSet { label: "t".into(), points: (0..n).map(|i| Vec3::splat(i as f64)).collect() }
    }

    #[test]
    fn closed_source_is_one_epoch() {
        let s = SeedSource::closed(&set(5));
        assert!(s.is_closed());
        assert_eq!(s.n_epochs(), 1);
        assert_eq!(s.total_seeds(), 5);
        assert_eq!(s.epoch_starts(), vec![0, 5]);
    }

    #[test]
    fn arrivals_must_be_monotone_and_finite() {
        let base = set(2);
        assert!(matches!(
            SeedSource::new(&base, vec![(1.0, vec![]), (0.5, vec![])]),
            Err(IngestError::NonMonotoneArrival { epoch: 2, .. })
        ));
        assert!(matches!(
            SeedSource::new(&base, vec![(f64::NAN, vec![])]),
            Err(IngestError::BadArrivalTime { epoch: 1, .. })
        ));
        assert!(matches!(
            SeedSource::new(&base, vec![(-1.0, vec![])]),
            Err(IngestError::BadArrivalTime { .. })
        ));
    }

    #[test]
    fn duplicate_ids_are_a_typed_error() {
        let err = SeedSource::with_tagged(
            "q",
            vec![
                (0.0, vec![(StreamlineId(0), Vec3::ZERO), (StreamlineId(1), Vec3::ZERO)]),
                (2.0, vec![(StreamlineId(1), Vec3::ZERO)]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, IngestError::DuplicateSeedId { id: 1, first_epoch: 0, second_epoch: 1 });
        // A duplicate inside one epoch is caught too.
        let err = SeedSource::with_tagged(
            "q",
            vec![(0.0, vec![(StreamlineId(0), Vec3::ZERO), (StreamlineId(0), Vec3::ZERO)])],
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::DuplicateSeedId { id: 0, .. }));
    }

    #[test]
    fn tagged_ids_must_tile_the_id_space() {
        let err = SeedSource::with_tagged("q", vec![(0.0, vec![(StreamlineId(3), Vec3::ZERO)])])
            .unwrap_err();
        assert_eq!(err, IngestError::NonContiguousIds { expected: 0, got: 3, epoch: 0 });
    }

    #[test]
    fn epoch_map_recovers_epochs_from_ids() {
        let s = SeedSource::new(
            &set(3),
            vec![(1.0, vec![Vec3::ZERO; 2]), (2.0, vec![]), (3.0, vec![Vec3::ZERO])],
        )
        .unwrap();
        assert_eq!(s.epoch_starts(), vec![0, 3, 5, 5, 6]);
        let m = EpochMap::of(&s);
        assert_eq!(m.n_epochs(), 4);
        for (id, want) in [(0u32, 0u32), (2, 0), (3, 1), (4, 1), (5, 3)] {
            assert_eq!(m.epoch_of(StreamlineId(id)), want, "id {id}");
        }
    }

    #[test]
    fn all_seeds_flattens_in_epoch_order() {
        let s = SeedSource::new(&set(2), vec![(1.0, vec![Vec3::splat(9.0)])]).unwrap();
        let all = s.all_seeds();
        assert_eq!(all.len(), 3);
        assert_eq!(all.points[2], Vec3::splat(9.0));
        assert_eq!(s.base().len(), 2);
    }
}
