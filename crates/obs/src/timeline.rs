//! Per-rank phase timelines: virtual-time (desim) and wall-clock (threads,
//! serve) utilization accounting over fixed-width buckets, and the JSON
//! trace file both export.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Schema tag written into every [`TraceFile`].
pub const TRACE_SCHEMA: &str = "streamline-trace-v1";

/// What a span of time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Compute,
    Io,
    Comm,
    Idle,
}

impl Phase {
    pub const ALL: [Phase; 4] = [Phase::Compute, Phase::Io, Phase::Comm, Phase::Idle];

    pub fn index(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::Io => 1,
            Phase::Comm => 2,
            Phase::Idle => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Io => "io",
            Phase::Comm => "comm",
            Phase::Idle => "idle",
        }
    }
}

/// Per-rank, per-bucket seconds, split by phase.
///
/// Buckets are fixed-width windows of the run's time axis (virtual seconds
/// in desim runs, wall seconds since the epoch in threaded/serve runs). The
/// result is a utilization heat map over (rank, time) — the direct
/// visualization of load imbalance and of §8's "processor starvation".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTimeline {
    pub bucket_width: f64,
    pub n_ranks: usize,
    /// `[rank][bucket] = [compute, io, comm, idle]` seconds.
    buckets: Vec<Vec<[f64; 4]>>,
}

impl PhaseTimeline {
    pub fn new(n_ranks: usize, bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0 && bucket_width.is_finite());
        PhaseTimeline { bucket_width, n_ranks, buckets: vec![Vec::new(); n_ranks] }
    }

    /// Record `dt` seconds of `phase` starting at `t0` on `rank`,
    /// distributing it across the buckets it spans.
    ///
    /// Bucket selection is integer arithmetic with an explicit boundary
    /// correction, not a floating-point epsilon nudge: `t0 / width` can land
    /// one bucket off in either direction once its magnitude is large enough
    /// that an absolute nudge (the old `+ 1e-9`) is below one ulp of the
    /// quotient. The correction loops walk to the unique bucket `b` with
    /// `b*width <= t0 < (b+1)*width` under the same rounding the readers
    /// use, so a charge starting exactly on a boundary lands in the bucket
    /// it opens — at any magnitude — and no bucket is ever skipped.
    pub fn add(&mut self, rank: usize, phase: Phase, t0: f64, dt: f64) {
        debug_assert!(rank < self.n_ranks);
        debug_assert!(t0 >= 0.0 && t0.is_finite());
        if dt <= 0.0 || !dt.is_finite() || !t0.is_finite() || t0 < 0.0 {
            return;
        }
        let k = phase.index();
        let w = self.bucket_width;
        let end = t0 + dt;
        let mut b = (t0 / w) as usize;
        while (b + 1) as f64 * w <= t0 {
            b += 1;
        }
        while b > 0 && b as f64 * w > t0 {
            b -= 1;
        }
        let row = &mut self.buckets[rank];
        loop {
            let b_end = (b + 1) as f64 * w;
            let lo = t0.max(b as f64 * w);
            let hi = end.min(b_end);
            if hi > lo {
                if row.len() <= b {
                    row.resize(b + 1, [0.0; 4]);
                }
                row[b][k] += hi - lo;
            }
            if end <= b_end {
                break;
            }
            b += 1;
        }
    }

    /// Number of buckets in the longest rank row.
    pub fn n_buckets(&self) -> usize {
        self.buckets.iter().map(|r| r.len()).max().unwrap_or(0)
    }

    /// Busy fraction (compute + I/O + comm; recorded idle excluded) of one
    /// (rank, bucket) cell, in `[0, 1+ε]`.
    pub fn utilization(&self, rank: usize, bucket: usize) -> f64 {
        self.buckets[rank]
            .get(bucket)
            .map(|b| (b[0] + b[1] + b[2]) / self.bucket_width)
            .unwrap_or(0.0)
    }

    /// Seconds of `phase` recorded for `rank`, across all buckets.
    pub fn phase_total(&self, rank: usize, phase: Phase) -> f64 {
        let k = phase.index();
        self.buckets[rank].iter().map(|b| b[k]).sum()
    }

    /// Per-phase seconds summed over all ranks.
    pub fn totals(&self) -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for rank in 0..self.n_ranks {
            t.compute += self.phase_total(rank, Phase::Compute);
            t.io += self.phase_total(rank, Phase::Io);
            t.comm += self.phase_total(rank, Phase::Comm);
            t.idle += self.phase_total(rank, Phase::Idle);
        }
        t
    }

    /// ASCII heat map: one row per rank, one column per bucket (columns are
    /// merged down to at most `max_cols`). `#` ≈ fully busy, space = idle.
    pub fn render(&self, max_cols: usize) -> String {
        let nb = self.n_buckets().max(1);
        let merge = nb.div_ceil(max_cols.max(1));
        let cols = nb.div_ceil(merge);
        let shades = [' ', '.', ':', 'x', '#'];
        let mut out = String::new();
        for rank in 0..self.n_ranks {
            let mut row = String::with_capacity(cols + 8);
            row.push_str(&format!("{rank:>4} |"));
            for c in 0..cols {
                let mut u = 0.0;
                for b in c * merge..((c + 1) * merge).min(nb) {
                    u += self.utilization(rank, b);
                }
                u /= merge as f64;
                let level =
                    ((u * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
                row.push(shades[level]);
            }
            row.push('|');
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// Fraction of total (rank × time) area that was not busy — the headline
    /// starvation number. Derived from the busy phases (independent of
    /// whether idle spans were recorded explicitly).
    pub fn idle_fraction(&self) -> f64 {
        let nb = self.n_buckets();
        if nb == 0 {
            return 0.0;
        }
        let total = (nb * self.n_ranks) as f64 * self.bucket_width;
        let busy: f64 =
            self.buckets.iter().flat_map(|r| r.iter()).map(|b| b[0] + b[1] + b[2]).sum();
        (1.0 - busy / total).max(0.0)
    }

    /// Export as a [`TraceFile`]. `clock` should be `"virtual"` (desim) or
    /// `"wall"` (threads/serve).
    pub fn to_trace(&self, clock: &str) -> TraceFile {
        let nb = self.n_buckets();
        let ranks: Vec<RankTrace> = (0..self.n_ranks)
            .map(|rank| {
                let mut buckets = self.buckets[rank].clone();
                buckets.resize(nb, [0.0; 4]);
                RankTrace {
                    rank,
                    totals: PhaseTotals {
                        compute: self.phase_total(rank, Phase::Compute),
                        io: self.phase_total(rank, Phase::Io),
                        comm: self.phase_total(rank, Phase::Comm),
                        idle: self.phase_total(rank, Phase::Idle),
                    },
                    buckets,
                }
            })
            .collect();
        TraceFile {
            schema: TRACE_SCHEMA.to_string(),
            clock: clock.to_string(),
            bucket_width: self.bucket_width,
            n_ranks: self.n_ranks,
            phases: Phase::ALL.iter().map(|p| p.name().to_string()).collect(),
            totals: self.totals(),
            ranks,
            schedule: None,
        }
    }
}

/// Scheduling-diagnostics series (the follow-up load-balancing papers'
/// quantities), derived from a [`PhaseTimeline`] plus the run's ping-pong
/// arrival times. Rides inside a [`TraceFile`] as an optional section so
/// pre-existing traces still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleTrace {
    /// Per-bucket participation: mean over ranks of the fraction of the
    /// bucket spent computing, in `[0, 1]`. The follow-up literature's
    /// headline scheduling curve ("what fraction of the machine is actually
    /// integrating right now").
    pub participation: Vec<f64>,
    /// Cumulative ping-pong arrivals at the end of each bucket (monotone
    /// nondecreasing; last value = total ping-pong events).
    pub pingpong_cumulative: Vec<u64>,
    /// Each phase's share of the total `ranks × buckets × width` area;
    /// the four shares sum to at most 1 (uncharged time is unattributed).
    pub shares: PhaseTotals,
    /// Rank fail-stop deaths applied during the run, as raw
    /// `(rank, virtual time)` events. Empty on fault-free runs;
    /// `#[serde(default)]` keeps pre-existing traces parsing.
    #[serde(default)]
    pub rank_deaths: Vec<(usize, f64)>,
    /// Cumulative applied rank deaths at the end of each bucket, aligned
    /// with the other series. Empty unless deaths were recorded.
    #[serde(default)]
    pub rank_deaths_cumulative: Vec<u64>,
    /// Cumulative ingest epochs that have *arrived* by the end of each
    /// bucket — the open-vs-closed signature series: a closed run never
    /// records it (empty), an open run shows a staircase climbing while
    /// work is already draining. `#[serde(default)]` keeps older traces
    /// parsing.
    #[serde(default)]
    pub ingest_epochs_cumulative: Vec<u64>,
    /// Cumulative ingest epochs the termination frontier has *confirmed
    /// complete* by the end of each bucket, aligned with the arrival
    /// staircase (always at or below it — an epoch cannot complete before
    /// it arrives). Empty on closed runs.
    #[serde(default)]
    pub frontier_epochs_cumulative: Vec<u64>,
}

impl ScheduleTrace {
    /// Derive the series from a recorded timeline and the sorted virtual
    /// times of ping-pong arrivals. Arrivals past the last bucket are
    /// counted in the last bucket (they happened by end of run).
    pub fn from_timeline(timeline: &PhaseTimeline, pingpong_times: &[f64]) -> Self {
        let nb = timeline.n_buckets();
        let w = timeline.bucket_width;
        let participation: Vec<f64> = (0..nb)
            .map(|b| {
                let sum: f64 = (0..timeline.n_ranks)
                    .map(|r| {
                        timeline.buckets[r]
                            .get(b)
                            .map(|cell| (cell[Phase::Compute.index()] / w).clamp(0.0, 1.0))
                            .unwrap_or(0.0)
                    })
                    .sum();
                if timeline.n_ranks == 0 {
                    0.0
                } else {
                    sum / timeline.n_ranks as f64
                }
            })
            .collect();
        let mut pingpong_cumulative = vec![0u64; nb];
        if nb > 0 {
            for &t in pingpong_times {
                let b = ((t / w) as usize).min(nb - 1);
                pingpong_cumulative[b] += 1;
            }
            for b in 1..nb {
                pingpong_cumulative[b] += pingpong_cumulative[b - 1];
            }
        }
        let area = (timeline.n_ranks * nb) as f64 * w;
        let totals = timeline.totals();
        let shares = if area > 0.0 {
            PhaseTotals {
                compute: totals.compute / area,
                io: totals.io / area,
                comm: totals.comm / area,
                idle: totals.idle / area,
            }
        } else {
            PhaseTotals::default()
        };
        ScheduleTrace {
            participation,
            pingpong_cumulative,
            shares,
            rank_deaths: Vec::new(),
            rank_deaths_cumulative: Vec::new(),
            ingest_epochs_cumulative: Vec::new(),
            frontier_epochs_cumulative: Vec::new(),
        }
    }

    /// Attach a run's applied rank-death schedule: the raw `(rank, time)`
    /// events plus a cumulative per-bucket series aligned with the other
    /// curves. A death past the last bucket counts in the last bucket (it
    /// happened by end of run). No-op when `deaths` is empty, so fault-free
    /// traces stay byte-identical.
    pub fn with_rank_deaths(mut self, timeline: &PhaseTimeline, deaths: &[(usize, f64)]) -> Self {
        if deaths.is_empty() {
            return self;
        }
        let nb = timeline.n_buckets();
        let w = timeline.bucket_width;
        let mut cumulative = vec![0u64; nb];
        if nb > 0 {
            for &(_, t) in deaths {
                let b = ((t / w) as usize).min(nb - 1);
                cumulative[b] += 1;
            }
            for b in 1..nb {
                cumulative[b] += cumulative[b - 1];
            }
        }
        self.rank_deaths = deaths.to_vec();
        self.rank_deaths_cumulative = cumulative;
        self
    }

    /// Attach a run's ingest schedule: cumulative arrived epochs and
    /// cumulative frontier-confirmed epochs per bucket. An event past the
    /// last bucket counts in the last bucket. No-op on closed schedules
    /// (one epoch or fewer), so closed traces stay byte-identical.
    pub fn with_ingest(
        mut self,
        timeline: &PhaseTimeline,
        arrivals: &[f64],
        completions: &[f64],
    ) -> Self {
        if arrivals.len() <= 1 {
            return self;
        }
        let nb = timeline.n_buckets();
        let w = timeline.bucket_width;
        let staircase = |times: &[f64]| -> Vec<u64> {
            let mut c = vec![0u64; nb];
            if nb > 0 {
                for &t in times {
                    let b = ((t / w) as usize).min(nb - 1);
                    c[b] += 1;
                }
                for b in 1..nb {
                    c[b] += c[b - 1];
                }
            }
            c
        };
        self.ingest_epochs_cumulative = staircase(arrivals);
        self.frontier_epochs_cumulative = staircase(completions);
        self
    }
}

/// Seconds per phase, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    pub compute: f64,
    pub io: f64,
    pub comm: f64,
    pub idle: f64,
}

impl PhaseTotals {
    /// compute + io + comm.
    pub fn busy(&self) -> f64 {
        self.compute + self.io + self.comm
    }
}

/// One rank's share of a [`TraceFile`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankTrace {
    pub rank: usize,
    pub totals: PhaseTotals,
    /// `[compute, io, comm, idle]` seconds per bucket; every rank row is
    /// padded to the same length.
    pub buckets: Vec<[f64; 4]>,
}

/// The JSON trace emitted by `slrepro run --trace` and by the serving
/// engine's `timeline()` (wall clock).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    /// Always [`TRACE_SCHEMA`].
    pub schema: String,
    /// `"virtual"` (desim) or `"wall"` (threads/serve).
    pub clock: String,
    /// Seconds per bucket.
    pub bucket_width: f64,
    pub n_ranks: usize,
    /// Phase names, in bucket-array order.
    pub phases: Vec<String>,
    pub totals: PhaseTotals,
    pub ranks: Vec<RankTrace>,
    /// Scheduling-diagnostics series; absent in traces written before the
    /// section existed.
    #[serde(default)]
    pub schedule: Option<ScheduleTrace>,
}

impl TraceFile {
    /// Structural sanity: schema/clock tags, consistent rank rows, finite
    /// non-negative samples, and per-rank totals that match the buckets.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != TRACE_SCHEMA {
            return Err(format!("unknown schema `{}`", self.schema));
        }
        if self.clock != "virtual" && self.clock != "wall" {
            return Err(format!("unknown clock `{}`", self.clock));
        }
        if !(self.bucket_width > 0.0 && self.bucket_width.is_finite()) {
            return Err(format!("bad bucket_width {}", self.bucket_width));
        }
        if self.phases != ["compute", "io", "comm", "idle"] {
            return Err(format!("unexpected phases {:?}", self.phases));
        }
        if self.ranks.len() != self.n_ranks {
            return Err(format!("{} rank rows for n_ranks {}", self.ranks.len(), self.n_ranks));
        }
        let nb = self.ranks.first().map(|r| r.buckets.len()).unwrap_or(0);
        let mut sum = PhaseTotals::default();
        for (i, r) in self.ranks.iter().enumerate() {
            if r.rank != i {
                return Err(format!("rank row {i} labeled {}", r.rank));
            }
            if r.buckets.len() != nb {
                return Err(format!("rank {i} has {} buckets, expected {nb}", r.buckets.len()));
            }
            let mut t = PhaseTotals::default();
            for b in &r.buckets {
                if b.iter().any(|v| !v.is_finite() || *v < 0.0) {
                    return Err(format!("rank {i} has a non-finite or negative sample"));
                }
                t.compute += b[0];
                t.io += b[1];
                t.comm += b[2];
                t.idle += b[3];
            }
            for (name, got, stated) in [
                ("compute", t.compute, r.totals.compute),
                ("io", t.io, r.totals.io),
                ("comm", t.comm, r.totals.comm),
                ("idle", t.idle, r.totals.idle),
            ] {
                if (got - stated).abs() > 1e-9 * (1.0 + stated.abs()) {
                    return Err(format!("rank {i} {name}: buckets sum {got}, totals {stated}"));
                }
            }
            sum.compute += t.compute;
            sum.io += t.io;
            sum.comm += t.comm;
            sum.idle += t.idle;
        }
        for (name, got, stated) in [
            ("compute", sum.compute, self.totals.compute),
            ("io", sum.io, self.totals.io),
            ("comm", sum.comm, self.totals.comm),
            ("idle", sum.idle, self.totals.idle),
        ] {
            if (got - stated).abs() > 1e-9 * (1.0 + stated.abs()) {
                return Err(format!("global {name}: ranks sum {got}, totals {stated}"));
            }
        }
        if let Some(s) = &self.schedule {
            if s.participation.len() != nb {
                return Err(format!(
                    "schedule participation has {} buckets, trace has {nb}",
                    s.participation.len()
                ));
            }
            if s.pingpong_cumulative.len() != nb {
                return Err(format!(
                    "schedule ping-pong series has {} buckets, trace has {nb}",
                    s.pingpong_cumulative.len()
                ));
            }
            for (b, &p) in s.participation.iter().enumerate() {
                if !p.is_finite() || !(0.0..=1.0 + 1e-9).contains(&p) {
                    return Err(format!("participation[{b}] = {p} outside [0, 1]"));
                }
            }
            for w in s.pingpong_cumulative.windows(2) {
                if w[1] < w[0] {
                    return Err(format!("ping-pong series not monotone: {} then {}", w[0], w[1]));
                }
            }
            let shares = [s.shares.compute, s.shares.io, s.shares.comm, s.shares.idle];
            if shares.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err("schedule shares must be finite and non-negative".into());
            }
            let sum: f64 = shares.iter().sum();
            if sum > 1.0 + 1e-6 {
                return Err(format!("schedule shares sum to {sum} > 1"));
            }
            if !s.rank_deaths.is_empty() || !s.rank_deaths_cumulative.is_empty() {
                if s.rank_deaths_cumulative.len() != nb {
                    return Err(format!(
                        "schedule rank-death series has {} buckets, trace has {nb}",
                        s.rank_deaths_cumulative.len()
                    ));
                }
                for w in s.rank_deaths_cumulative.windows(2) {
                    if w[1] < w[0] {
                        return Err(format!(
                            "rank-death series not monotone: {} then {}",
                            w[0], w[1]
                        ));
                    }
                }
                let total = s.rank_deaths_cumulative.last().copied().unwrap_or(0);
                if total != s.rank_deaths.len() as u64 {
                    return Err(format!(
                        "rank-death series totals {total}, but {} deaths listed",
                        s.rank_deaths.len()
                    ));
                }
                for &(_, t) in &s.rank_deaths {
                    if !t.is_finite() || t < 0.0 {
                        return Err(format!("rank death at non-finite or negative time {t}"));
                    }
                }
            }
            if !s.ingest_epochs_cumulative.is_empty() || !s.frontier_epochs_cumulative.is_empty() {
                if s.ingest_epochs_cumulative.len() != nb {
                    return Err(format!(
                        "ingest series has {} buckets, trace has {nb}",
                        s.ingest_epochs_cumulative.len()
                    ));
                }
                if !s.frontier_epochs_cumulative.is_empty()
                    && s.frontier_epochs_cumulative.len() != nb
                {
                    return Err(format!(
                        "frontier series has {} buckets, trace has {nb}",
                        s.frontier_epochs_cumulative.len()
                    ));
                }
                for (name, series) in [
                    ("ingest", &s.ingest_epochs_cumulative),
                    ("frontier", &s.frontier_epochs_cumulative),
                ] {
                    for w in series.windows(2) {
                        if w[1] < w[0] {
                            return Err(format!(
                                "{name} series not monotone: {} then {}",
                                w[0], w[1]
                            ));
                        }
                    }
                }
                for (b, (&f, &i)) in
                    s.frontier_epochs_cumulative.iter().zip(&s.ingest_epochs_cumulative).enumerate()
                {
                    if f > i {
                        return Err(format!(
                            "bucket {b}: {f} epochs complete but only {i} arrived"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A [`PhaseTimeline`] over wall-clock time, shared across threads.
///
/// Spans are timestamped relative to the `epoch` captured at construction.
/// Recording takes a short mutex — callers record one span per handled
/// event/batch, not per sample, so contention is negligible next to the
/// work being traced.
pub struct WallTimeline {
    epoch: Instant,
    inner: Mutex<PhaseTimeline>,
}

impl WallTimeline {
    pub fn new(n_ranks: usize, bucket_width: Duration) -> Self {
        WallTimeline {
            epoch: Instant::now(),
            inner: Mutex::new(PhaseTimeline::new(n_ranks, bucket_width.as_secs_f64())),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record `dur` of `phase` on `rank`, starting at wall instant `start`.
    pub fn record(&self, rank: usize, phase: Phase, start: Instant, dur: Duration) {
        let t0 = start.saturating_duration_since(self.epoch).as_secs_f64();
        self.inner.lock().add(rank, phase, t0, dur.as_secs_f64());
    }

    /// Record a span and split it across the busy phases proportionally to
    /// `weights = [compute, io, comm]` (e.g. the virtual-cost deltas a
    /// handler charged). A span with no weights is attributed to compute.
    pub fn record_weighted(&self, rank: usize, start: Instant, dur: Duration, weights: [f64; 3]) {
        let t0 = start.saturating_duration_since(self.epoch).as_secs_f64();
        let dt = dur.as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        let mut inner = self.inner.lock();
        if total <= 0.0 {
            inner.add(rank, Phase::Compute, t0, dt);
            return;
        }
        let mut offset = 0.0;
        for (phase, w) in [Phase::Compute, Phase::Io, Phase::Comm].into_iter().zip(weights) {
            if w.is_finite() && w > 0.0 {
                let share = dt * w / total;
                inner.add(rank, phase, t0 + offset, share);
                offset += share;
            }
        }
    }

    /// Copy out the timeline accumulated so far.
    pub fn snapshot(&self) -> PhaseTimeline {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_splits_across_buckets() {
        let mut t = PhaseTimeline::new(2, 1.0);
        t.add(0, Phase::Compute, 0.75, 2.5);
        assert!((t.utilization(0, 0) - 0.25).abs() < 1e-12);
        assert!((t.utilization(0, 1) - 1.0).abs() < 1e-12);
        assert!((t.utilization(0, 2) - 1.0).abs() < 1e-12);
        assert!((t.utilization(0, 3) - 0.25).abs() < 1e-12);
        assert_eq!(t.utilization(1, 1), 0.0);
    }

    #[test]
    fn boundary_exact_start_at_large_t0_lands_in_the_bucket_it_opens() {
        // Regression for the old `+ 1e-9` nudge: once `t0 / width` exceeds
        // ~2e7, one ulp of the quotient is bigger than the nudge, so a
        // charge starting exactly on a bucket boundary under-selected the
        // *previous* bucket — and the `bucket_end <= t` fallback then
        // charged it there and skipped the right bucket entirely.
        let w = 0.0001;
        let b0: usize = 20_480_004;
        let t0 = b0 as f64 * w;
        assert!(
            (t0 / w + 1e-9) as usize == b0 - 1,
            "premise: the nudged quotient must under-select for this regression to bite"
        );
        let mut t = PhaseTimeline::new(1, w);
        t.add(0, Phase::Compute, t0, w);
        assert!(t.utilization(0, b0) > 1.0 - 1e-6, "got {}", t.utilization(0, b0));
        assert!(t.utilization(0, b0 - 1) < 1e-9, "charge leaked into the previous bucket");
        assert!(t.utilization(0, b0) <= 1.0 + 1e-6, "no double-charging");
    }

    #[test]
    fn sub_boundary_charge_is_not_nudged_across() {
        // The nudge also failed in the other direction at any magnitude: a
        // charge lying strictly inside bucket 3, within 1e-9 of the 4.0
        // boundary, was pushed into bucket 4.
        let w = 1.0;
        let t0 = f64::from_bits(4.0f64.to_bits() - 4); // a couple of ulps below 4.0
        let dt = 4.0 - t0; // ends exactly on the boundary
        assert!(t0 < 4.0 && t0 + dt == 4.0);
        assert!((t0 / w + 1e-9) as usize == 4, "premise: the old nudge crossed the boundary");
        let mut t = PhaseTimeline::new(1, w);
        t.add(0, Phase::Compute, t0, dt);
        assert_eq!(t.utilization(0, 4), 0.0, "charge strictly before 4.0 belongs to bucket 3");
        assert!((t.utilization(0, 3) * w - dt).abs() < 1e-18);
    }

    #[test]
    fn boundary_exact_charges_conserve_time_at_small_t0() {
        // 0.03 / 0.01 = 2.999... — the case the old nudge existed for.
        let mut t = PhaseTimeline::new(1, 0.01);
        t.add(0, Phase::Io, 0.03, 0.01);
        assert!((t.utilization(0, 3) - 1.0).abs() < 1e-9);
        assert!(t.utilization(0, 2) < 1e-12);
        assert!(t.utilization(0, 4) < 1e-12);
    }

    #[test]
    fn idle_phase_tracks_separately_from_utilization() {
        let mut t = PhaseTimeline::new(1, 1.0);
        t.add(0, Phase::Compute, 0.0, 0.5);
        t.add(0, Phase::Idle, 0.5, 0.5);
        assert!((t.utilization(0, 0) - 0.5).abs() < 1e-12, "idle is not busy");
        assert!((t.phase_total(0, Phase::Idle) - 0.5).abs() < 1e-12);
        let totals = t.totals();
        assert!((totals.busy() - 0.5).abs() < 1e-12);
        assert!((totals.idle - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trace_file_roundtrip_and_validate() {
        let mut t = PhaseTimeline::new(2, 0.5);
        t.add(0, Phase::Compute, 0.0, 1.2);
        t.add(1, Phase::Io, 0.25, 0.5);
        t.add(1, Phase::Idle, 0.75, 0.25);
        let trace = t.to_trace("virtual");
        trace.validate().expect("fresh trace validates");
        assert_eq!(trace.ranks.len(), 2);
        assert_eq!(trace.ranks[0].buckets.len(), trace.ranks[1].buckets.len());
        let json = serde_json::to_string(&trace).unwrap();
        let back: TraceFile = serde_json::from_str(&json).unwrap();
        back.validate().expect("roundtripped trace validates");
        assert!((back.totals.compute - 1.2).abs() < 1e-12);
        assert!((back.totals.io - 0.5).abs() < 1e-12);
        assert!((back.totals.idle - 0.25).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_corruption() {
        let mut t = PhaseTimeline::new(1, 1.0);
        t.add(0, Phase::Compute, 0.0, 1.0);
        let good = t.to_trace("virtual");

        let mut bad = good.clone();
        bad.schema = "bogus".into();
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.clock = "sundial".into();
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.ranks[0].totals.compute += 1.0;
        assert!(bad.validate().is_err(), "totals must match buckets");

        let mut bad = good.clone();
        bad.ranks[0].buckets[0][1] = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.n_ranks = 2;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn schedule_trace_series_from_timeline() {
        let mut t = PhaseTimeline::new(2, 1.0);
        // Rank 0 computes the whole first bucket; rank 1 half of it.
        t.add(0, Phase::Compute, 0.0, 1.0);
        t.add(1, Phase::Compute, 0.0, 0.5);
        t.add(1, Phase::Comm, 0.5, 0.5);
        t.add(0, Phase::Idle, 1.0, 1.0);
        let s = ScheduleTrace::from_timeline(&t, &[0.25, 0.75, 5.0]);
        assert_eq!(s.participation.len(), 2);
        assert!((s.participation[0] - 0.75).abs() < 1e-12);
        assert_eq!(s.participation[1], 0.0);
        // Two ping-pongs in bucket 0; the arrival past the end clamps into
        // the final bucket.
        assert_eq!(s.pingpong_cumulative, vec![2, 3]);
        // Area = 2 ranks × 2 buckets × 1s.
        assert!((s.shares.compute - 1.5 / 4.0).abs() < 1e-12);
        assert!((s.shares.comm - 0.5 / 4.0).abs() < 1e-12);
        assert!((s.shares.idle - 1.0 / 4.0).abs() < 1e-12);
        let total = s.shares.compute + s.shares.io + s.shares.comm + s.shares.idle;
        assert!(total <= 1.0 + 1e-9, "shares sum {total}");
    }

    #[test]
    fn trace_with_schedule_validates_and_old_traces_still_parse() {
        let mut t = PhaseTimeline::new(2, 0.5);
        t.add(0, Phase::Compute, 0.0, 1.2);
        t.add(1, Phase::Io, 0.25, 0.5);
        let mut trace = t.to_trace("virtual");
        assert!(trace.schedule.is_none(), "schedule is opt-in");
        trace.schedule = Some(ScheduleTrace::from_timeline(&t, &[0.3]));
        trace.validate().expect("schedule section validates");
        let json = serde_json::to_string(&trace).unwrap();
        let back: TraceFile = serde_json::from_str(&json).unwrap();
        back.validate().expect("roundtrip validates");
        assert_eq!(back.schedule, trace.schedule);
        // A trace written before the section existed parses to None.
        let sched_json = serde_json::to_string(&trace.schedule).unwrap();
        let stripped = json.replace(&format!(",\"schedule\":{sched_json}"), "");
        assert_ne!(json, stripped, "test must actually remove the section");
        let old: TraceFile = serde_json::from_str(&stripped).unwrap();
        assert!(old.schedule.is_none());
        old.validate().expect("schedule-less trace validates");
    }

    #[test]
    fn validate_rejects_malformed_schedule_series() {
        let mut t = PhaseTimeline::new(1, 1.0);
        t.add(0, Phase::Compute, 0.0, 2.0);
        let mut trace = t.to_trace("virtual");
        trace.schedule = Some(ScheduleTrace::from_timeline(&t, &[]));
        trace.validate().expect("good schedule");

        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().participation = vec![0.5]; // wrong length
        assert!(bad.validate().is_err());

        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().participation[0] = 1.5;
        assert!(bad.validate().is_err(), "participation above 1 rejected");

        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().pingpong_cumulative = vec![3, 1];
        assert!(bad.validate().is_err(), "non-monotone ping-pong rejected");

        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().shares.comm = 0.9; // pushes sum past 1
        assert!(bad.validate().is_err(), "shares summing past 1 rejected");

        let mut bad = trace;
        bad.schedule.as_mut().unwrap().shares.io = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rank_death_series_accumulates_and_validates() {
        let mut t = PhaseTimeline::new(2, 1.0);
        t.add(0, Phase::Compute, 0.0, 1.0);
        t.add(1, Phase::Compute, 1.0, 1.0);
        // Two deaths in bucket 0, one past the end (clamped to the last).
        let deaths = vec![(0, 0.2), (1, 0.7), (3, 9.0)];
        let s = ScheduleTrace::from_timeline(&t, &[]).with_rank_deaths(&t, &deaths);
        assert_eq!(s.rank_deaths_cumulative, vec![2, 3]);
        assert_eq!(s.rank_deaths, deaths);
        let mut trace = t.to_trace("virtual");
        trace.schedule = Some(s);
        trace.validate().expect("rank-death series validates");
        // No deaths → the series stays empty and the trace byte-identical.
        let empty = ScheduleTrace::from_timeline(&t, &[]).with_rank_deaths(&t, &[]);
        assert_eq!(empty, ScheduleTrace::from_timeline(&t, &[]));
        // Corruption is rejected: non-monotone series, count mismatch.
        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().rank_deaths_cumulative = vec![3, 2];
        assert!(bad.validate().is_err(), "non-monotone rank-death series rejected");
        let mut bad = trace;
        bad.schedule.as_mut().unwrap().rank_deaths.pop();
        assert!(bad.validate().is_err(), "death-count mismatch rejected");
    }

    #[test]
    fn ingest_series_accumulates_and_validates() {
        let mut t = PhaseTimeline::new(2, 1.0);
        t.add(0, Phase::Compute, 0.0, 2.0);
        t.add(1, Phase::Compute, 0.0, 2.0);
        // Three epochs: base at 0, arrivals in buckets 0 and 1; the last
        // completion lands past the end and clamps to the final bucket.
        let arrivals = [0.0, 0.4, 1.2];
        let completions = [0.9, 1.5, 7.0];
        let s = ScheduleTrace::from_timeline(&t, &[]).with_ingest(&t, &arrivals, &completions);
        assert_eq!(s.ingest_epochs_cumulative, vec![2, 3]);
        assert_eq!(s.frontier_epochs_cumulative, vec![1, 3]);
        let mut trace = t.to_trace("virtual");
        trace.schedule = Some(s);
        trace.validate().expect("ingest series validates");
        // A closed schedule records nothing, keeping the trace byte-identical.
        let closed = ScheduleTrace::from_timeline(&t, &[]).with_ingest(&t, &[0.0], &[2.0]);
        assert_eq!(closed, ScheduleTrace::from_timeline(&t, &[]));
        // Corruption is rejected: completions outrunning arrivals.
        let mut bad = trace.clone();
        bad.schedule.as_mut().unwrap().frontier_epochs_cumulative = vec![3, 3];
        assert!(bad.validate().is_err(), "frontier past ingest rejected");
        let mut bad = trace;
        bad.schedule.as_mut().unwrap().ingest_epochs_cumulative = vec![3, 2];
        assert!(bad.validate().is_err(), "non-monotone ingest series rejected");
    }

    #[test]
    fn wall_timeline_records_relative_to_epoch() {
        let tl = WallTimeline::new(2, Duration::from_millis(10));
        let e = tl.epoch();
        tl.record(0, Phase::Io, e, Duration::from_millis(25));
        tl.record(1, Phase::Idle, e + Duration::from_millis(5), Duration::from_millis(10));
        let snap = tl.snapshot();
        assert!((snap.phase_total(0, Phase::Io) - 0.025).abs() < 1e-9);
        assert!((snap.phase_total(1, Phase::Idle) - 0.010).abs() < 1e-9);
        assert!(snap.utilization(0, 0) > 0.99, "first 10ms bucket is all I/O");
    }

    #[test]
    fn weighted_record_apportions_by_charge_deltas() {
        let tl = WallTimeline::new(1, Duration::from_millis(100));
        let e = tl.epoch();
        tl.record_weighted(0, e, Duration::from_millis(90), [2.0, 1.0, 0.0]);
        let snap = tl.snapshot();
        assert!((snap.phase_total(0, Phase::Compute) - 0.060).abs() < 1e-9);
        assert!((snap.phase_total(0, Phase::Io) - 0.030).abs() < 1e-9);
        assert_eq!(snap.phase_total(0, Phase::Comm), 0.0);
        // No weights at all -> compute.
        tl.record_weighted(0, e, Duration::from_millis(10), [0.0, 0.0, 0.0]);
        assert!((tl.snapshot().phase_total(0, Phase::Compute) - 0.070).abs() < 1e-9);
    }
}
