//! Per-run results — exactly the quantities the paper's figures plot:
//! wall-clock time, total I/O time, total communication time (§5's metrics)
//! and block efficiency `E = (B_L − B_P)/B_L` (Eq. 2).

use crate::config::Algorithm;
use serde::{Deserialize, Serialize};
use streamline_desim::ProcMetrics;

/// Whether the run completed or died (Figure 13: "the Static Allocation
/// algorithm ran out of memory and was unable to run").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    Completed,
    OutOfMemory {
        rank: usize,
    },
    /// A hybrid master rank died mid-run: its group cannot complete, so the
    /// run ends with a typed failure instead of a hang. `rank` is the first
    /// master to die.
    MasterLost {
        rank: usize,
    },
}

impl RunOutcome {
    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// Everything measured in one run of one algorithm on one problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    pub algorithm: Algorithm,
    pub n_procs: usize,
    pub dataset: String,
    pub seeding: String,
    pub n_seeds: usize,
    pub outcome: RunOutcome,
    /// Wall clock (virtual seconds on the simulation).
    pub wall: f64,
    /// Total time spent reading blocks, summed over ranks (Figures 6/10/14).
    pub io_time: f64,
    /// Total communication time, summed over ranks (Figures 8/11/15).
    pub comm_time: f64,
    /// Total integration time, summed over ranks.
    pub compute_time: f64,
    /// Total idle time, summed over ranks (starvation indicator, §8).
    pub idle_time: f64,
    /// Blocks loaded, B_L.
    pub blocks_loaded: u64,
    /// Blocks purged, B_P.
    pub blocks_purged: u64,
    pub msgs: u64,
    pub bytes_sent: u64,
    /// Streamlines terminated (must equal `n_seeds` on completed runs).
    pub terminated: u64,
    /// Accepted integration steps over all ranks.
    pub total_steps: u64,
    /// Cell-sampler stencil-cache hits over all ranks (field evaluations
    /// that skipped the 8-corner gather).
    #[serde(default)]
    pub sampler_hits: u64,
    /// Cell-sampler stencil gathers over all ranks.
    #[serde(default)]
    pub sampler_misses: u64,
    /// Streamlines advanced through the batch kernel
    /// ([`crate::advance::advance_batch_in_block`]), counted once per
    /// batched block-advance each lane participated in. Zero on scalar runs.
    #[serde(default)]
    pub batched_lanes: u64,
    /// Mean filled fraction of the configured batch width over every
    /// batched block-advance (1.0 = every batch ran full; 0.0 = no batch
    /// kernel calls).
    #[serde(default)]
    pub batch_occupancy: f64,
    /// Block loads retried after transient store errors, over all ranks.
    #[serde(default)]
    pub load_retries: u64,
    /// Block loads abandoned after exhausting retries, over all ranks.
    #[serde(default)]
    pub load_failures: u64,
    /// Streamlines terminated `BlockUnavailable` (including hybrid pool
    /// seeds discarded by block quarantine).
    #[serde(default)]
    pub unavailable_terminations: u64,
    /// Distinct streamlines that returned to a rank that had owned them
    /// before — the "ping pong particles" diagnostic of the follow-up
    /// load-balancing literature. Zero for Load On Demand (no migration).
    #[serde(default)]
    pub pingpong_streamlines: u64,
    /// Load-balancing protocol messages (steal probes, diffusion reports,
    /// work transfers, termination tokens), over all ranks.
    #[serde(default)]
    pub balance_msgs: u64,
    /// Bytes in load-balancing protocol messages, over all ranks.
    #[serde(default)]
    pub balance_bytes: u64,
    /// `(rank, virtual kill time)` of every fail-stop rank death actually
    /// applied during the run, in kill order.
    #[serde(default)]
    pub rank_deaths: Vec<(usize, f64)>,
    /// Streamlines terminated `RankLost`: their in-flight state died with a
    /// rank and only the seed is known. On any run,
    /// `terminated == n_seeds` still holds — completed, unavailable and
    /// rank-lost buckets partition the seed set.
    #[serde(default)]
    pub rank_lost_streamlines: u64,
    /// Streamlines re-queued/re-seeded on survivors after a rank death
    /// (recovery work, not additional seeds).
    #[serde(default)]
    pub reassigned_streamlines: u64,
    /// Mean virtual seconds from a rank's death to the first survivor
    /// suspecting it (0.0 when no death was detected).
    #[serde(default)]
    pub detection_latency_mean: f64,
    /// Max virtual seconds from a rank's death to first suspicion.
    #[serde(default)]
    pub detection_latency_max: f64,
    /// Simulator events silently dropped because their target or sender
    /// rank was dead.
    #[serde(default)]
    pub dropped_events: u64,
    /// Ingest epochs in the run's seed schedule: `n_epochs` for an open
    /// source, 0 for a closed run (the `ingest_*` fields below stay at
    /// their defaults too).
    #[serde(default)]
    pub ingest_epochs: u32,
    /// Epochs the folded per-rank frontier ledgers confirmed fully retired
    /// — equals `ingest_epochs` on a completed open run; 0 on closed runs.
    #[serde(default)]
    pub ingest_frontier_epochs: u32,
    /// Virtual arrival time of each ingest epoch.
    #[serde(default)]
    pub ingest_epoch_arrivals: Vec<f64>,
    /// Virtual time each confirmed epoch completed (frontier order, so
    /// monotone non-decreasing; length `ingest_frontier_epochs`).
    #[serde(default)]
    pub ingest_epoch_completions: Vec<f64>,
    /// Mean arrival→completion lag over confirmed epochs (virtual seconds).
    #[serde(default)]
    pub ingest_lag_mean: f64,
    /// Max arrival→completion lag over confirmed epochs.
    #[serde(default)]
    pub ingest_lag_max: f64,
    /// Runtime events processed.
    pub events: u64,
    pub per_rank: Vec<ProcMetrics>,
}

impl RunReport {
    /// Block efficiency `E = (B_L − B_P)/B_L` (Eq. 2); 1.0 when no loads.
    ///
    /// Computed in `f64` rather than by `u64` subtraction: a report merged
    /// from partial per-worker snapshots can transiently show
    /// `blocks_purged > blocks_loaded`, and the unsigned subtraction
    /// panicked in debug builds.
    pub fn block_efficiency(&self) -> f64 {
        if self.blocks_loaded == 0 {
            1.0
        } else {
            (self.blocks_loaded as f64 - self.blocks_purged as f64) / self.blocks_loaded as f64
        }
    }

    /// Fraction of field evaluations served from the cell sampler's cached
    /// stencil; 0.0 when nothing was sampled.
    pub fn sampler_hit_rate(&self) -> f64 {
        let total = self.sampler_hits + self.sampler_misses;
        if total == 0 {
            0.0
        } else {
            self.sampler_hits as f64 / total as f64
        }
    }

    /// Max-over-mean busy time across ranks (1.0 = perfectly balanced).
    ///
    /// An all-idle run (every rank's busy time is zero — e.g. every seed
    /// was pruned before any rank did work) and an empty `per_rank` are
    /// both trivially balanced: 1.0, never NaN/inf in the summary line.
    /// Non-finite per-rank samples are excluded rather than poisoning the
    /// ratio.
    pub fn load_imbalance(&self) -> f64 {
        let busy: Vec<f64> =
            self.per_rank.iter().map(|m| m.busy()).filter(|b| b.is_finite() && *b >= 0.0).collect();
        let sum: f64 = busy.iter().sum();
        if busy.is_empty() || sum <= 0.0 {
            return 1.0;
        }
        let mean = sum / busy.len() as f64;
        busy.iter().cloned().fold(0.0, f64::max) / mean
    }

    /// Mean participation: the fraction of the run each rank spent actually
    /// integrating, averaged over ranks (1.0 = every rank computed for the
    /// whole run). The follow-up literature's headline scheduling metric.
    pub fn participation(&self) -> f64 {
        if self.wall <= 0.0 || self.per_rank.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .per_rank
            .iter()
            .map(|m| (m.compute / self.wall).clamp(0.0, 1.0))
            .filter(|v| v.is_finite())
            .sum();
        sum / self.per_rank.len() as f64
    }

    /// Share of total rank-time spent communicating (0.0 when idle ranks
    /// dominate this stays small; a master-bottlenecked or steal-happy run
    /// pushes it up).
    pub fn comm_overhead_share(&self) -> f64 {
        let denom = self.n_procs as f64 * self.wall;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.comm_time / denom).clamp(0.0, 1.0)
    }

    /// Mirror the report into `registry` under the stable
    /// `streamline_run_*` names (the paper's §5 quantities).
    pub fn export_into(&self, registry: &streamline_obs::MetricsRegistry) {
        use streamline_obs::names;
        registry.set_gauge(names::RUN_WALL_SECONDS, self.wall);
        registry.set_gauge(names::RUN_COMPUTE_SECONDS, self.compute_time);
        registry.set_gauge(names::RUN_IO_SECONDS, self.io_time);
        registry.set_gauge(names::RUN_COMM_SECONDS, self.comm_time);
        registry.set_gauge(names::RUN_IDLE_SECONDS, self.idle_time);
        registry.set_gauge(names::RUN_RANKS, self.n_procs as f64);
        registry.set_counter(names::RUN_EVENTS_TOTAL, self.events);
        registry.set_counter(names::RUN_MSGS_TOTAL, self.msgs);
        registry.set_counter(names::RUN_BYTES_SENT_TOTAL, self.bytes_sent);
        registry.set_counter(names::RUN_BLOCKS_LOADED_TOTAL, self.blocks_loaded);
        registry.set_counter(names::RUN_BLOCKS_PURGED_TOTAL, self.blocks_purged);
        registry.set_counter(names::RUN_STEPS_TOTAL, self.total_steps);
        registry.set_counter(names::RUN_STREAMLINES_TERMINATED_TOTAL, self.terminated);
        registry.set_counter(names::RUN_SAMPLER_HITS_TOTAL, self.sampler_hits);
        registry.set_counter(names::RUN_SAMPLER_MISSES_TOTAL, self.sampler_misses);
        registry.set_counter(names::RUN_BATCHED_LANES_TOTAL, self.batched_lanes);
        registry.set_gauge(names::RUN_BATCH_OCCUPANCY, self.batch_occupancy);
        registry.set_counter(names::RUN_LOAD_RETRIES_TOTAL, self.load_retries);
        registry.set_counter(names::RUN_LOAD_FAILURES_TOTAL, self.load_failures);
        registry
            .set_counter(names::RUN_UNAVAILABLE_TERMINATIONS_TOTAL, self.unavailable_terminations);
        registry.set_gauge(names::RUN_BLOCK_EFFICIENCY, self.block_efficiency());
        registry.set_gauge(names::RUN_LOAD_IMBALANCE, self.load_imbalance());
        registry.set_counter(names::RUN_PINGPONG_STREAMLINES_TOTAL, self.pingpong_streamlines);
        registry.set_counter(names::RUN_BALANCE_MSGS_TOTAL, self.balance_msgs);
        registry.set_counter(names::RUN_BALANCE_BYTES_TOTAL, self.balance_bytes);
        registry.set_gauge(names::RUN_PARTICIPATION_RATIO, self.participation());
        registry.set_gauge(names::RUN_COMM_OVERHEAD_SHARE, self.comm_overhead_share());
        registry.set_counter(names::RUN_INGEST_EPOCHS, self.ingest_epochs as u64);
        registry.set_counter(names::RUN_FRONTIER_EPOCHS, self.ingest_frontier_epochs as u64);
        registry.set_gauge(names::RUN_FRONTIER_LAG_MEAN_SECONDS, self.ingest_lag_mean);
        registry.set_gauge(names::RUN_FRONTIER_LAG_MAX_SECONDS, self.ingest_lag_max);
        registry.set_counter(names::FAULTS_RANK_DEATHS_TOTAL, self.rank_deaths.len() as u64);
        registry.set_counter(names::FAULTS_RANK_LOST_STREAMLINES_TOTAL, self.rank_lost_streamlines);
        registry.set_counter(
            names::FAULTS_RANK_REASSIGNED_STREAMLINES_TOTAL,
            self.reassigned_streamlines,
        );
        registry.set_counter(names::FAULTS_RANK_DROPPED_EVENTS_TOTAL, self.dropped_events);
        registry.set_gauge(
            names::FAULTS_RANK_DETECTION_LATENCY_MEAN_SECONDS,
            self.detection_latency_mean,
        );
        registry.set_gauge(
            names::FAULTS_RANK_DETECTION_LATENCY_MAX_SECONDS,
            self.detection_latency_max,
        );
    }

    /// [`Self::export_into`] a fresh registry.
    pub fn to_registry(&self) -> streamline_obs::MetricsRegistry {
        let registry = streamline_obs::MetricsRegistry::new();
        self.export_into(&registry);
        registry
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        match self.outcome {
            RunOutcome::Completed => format!(
                "{:<16} p={:<4} wall={:>9.3}s io={:>9.3}s comm={:>9.4}s E={:>5.3} msgs={}",
                self.algorithm.label(),
                self.n_procs,
                self.wall,
                self.io_time,
                self.comm_time,
                self.block_efficiency(),
                self.msgs,
            ),
            RunOutcome::OutOfMemory { rank } => format!(
                "{:<16} p={:<4} OUT OF MEMORY (rank {rank})",
                self.algorithm.label(),
                self.n_procs,
            ),
            RunOutcome::MasterLost { rank } => format!(
                "{:<16} p={:<4} MASTER LOST (rank {rank}) deaths={} rank_lost={}",
                self.algorithm.label(),
                self.n_procs,
                self.rank_deaths.len(),
                self.rank_lost_streamlines,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            algorithm: Algorithm::HybridMasterSlave,
            n_procs: 4,
            dataset: "test".into(),
            seeding: "sparse".into(),
            n_seeds: 10,
            outcome: RunOutcome::Completed,
            wall: 1.0,
            io_time: 0.5,
            comm_time: 0.1,
            compute_time: 2.0,
            idle_time: 0.2,
            blocks_loaded: 10,
            blocks_purged: 4,
            msgs: 7,
            bytes_sent: 1000,
            terminated: 10,
            total_steps: 100,
            sampler_hits: 75,
            sampler_misses: 25,
            batched_lanes: 40,
            batch_occupancy: 0.625,
            load_retries: 0,
            load_failures: 0,
            unavailable_terminations: 0,
            pingpong_streamlines: 2,
            balance_msgs: 5,
            balance_bytes: 400,
            rank_deaths: vec![(1, 0.5)],
            rank_lost_streamlines: 1,
            reassigned_streamlines: 3,
            detection_latency_mean: 0.9,
            detection_latency_max: 1.2,
            dropped_events: 6,
            ingest_epochs: 2,
            ingest_frontier_epochs: 2,
            ingest_epoch_arrivals: vec![0.0, 0.3],
            ingest_epoch_completions: vec![0.4, 0.8],
            ingest_lag_mean: 0.45,
            ingest_lag_max: 0.5,
            events: 12,
            per_rank: vec![
                ProcMetrics { compute: 1.0, ..Default::default() },
                ProcMetrics { compute: 3.0, ..Default::default() },
            ],
        }
    }

    #[test]
    fn efficiency_eq2() {
        let r = report();
        assert!((r.block_efficiency() - 0.6).abs() < 1e-12);
        let mut r2 = r;
        r2.blocks_loaded = 0;
        r2.blocks_purged = 0;
        assert_eq!(r2.block_efficiency(), 1.0);
    }

    #[test]
    fn sampler_hit_rate_from_counters() {
        let mut r = report();
        assert!((r.sampler_hit_rate() - 0.75).abs() < 1e-12);
        r.sampler_hits = 0;
        r.sampler_misses = 0;
        assert_eq!(r.sampler_hit_rate(), 0.0);
    }

    #[test]
    fn deserializes_reports_without_sampler_counters() {
        // Reports written before the counters existed must still load.
        let json = serde_json::to_string(&report()).unwrap();
        let stripped =
            json.replace("\"sampler_hits\":75,", "").replace("\"sampler_misses\":25,", "");
        assert_ne!(json, stripped, "test must actually remove the fields");
        let r: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(r.sampler_hits, 0);
        assert_eq!(r.sampler_misses, 0);
        assert_eq!(r.total_steps, 100);
    }

    #[test]
    fn deserializes_reports_without_resilience_counters() {
        let mut r = report();
        r.load_retries = 3;
        let json = serde_json::to_string(&r).unwrap();
        let stripped = json
            .replace("\"load_retries\":3,", "")
            .replace("\"load_failures\":0,", "")
            .replace("\"unavailable_terminations\":0,", "");
        assert_ne!(json, stripped, "test must actually remove the fields");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.load_retries, 0);
        assert_eq!(back.load_failures, 0);
        assert_eq!(back.unavailable_terminations, 0);
    }

    #[test]
    fn deserializes_reports_without_batch_counters() {
        // Reports written before the batch kernel existed must still load.
        let json = serde_json::to_string(&report()).unwrap();
        let stripped =
            json.replace("\"batched_lanes\":40,", "").replace("\"batch_occupancy\":0.625,", "");
        assert_ne!(json, stripped, "test must actually remove the fields");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.batched_lanes, 0);
        assert_eq!(back.batch_occupancy, 0.0);
        assert_eq!(back.total_steps, 100);
    }

    #[test]
    fn deserializes_reports_without_scheduling_diagnostics() {
        let json = serde_json::to_string(&report()).unwrap();
        let stripped = json
            .replace("\"pingpong_streamlines\":2,", "")
            .replace("\"balance_msgs\":5,", "")
            .replace("\"balance_bytes\":400,", "");
        assert_ne!(json, stripped, "test must actually remove the fields");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.pingpong_streamlines, 0);
        assert_eq!(back.balance_msgs, 0);
        assert_eq!(back.balance_bytes, 0);
    }

    #[test]
    fn deserializes_reports_without_rank_fault_fields() {
        // Reports written before rank fail-stop faults existed must load.
        let json = serde_json::to_string(&report()).unwrap();
        let stripped = json
            .replace("\"rank_deaths\":[[1,0.5]],", "")
            .replace("\"rank_lost_streamlines\":1,", "")
            .replace("\"reassigned_streamlines\":3,", "")
            .replace("\"detection_latency_mean\":0.9,", "")
            .replace("\"detection_latency_max\":1.2,", "")
            .replace("\"dropped_events\":6,", "");
        assert_ne!(json, stripped, "test must actually remove the fields");
        let back: RunReport = serde_json::from_str(&stripped).unwrap();
        assert!(back.rank_deaths.is_empty());
        assert_eq!(back.rank_lost_streamlines, 0);
        assert_eq!(back.reassigned_streamlines, 0);
        assert_eq!(back.detection_latency_mean, 0.0);
        assert_eq!(back.detection_latency_max, 0.0);
        assert_eq!(back.dropped_events, 0);
    }

    #[test]
    fn summary_mentions_master_lost() {
        let mut r = report();
        r.outcome = RunOutcome::MasterLost { rank: 0 };
        assert!(!r.outcome.completed());
        let s = r.summary();
        assert!(s.contains("MASTER LOST"), "{s}");
        assert!(s.contains("rank 0"), "{s}");
    }

    #[test]
    fn registry_mirrors_rank_fault_counters() {
        use streamline_obs::{names, MetricValue};
        let r = report();
        let reg = r.to_registry();
        assert_eq!(reg.get(names::FAULTS_RANK_DEATHS_TOTAL), Some(MetricValue::Counter(1)));
        assert_eq!(
            reg.get(names::FAULTS_RANK_LOST_STREAMLINES_TOTAL),
            Some(MetricValue::Counter(r.rank_lost_streamlines))
        );
        assert_eq!(
            reg.get(names::FAULTS_RANK_REASSIGNED_STREAMLINES_TOTAL),
            Some(MetricValue::Counter(r.reassigned_streamlines))
        );
        assert_eq!(
            reg.get(names::FAULTS_RANK_DROPPED_EVENTS_TOTAL),
            Some(MetricValue::Counter(r.dropped_events))
        );
        let MetricValue::Gauge(lat) =
            reg.get(names::FAULTS_RANK_DETECTION_LATENCY_MAX_SECONDS).unwrap()
        else {
            panic!("latency is a gauge")
        };
        assert_eq!(lat.to_bits(), r.detection_latency_max.to_bits());
    }

    #[test]
    fn participation_and_overhead_shares() {
        let r = report();
        // Ranks computed 1.0s and 3.0s of a 1.0s wall → (1.0 + 1.0)/2
        // after clamping the over-busy rank.
        assert!((r.participation() - 1.0).abs() < 1e-12);
        // comm 0.1s over 4 ranks × 1.0s wall.
        assert!((r.comm_overhead_share() - 0.025).abs() < 1e-12);
        let mut dead = r.clone();
        dead.wall = 0.0;
        assert_eq!(dead.participation(), 0.0);
        assert_eq!(dead.comm_overhead_share(), 0.0);
        let mut empty = r;
        empty.per_rank.clear();
        assert_eq!(empty.participation(), 0.0);
    }

    #[test]
    fn imbalance_max_over_mean() {
        let r = report();
        assert!((r.load_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_survives_purged_exceeding_loaded() {
        // Partial per-worker snapshots merged mid-drain can purge more than
        // they loaded; the old u64 subtraction panicked in debug builds.
        let mut r = report();
        r.blocks_loaded = 2;
        r.blocks_purged = 5;
        let e = r.block_efficiency();
        assert!(e.is_finite());
        assert!((e - (-1.5)).abs() < 1e-12, "E = (2-5)/2, got {e}");
        assert!(r.summary().contains("E="), "summary must still format");
    }

    #[test]
    fn imbalance_of_all_idle_run_is_balanced() {
        let mut r = report();
        r.per_rank = vec![ProcMetrics::default(); 4];
        let imb = r.load_imbalance();
        assert!(imb.is_finite(), "all-idle run must not be NaN/inf, got {imb}");
        assert_eq!(imb, 1.0);
    }

    #[test]
    fn imbalance_of_empty_report_is_balanced() {
        let mut r = report();
        r.per_rank.clear();
        assert_eq!(r.load_imbalance(), 1.0);
    }

    #[test]
    fn imbalance_ignores_non_finite_ranks() {
        let mut r = report();
        r.per_rank.push(ProcMetrics { compute: f64::NAN, ..Default::default() });
        let imb = r.load_imbalance();
        assert!(imb.is_finite(), "one poisoned rank must not break the metric");
        assert!((imb - 1.5).abs() < 1e-12, "finite ranks still balance to 1.5, got {imb}");
    }

    #[test]
    fn registry_mirror_matches_report_bit_for_bit() {
        use streamline_obs::{names, MetricValue};
        let r = report();
        let reg = r.to_registry();
        assert_eq!(reg.get(names::RUN_EVENTS_TOTAL), Some(MetricValue::Counter(r.events)));
        assert_eq!(
            reg.get(names::RUN_BLOCKS_LOADED_TOTAL),
            Some(MetricValue::Counter(r.blocks_loaded))
        );
        let MetricValue::Gauge(wall) = reg.get(names::RUN_WALL_SECONDS).unwrap() else {
            panic!("wall is a gauge")
        };
        assert_eq!(wall.to_bits(), r.wall.to_bits());
        let MetricValue::Gauge(e) = reg.get(names::RUN_BLOCK_EFFICIENCY).unwrap() else {
            panic!("efficiency is a gauge")
        };
        assert_eq!(e.to_bits(), r.block_efficiency().to_bits());
        assert_eq!(
            reg.get(names::RUN_BATCHED_LANES_TOTAL),
            Some(MetricValue::Counter(r.batched_lanes))
        );
        let MetricValue::Gauge(occ) = reg.get(names::RUN_BATCH_OCCUPANCY).unwrap() else {
            panic!("occupancy is a gauge")
        };
        assert_eq!(occ.to_bits(), r.batch_occupancy.to_bits());
    }

    #[test]
    fn summary_mentions_oom() {
        let mut r = report();
        r.outcome = RunOutcome::OutOfMemory { rank: 2 };
        assert!(r.summary().contains("OUT OF MEMORY"));
    }

    #[test]
    fn report_serializes() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_procs, 4);
        assert!(back.outcome.completed());
    }
}
