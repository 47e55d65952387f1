//! Service-level observability: a lock-free latency histogram and the
//! [`ServiceMetrics`] snapshot returned by `Service::metrics`.
//!
//! Both are now *views* over `streamline_obs`: [`LatencyHistogram`] wraps
//! an [`streamline_obs::Histogram`] (possibly registered in the service's
//! [`streamline_obs::MetricsRegistry`], so the same counts appear in the
//! Prometheus export), and [`ServiceMetrics`] is assembled from registry
//! values by `Service::metrics`.

use serde::Serialize;
use std::time::Duration;
use streamline_iosim::CacheStats;
use streamline_obs::{Histogram, MetricsRegistry};

/// A fixed-size log2 histogram of request latencies, in nanoseconds:
/// bucket `i > 0` covers `[2^(i-1), 2^i)` ns, bucket 0 covers zero. 2^63
/// ns ≈ 292 years, so the top bucket is unreachable in practice.
///
/// Recording is a single relaxed atomic increment, so worker and client
/// threads never contend; quantiles are approximate (resolved to the
/// geometric midpoint of a power-of-two bucket, i.e. within ~±41% of the
/// true value — ample for separating microseconds from milliseconds from
/// seconds).
pub struct LatencyHistogram {
    inner: Histogram,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A free-standing histogram (not visible in any registry).
    pub fn new() -> Self {
        LatencyHistogram { inner: Histogram::standalone() }
    }

    /// A histogram registered in `registry` under `name`, so every
    /// recorded latency also appears in the Prometheus export.
    pub fn in_registry(registry: &MetricsRegistry, name: &str) -> Self {
        LatencyHistogram { inner: registry.histogram(name) }
    }

    pub fn record(&self, latency: Duration) {
        self.inner.record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// The latency at quantile `q` in `[0, 1]`, or `None` if nothing has
    /// been recorded. Resolved to the geometric midpoint of the bucket
    /// containing the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.inner.quantile(q).map(Duration::from_nanos)
    }
}

/// A point-in-time snapshot of service health, serializable to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceMetrics {
    /// Worker threads serving the queues.
    pub workers: usize,
    /// Seconds since the service started.
    pub uptime_secs: f64,
    /// Requests accepted by admission control.
    pub submitted: u64,
    /// Requests that completed (including deadline-expired ones).
    pub completed: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests that hit their deadline before finishing.
    pub deadline_expired: u64,
    /// Requests answered `Outcome::Partial`: every seed resolved, but some
    /// were cut short by unavailable blocks.
    pub partial: u64,
    /// Block loads retried after a store error (each backoff sleep counts
    /// once).
    pub load_retries: u64,
    /// Block loads abandoned after exhausting the retry budget.
    pub load_failures: u64,
    /// Batches answered instantly by an open circuit breaker, without
    /// touching the store.
    pub fast_fails: u64,
    /// Times any block's breaker tripped open, cumulative.
    pub breaker_trips: u64,
    /// Blocks whose breaker is open or half-open right now.
    pub blocks_quarantined: usize,
    /// Worker batches that panicked mid-advance and were contained: the
    /// worker recovered, accounting was repaired, and the affected
    /// requests resolved as the typed `ServiceGone` instead of wedging.
    pub worker_panics: u64,
    /// Requests whose ticket resolved `ServiceGone` because a worker
    /// panic destroyed part of their state.
    pub requests_gone: u64,
    /// Streamlines terminated `BlockUnavailable` (degraded, counted in
    /// `streamlines_completed` too — they do resolve, with a typed
    /// termination and the curve computed so far).
    pub streamlines_unavailable: u64,
    /// Streamlines returned to their requests with a termination.
    pub streamlines_completed: u64,
    /// Accepted integration steps across all workers.
    pub total_steps: u64,
    /// Field evaluations served from a worker's cell-cached stencil.
    pub sampler_hits: u64,
    /// Field evaluations that gathered a fresh 8-corner stencil.
    pub sampler_misses: u64,
    /// sampler_hits / (sampler_hits + sampler_misses); 0.0 before any
    /// sampling.
    pub sampler_hit_rate: f64,
    /// Streamlines advanced through the batch advection kernel, counted
    /// once per batch-kernel call each lane participated in.
    pub batched_lanes: u64,
    /// Seeds admitted but not yet resolved (queued + in flight).
    pub queue_depth: usize,
    /// Admission-control bound on `queue_depth`.
    pub queue_capacity: usize,
    /// Completed requests per second of uptime.
    pub throughput_rps: f64,
    /// Terminated streamlines per second of uptime.
    pub streamlines_per_sec: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    /// Counters from the shared block cache.
    pub cache: CacheStats,
    /// Blocks resident in the shared cache right now.
    pub cache_resident: usize,
    /// Block capacity of the shared cache: exactly `cache_blocks`.
    pub cache_capacity: usize,
    /// Fraction of block acquisitions served without a load:
    /// hits/(hits+loaded). A batch claiming a block that was loaded for it
    /// is that load, not a hit.
    pub cache_hit_rate: f64,
    /// The paper's block efficiency E = (B_L - B_P)/B_L over the shared
    /// cache (Eq. 2): 1.0 means nothing loaded was ever evicted.
    pub block_efficiency: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn quantiles_order_and_bracket_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // ~1e5 ns
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50)); // 5e7 ns
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p99);
        // p50 lands in the 100us bucket (within 2x), p99 in the 50ms bucket.
        assert!(p50 >= Duration::from_micros(50) && p50 <= Duration::from_micros(200));
        assert!(p99 >= Duration::from_millis(25) && p99 <= Duration::from_millis(100));
    }

    #[test]
    fn zero_latency_goes_to_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.quantile(1.0).unwrap(), Duration::ZERO);
    }
}
