//! The metric registry: named counters, gauges, and log2 histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the registered storage: fetch them once at startup and every subsequent
//! update is a single relaxed atomic operation, uncontended across threads.
//! The registry mutex is only taken to register/fetch by name and to
//! snapshot.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two histogram buckets. Bucket `i > 0` covers integer
/// values in `[2^(i-1), 2^i)`; bucket 0 holds exact zeros. With nanosecond
/// values, 2^63 ns ≈ 292 years, so the top bucket is unreachable in
/// practice.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests and as a
    /// struct-field default).
    pub fn standalone() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value. Only for mirroring a legacy snapshot struct into
    /// the registry; live instrumentation should use [`Counter::inc`]/
    /// [`Counter::add`].
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` metric that can move in either direction (stored as bits in an
/// `AtomicU64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn standalone() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[derive(Debug)]
struct HistogramCore {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// A fixed-size log2 histogram of `u64` samples (typically nanoseconds).
///
/// Recording is two relaxed atomic increments; quantiles are approximate,
/// resolved to the geometric midpoint of a power-of-two bucket (within
/// ~±41% of the true value — ample for separating microseconds from
/// milliseconds from seconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn standalone() -> Self {
        Histogram::default()
    }

    /// The bucket a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    pub fn record(&self, value: u64) {
        self.0.counts[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The value at quantile `q` in `[0, 1]`, or `None` if nothing has been
    /// recorded. Resolved to the geometric midpoint of the bucket containing
    /// the q-th sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let snapshot = self.bucket_counts();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in snapshot.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^(i-1), 2^i); bucket 0 is exact.
                return Some(if i == 0 { 0 } else { 2f64.powf(i as f64 - 0.5) as u64 });
            }
        }
        unreachable!("rank <= total")
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time reading of one metric, as produced by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Per-bucket (non-cumulative) counts plus the running sum.
    Histogram {
        count: u64,
        sum: u64,
        buckets: Vec<u64>,
    },
}

/// Named metrics, keyed by Prometheus-legal names (see [`crate::names`] for
/// the stable ones used across the workspace).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn validate_name(name: &str) {
        let mut chars = name.chars();
        let ok = match chars.next() {
            Some(c) => {
                (c.is_ascii_alphabetic() || c == '_' || c == ':')
                    && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            }
            None => false,
        };
        assert!(ok, "invalid metric name `{name}`: must match [a-zA-Z_:][a-zA-Z0-9_:]*");
    }

    /// Register-or-fetch a counter. Panics if `name` is already registered
    /// as a different kind or is not a legal metric name.
    pub fn counter(&self, name: &str) -> Counter {
        Self::validate_name(name);
        let mut metrics = self.metrics.lock();
        let m = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::standalone()));
        match m {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Register-or-fetch a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Self::validate_name(name);
        let mut metrics = self.metrics.lock();
        let m =
            metrics.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::standalone()));
        match m {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Register-or-fetch a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Self::validate_name(name);
        let mut metrics = self.metrics.lock();
        let m = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::standalone()));
        match m {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Convenience: register-or-fetch and overwrite in one call (for
    /// mirroring legacy snapshot structs).
    pub fn set_counter(&self, name: &str, v: u64) {
        self.counter(name).set(v);
    }

    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Read one metric, or `None` if nothing is registered under `name`.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        let metrics = self.metrics.lock();
        metrics.get(name).map(Self::read)
    }

    fn read(m: &Metric) -> MetricValue {
        match m {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram {
                count: h.count(),
                sum: h.sum(),
                buckets: h.bucket_counts(),
            },
        }
    }

    /// Read every metric. Per-metric reads are atomic; the snapshot as a
    /// whole is not (concurrent writers may land between reads).
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        let metrics = self.metrics.lock();
        metrics.iter().map(|(name, m)| (name.clone(), Self::read(m))).collect()
    }

    /// Render every metric in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        crate::prom::render(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.get("requests_total"), Some(MetricValue::Counter(3)));
    }

    #[test]
    fn gauge_set_add_roundtrip() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(1.5);
        g.add(-0.25);
        assert_eq!(g.get(), 1.25);
        assert_eq!(reg.get("depth"), Some(MetricValue::Gauge(1.25)));
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = Histogram::standalone();
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1028);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "zero lands in bucket 0");
        assert_eq!(counts[1], 1, "1 lands in [1,2)");
        assert_eq!(counts[2], 1, "3 lands in [2,4)");
        assert_eq!(counts[11], 1, "1024 lands in [1024,2048)");
    }

    #[test]
    fn histogram_quantiles_match_legacy_latency_semantics() {
        let h = Histogram::standalone();
        for _ in 0..90 {
            h.record(100_000); // ~100 us in ns
        }
        for _ in 0..10 {
            h.record(50_000_000); // 50 ms
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!((50_000..=200_000).contains(&p50), "p50 = {p50}");
        assert!((25_000_000..=100_000_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0).unwrap(), p99);
        assert!(Histogram::standalone().quantile(0.5).is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc();
        reg.gauge("a_gauge").set(2.0);
        reg.histogram("c_hist").record(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a_gauge", "b_total", "c_hist"]);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total");
        reg.gauge("x_total");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        MetricsRegistry::new().counter("1bad name");
    }
}
