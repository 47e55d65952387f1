//! Measurement helpers shared by the workloads: the metric table the result
//! line is built from, quantiles, process memory, streamline digests, the
//! timed block-store wrapper the per-layer I/O numbers come from, and the
//! benchmark's own input generator.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_field::BlockId;
use streamline_integrate::{Streamline, StreamlineStatus, Termination};
use streamline_iosim::{BlockStore, StoreError};

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> + '_ {
        self.0.iter().map(|(name, &(value, unit))| (name.as_str(), value, unit))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Values keep every digit
    /// (Rust's shortest round-trip float formatting); a non-finite value
    /// would not be JSON and prints as 0.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Nearest-rank quantile `q` of `values` (0.0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `a / b`, or 0.0 when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether a streamline finished by one of the integrator's own criteria,
/// as opposed to a fault cutting it short.
pub fn terminated_normally(sl: &Streamline) -> bool {
    matches!(
        sl.status,
        StreamlineStatus::Terminated(t)
            if t != Termination::BlockUnavailable && t != Termination::RankLost
    )
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a over a streamline's final solver state and status — everything
/// except its id, so a served curve can be compared with the replay of the
/// same seed point under another id.
pub fn state_key(sl: &Streamline) -> u64 {
    let status = match sl.status {
        StreamlineStatus::Active => 0,
        StreamlineStatus::Terminated(t) => 1 + t as u64,
    };
    let s = &sl.state;
    let mut h = mix(0xcbf2_9ce4_8422_2325, status);
    for x in s.position.to_array() {
        h = mix(h, x.to_bits());
    }
    for x in [s.time, s.h, s.arc_length] {
        h = mix(h, x.to_bits());
    }
    mix(h, s.steps)
}

/// Digest of a whole result set, in id order.
pub fn digest(streamlines: &[Streamline]) -> u64 {
    let mut sorted: Vec<&Streamline> = streamlines.iter().collect();
    sorted.sort_by_key(|s| s.id);
    sorted.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| mix(mix(h, s.id.0 as u64), state_key(s)))
}

/// A [`BlockStore`] in front of another that charges a fixed wall-clock
/// delay per load (the serving workloads' disk model; zero for the batch
/// workloads) and, when traced, counts loads and the wall time each took.
pub struct TimedStore {
    inner: Arc<dyn BlockStore>,
    delay: Duration,
    traced: bool,
    loads: AtomicU64,
    wait_ns: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn BlockStore>, delay: Duration, traced: bool) -> TimedStore {
        TimedStore { inner, delay, traced, loads: AtomicU64::new(0), wait_ns: AtomicU64::new(0) }
    }

    /// Loads served so far and the seconds they took.
    pub fn loads(&self) -> (u64, f64) {
        (self.loads.load(Ordering::Relaxed), self.wait_ns.load(Ordering::Relaxed) as f64 * 1e-9)
    }
}

impl BlockStore for TimedStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<streamline_field::Block>, StoreError> {
        let t = self.traced.then(Instant::now);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let out = self.inner.try_load(id);
        if let Some(t) = t {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.wait_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
}

/// Seconds one recorded span costs: two clock reads and two relaxed atomic
/// adds, the work [`TimedStore`] and the per-call timers add when traced.
/// Multiplied by the spans a traced run recorded, this is the recording
/// overhead the run reports.
pub fn span_cost_s() -> f64 {
    const N: u32 = 200_000;
    let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
    let t0 = Instant::now();
    for _ in 0..N {
        let t = Instant::now();
        a.fetch_add(1, Ordering::Relaxed);
        b.fetch_add(black_box(t).elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    black_box((a.into_inner(), b.into_inner()));
    t0.elapsed().as_secs_f64() / f64::from(N)
}

/// splitmix64: the benchmark's own input generator, so a workload's inputs
/// are a pure function of its `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_json_keeps_digits() {
        let mut m = Metrics::default();
        m.set("b", 0.1 + 0.2, "s");
        m.set("a", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(1, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
