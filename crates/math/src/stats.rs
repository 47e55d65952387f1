//! Summary statistics for the benchmark harness.
//!
//! The figure binaries report per-rank distributions (load imbalance, idle
//! time), so we need means, percentiles and a tiny online accumulator.

use serde::{Deserialize, Serialize};

/// Summary of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub std_dev: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` on an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        // total_cmp: NaN sorts to the high end instead of panicking, so a
        // poisoned sample degrades to NaN statistics rather than aborting
        // the whole harness run.
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            std_dev: var.sqrt(),
        })
    }

    /// Ratio of the largest per-rank value to the mean — the classic load
    /// imbalance factor (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.max / self.mean
        }
    }
}

/// Linear-interpolated percentile of an already sorted sample; `q` in `[0,1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// A fixed-bin histogram over `[min, max)`; out-of-range samples clamp to
/// the edge bins. Used by the harness for step-count and arc-length
/// distributions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    pub min: f64,
    pub max: f64,
    pub counts: Vec<u64>,
    pub total: u64,
}

impl Histogram {
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        assert!(bins >= 1 && max > min);
        Histogram { min, max, counts: vec![0; bins], total: 0 }
    }

    pub fn push(&mut self, v: f64) {
        let bins = self.counts.len();
        let x = (v - self.min) / (self.max - self.min) * bins as f64;
        let idx = (x.floor().max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Lower edge of bin `i`.
    pub fn edge(&self, i: usize) -> f64 {
        self.min + (self.max - self.min) * i as f64 / self.counts.len() as f64
    }

    /// One-line sparkline of the distribution.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        self.counts
            .iter()
            .map(|&c| {
                let level = (c as f64 / max as f64 * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[level]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(approx_eq(s.mean, 2.5, 1e-12));
        assert!(approx_eq(s.p50, 2.5, 1e-12));
    }

    #[test]
    fn summary_with_nan_does_not_panic() {
        // Regression: `sort_by(partial_cmp.expect(...))` panicked on NaN.
        // NaN now sorts last (total order), so max/p95 go NaN while the
        // clean prefix still orders correctly — and nothing aborts.
        let s = Summary::of(&[2.0, f64::NAN, 1.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert!(s.max.is_nan());
        assert!(s.mean.is_nan());
        let all_nan = Summary::of(&[f64::NAN, f64::NAN]).unwrap();
        assert!(all_nan.min.is_nan() && all_nan.max.is_nan());
    }

    #[test]
    fn summary_unordered_input() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert!(approx_eq(percentile_sorted(&sorted, 0.25), 2.5, 1e-12));
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn imbalance_of_uniform_is_one() {
        let s = Summary::of(&[2.0, 2.0, 2.0]).unwrap();
        assert!(approx_eq(s.imbalance(), 1.0, 1e-12));
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.5, 1.0, 2.5, 9.9, -3.0, 42.0] {
            h.push(v);
        }
        assert_eq!(h.total, 6);
        // -3.0 clamps into bin 0; 42.0 into the last bin.
        assert_eq!(h.counts, vec![3, 1, 0, 0, 2]);
        assert_eq!(h.edge(0), 0.0);
        assert_eq!(h.edge(4), 8.0);
    }

    #[test]
    fn histogram_sparkline_shape() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for _ in 0..8 {
            h.push(0.5);
        }
        h.push(1.5);
        let s: Vec<char> = h.sparkline().chars().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], '█');
        assert!(s[1] < s[0]);
    }
}
