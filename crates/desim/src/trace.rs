//! Virtual-time utilization timelines.
//!
//! When tracing is enabled, every charge a rank makes (compute, I/O,
//! communication) — and, since the observability layer landed, every idle
//! gap the scheduler observes — is accumulated into fixed-width
//! virtual-time buckets. The result is a utilization heat map over
//! (rank, time) — the direct visualization of load imbalance and of §8's
//! "processor starvation".
//!
//! The implementation lives in `streamline-obs` so the serve stack can
//! fill the same structure with wall-clock spans; these aliases keep the
//! historical desim names working.

pub use streamline_obs::Phase as ChargeKind;
pub use streamline_obs::PhaseTimeline as Timeline;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_splits_across_buckets() {
        let mut t = Timeline::new(2, 1.0);
        // 2.5 s of compute starting at t = 0.75 spans buckets 0..=3.
        t.add(0, ChargeKind::Compute, 0.75, 2.5);
        assert!((t.utilization(0, 0) - 0.25).abs() < 1e-12);
        assert!((t.utilization(0, 1) - 1.0).abs() < 1e-12);
        assert!((t.utilization(0, 2) - 1.0).abs() < 1e-12);
        assert!((t.utilization(0, 3) - 0.25).abs() < 1e-12);
        assert_eq!(t.utilization(1, 1), 0.0);
    }

    #[test]
    fn kinds_accumulate_independently_but_sum_in_utilization() {
        let mut t = Timeline::new(1, 1.0);
        t.add(0, ChargeKind::Compute, 0.0, 0.3);
        t.add(0, ChargeKind::Io, 0.0, 0.2);
        t.add(0, ChargeKind::Comm, 0.0, 0.1);
        assert!((t.utilization(0, 0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_complementary() {
        let mut t = Timeline::new(2, 1.0);
        t.add(0, ChargeKind::Compute, 0.0, 1.0);
        // Rank 1 idle; one bucket total → area 2, busy 1.
        assert!((t.idle_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorded_idle_does_not_count_as_busy() {
        let mut t = Timeline::new(2, 1.0);
        t.add(0, ChargeKind::Compute, 0.0, 1.0);
        t.add(1, ChargeKind::Idle, 0.0, 1.0);
        assert!((t.idle_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(t.utilization(1, 0), 0.0);
    }

    #[test]
    fn render_shapes() {
        let mut t = Timeline::new(2, 1.0);
        t.add(0, ChargeKind::Compute, 0.0, 4.0);
        t.add(1, ChargeKind::Io, 2.0, 2.0);
        let map = t.render(80);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("####"));
        assert!(lines[1].contains("  ##"));
    }

    #[test]
    fn render_merges_columns() {
        let mut t = Timeline::new(1, 0.01);
        t.add(0, ChargeKind::Compute, 0.0, 10.0); // 1000 buckets
        let map = t.render(40);
        let body = map.lines().next().unwrap();
        let cells = body.split('|').nth(1).unwrap();
        assert!(cells.len() <= 40, "{} cols", cells.len());
        assert!(cells.chars().all(|c| c == '#'));
    }

    #[test]
    fn zero_length_charge_is_noop() {
        let mut t = Timeline::new(1, 1.0);
        t.add(0, ChargeKind::Io, 5.0, 0.0);
        assert_eq!(t.n_buckets(), 0);
    }
}
