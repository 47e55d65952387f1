//! End-to-end checks of the observability layer: the metric registry must
//! agree bit-for-bit with the legacy report structs it absorbed, the
//! Prometheus text export must round-trip through its own parser, and
//! traced runs must emit schema-valid timelines whose totals reconcile
//! with the run report.

use streamline_core::{run_simulated_detailed, run_simulated_traced, Algorithm, RunConfig};
use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_obs::{names, prom, MetricValue, TraceFile};

fn tiny_run_config() -> (Dataset, RunConfig) {
    let mut dcfg = DatasetConfig::tiny();
    dcfg.blocks_per_axis = [2, 2, 2];
    let dataset = Dataset::thermal_hydraulics(dcfg);
    let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 4);
    cfg.limits.max_steps = 200;
    cfg.cache_blocks = 4;
    (dataset, cfg)
}

#[test]
fn registry_counters_equal_report_fields_bit_for_bit() {
    let (dataset, cfg) = tiny_run_config();
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 24);
    let (report, _) = run_simulated_detailed(&dataset, &seeds, &cfg);
    let reg = report.to_registry();

    let counter = |name: &str| match reg.get(name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("{name}: expected counter, got {other:?}"),
    };
    let gauge = |name: &str| match reg.get(name) {
        Some(MetricValue::Gauge(v)) => v,
        other => panic!("{name}: expected gauge, got {other:?}"),
    };
    assert_eq!(counter(names::RUN_EVENTS_TOTAL), report.events);
    assert_eq!(counter(names::RUN_MSGS_TOTAL), report.msgs);
    assert_eq!(counter(names::RUN_BYTES_SENT_TOTAL), report.bytes_sent);
    assert_eq!(counter(names::RUN_BLOCKS_LOADED_TOTAL), report.blocks_loaded);
    assert_eq!(counter(names::RUN_BLOCKS_PURGED_TOTAL), report.blocks_purged);
    assert_eq!(counter(names::RUN_STEPS_TOTAL), report.total_steps);
    assert_eq!(counter(names::RUN_STREAMLINES_TERMINATED_TOTAL), report.terminated);
    assert_eq!(counter(names::RUN_SAMPLER_HITS_TOTAL), report.sampler_hits);
    assert_eq!(counter(names::RUN_SAMPLER_MISSES_TOTAL), report.sampler_misses);
    // Gauges: to_bits comparison — the mirror must be bit-exact, not
    // merely close.
    assert_eq!(gauge(names::RUN_WALL_SECONDS).to_bits(), report.wall.to_bits());
    assert_eq!(gauge(names::RUN_IO_SECONDS).to_bits(), report.io_time.to_bits());
    assert_eq!(gauge(names::RUN_COMM_SECONDS).to_bits(), report.comm_time.to_bits());
    assert_eq!(gauge(names::RUN_COMPUTE_SECONDS).to_bits(), report.compute_time.to_bits());
    assert_eq!(gauge(names::RUN_IDLE_SECONDS).to_bits(), report.idle_time.to_bits());
    assert_eq!(gauge(names::RUN_BLOCK_EFFICIENCY).to_bits(), report.block_efficiency().to_bits());
    assert_eq!(gauge(names::RUN_LOAD_IMBALANCE).to_bits(), report.load_imbalance().to_bits());
}

#[test]
fn prometheus_text_roundtrips_exactly() {
    let (dataset, cfg) = tiny_run_config();
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 24);
    let (report, _) = run_simulated_detailed(&dataset, &seeds, &cfg);
    let reg = report.to_registry();
    let text = reg.render_prometheus();
    let parsed = prom::parse_text(&text).expect("the export must parse");

    // Stable names: every name the registry holds appears in the export.
    for (name, value) in reg.snapshot() {
        match value {
            MetricValue::Counter(v) => {
                assert_eq!(parsed[&name], v as f64, "{name} did not round-trip");
            }
            MetricValue::Gauge(v) => {
                // Rust's shortest-roundtrip float formatting means parsing
                // the text recovers the exact bits.
                assert_eq!(parsed[&name].to_bits(), v.to_bits(), "{name} lost bits in text");
            }
            MetricValue::Histogram { count, sum, .. } => {
                assert_eq!(parsed[&format!("{name}_count")], count as f64);
                assert_eq!(parsed[&format!("{name}_sum")], sum as f64);
            }
        }
    }
    assert_eq!(parsed[names::RUN_STEPS_TOTAL], report.total_steps as f64);
}

#[test]
fn traced_run_reconciles_with_untraced_report() {
    let (dataset, cfg) = tiny_run_config();
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 24);
    let (plain, plain_lines) = run_simulated_detailed(&dataset, &seeds, &cfg);
    let (traced, traced_lines, timeline, _pingpong) =
        run_simulated_traced(&dataset, &seeds, &cfg, 0.05);

    // Tracing must not perturb the virtual run at all.
    assert_eq!(plain.wall.to_bits(), traced.wall.to_bits());
    assert_eq!(plain.events, traced.events);
    assert_eq!(plain_lines.len(), traced_lines.len());

    let tf: TraceFile = timeline.to_trace("virtual");
    tf.validate().expect("emitted trace is schema-valid");
    assert_eq!(tf.schema, streamline_obs::TRACE_SCHEMA);
    assert_eq!(tf.clock, "virtual");
    assert_eq!(tf.n_ranks, 4);
    // Timeline phase totals are the same charges the report aggregates.
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(rel(tf.totals.compute, traced.compute_time) < 1e-6, "compute area diverged");
    assert!(rel(tf.totals.io, traced.io_time) < 1e-6, "io area diverged");
    assert!(rel(tf.totals.comm, traced.comm_time) < 1e-6, "comm area diverged");

    // And the whole file survives a JSON round-trip.
    let json = serde_json::to_string(&tf).expect("serializes");
    let back: TraceFile = serde_json::from_str(&json).expect("deserializes");
    back.validate().expect("still valid after round-trip");
    assert_eq!(back.totals.compute.to_bits(), tf.totals.compute.to_bits());
}

/// A traced `Service`'s scrape payload parses and mirrors its metrics
/// snapshot, and its wall-clock timeline, after the JSON round trip a
/// trace file takes, passes `TraceFile::validate()` — the two checks
/// `slrepro obs-check` makes.
#[test]
fn serve_dump_metrics_reconciles_with_service_metrics() {
    use std::sync::Arc;
    use std::time::Duration;
    use streamline_iosim::MemoryStore;
    use streamline_serve::{Request, Service, ServiceConfig};

    let mut dcfg = DatasetConfig::tiny();
    dcfg.blocks_per_axis = [2, 2, 2];
    let dataset = Dataset::thermal_hydraulics(dcfg);
    let store = Arc::new(MemoryStore::build(&dataset));
    let svc = Service::start(
        dataset.decomp,
        store,
        ServiceConfig { trace_bucket: Some(Duration::from_millis(1)), ..ServiceConfig::default() },
    );
    let seeds = dataset.seeds_with_count(Seeding::Sparse, 12);
    let limits = streamline_integrate::StepLimits { max_steps: 200, ..Default::default() };
    svc.submit(Request::new(seeds.points.clone()).with_limits(limits))
        .unwrap()
        .wait()
        .expect("service answers");

    let text = svc.dump_metrics();
    let parsed = prom::parse_text(&text).expect("scrape payload parses");
    let m = svc.metrics();
    assert_eq!(parsed[names::SERVE_SUBMITTED_TOTAL], m.submitted as f64);
    assert_eq!(parsed[names::SERVE_COMPLETED_TOTAL], m.completed as f64);
    assert_eq!(parsed[names::SERVE_STREAMLINES_COMPLETED_TOTAL], m.streamlines_completed as f64);
    assert_eq!(parsed[names::SERVE_STEPS_TOTAL], m.total_steps as f64);
    assert_eq!(parsed[names::SERVE_SAMPLER_HITS_TOTAL], m.sampler_hits as f64);
    assert_eq!(parsed[names::SERVE_CACHE_LOADED_TOTAL], m.cache.loaded as f64);
    assert_eq!(parsed[names::SERVE_CACHE_HITS_TOTAL], m.cache.hits as f64);
    assert_eq!(parsed[names::SERVE_QUEUE_CAPACITY], m.queue_capacity as f64);
    assert_eq!(parsed[names::SERVE_BLOCK_EFFICIENCY].to_bits(), m.block_efficiency.to_bits());
    assert_eq!(parsed[&format!("{}_count", names::SERVE_LATENCY_NANOSECONDS)], m.completed as f64);

    let tf = svc.timeline().expect("trace_bucket was set");
    assert_eq!(tf.clock, "wall");
    let json = serde_json::to_string(&tf).expect("serializes");
    let back: TraceFile = serde_json::from_str(&json).expect("deserializes");
    back.validate().expect("a served timeline is a valid trace");
    svc.shutdown();
}
