//! End-to-end output tests: real runs → writers → structural checks on the
//! produced artifacts.

use streamline_repro::core::{Algorithm, MemoryBudget, Run, RunConfig, RunOutput};
use streamline_repro::field::dataset::{Dataset, DatasetConfig, Seeding};
use streamline_repro::integrate::{advect, Dopri5, StepLimits, Streamline, StreamlineId};
use streamline_repro::math::Vec3;
use streamline_repro::output::{csv, obj, ppm, vtk};

fn traced_streamlines(n: usize) -> Vec<Streamline> {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Sparse, n);
    let field = &ds.field;
    let domain = ds.decomp.domain;
    let mut sample = |p: Vec3| Some(field.eval(p));
    let region = move |p: Vec3| domain.contains(p);
    let limits = StepLimits { max_steps: 200, ..Default::default() };
    seeds
        .points
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let mut sl = Streamline::new(StreamlineId(i as u32), p, limits.h0);
            advect(&mut sl, &mut sample, &region, &limits, &Dopri5);
            sl
        })
        .collect()
}

#[test]
fn vtk_output_is_structurally_consistent() {
    let streams = traced_streamlines(12);
    let mut buf = Vec::new();
    vtk::write_polylines(&mut buf, &streams).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let total_points: usize = streams.iter().map(|s| s.geometry.len()).sum();
    assert!(text.contains(&format!("POINTS {total_points} double")));
    assert!(text.contains(&format!("LINES {} {}", streams.len(), total_points + streams.len())));
    // Every point line parses as three floats.
    let start = text.lines().position(|l| l.starts_with("POINTS")).unwrap() + 1;
    for line in text.lines().skip(start).take(total_points) {
        let parts: Vec<f64> = line.split_whitespace().map(|t| t.parse().unwrap()).collect();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn csv_row_count_matches_run() {
    let ds = Dataset::thermal_hydraulics(DatasetConfig::tiny());
    let seeds = ds.seeds_with_count(Seeding::Sparse, 30);
    let mut cfg = RunConfig::new(Algorithm::LoadOnDemand, 3);
    cfg.limits.max_steps = 200;
    cfg.memory = MemoryBudget::unlimited();
    let RunOutput { report, finished, .. } = Run::new(&ds, &cfg, &seeds).go().unwrap();
    assert!(report.outcome.completed());
    let mut buf = Vec::new();
    csv::write_summary(&mut buf, &finished).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), 31); // header + 30 rows
                                          // Ids are sorted and complete.
    let ids: Vec<u32> =
        text.lines().skip(1).map(|l| l.split(',').next().unwrap().parse().unwrap()).collect();
    assert_eq!(ids, (0..30).collect::<Vec<_>>());
}

#[test]
fn ppm_image_has_content_proportional_to_curves() {
    let streams = traced_streamlines(20);
    let d = Dataset::thermal_hydraulics(DatasetConfig::tiny()).decomp.domain;
    let mut canvas =
        ppm::Canvas::new(400, 400, (d.min.x, d.min.y), (d.max.x, d.max.y), ppm::Projection::DropZ);
    for (i, s) in streams.iter().enumerate() {
        canvas.draw_streamline(s, ppm::palette(i));
    }
    // 20 curves of hundreds of vertices must light a meaningful area.
    assert!(canvas.lit_pixels() > 500, "{}", canvas.lit_pixels());
    let mut buf = Vec::new();
    canvas.write_ppm(&mut buf).unwrap();
    assert_eq!(buf.len(), b"P6\n400 400\n255\n".len() + 400 * 400 * 3);
}

#[test]
fn obj_indices_are_in_bounds() {
    let streams = traced_streamlines(8);
    let mut buf = Vec::new();
    obj::write_lines(&mut buf, &streams).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let n_vertices = text.lines().filter(|l| l.starts_with("v ")).count();
    for line in text.lines().filter(|l| l.starts_with("l ")) {
        for idx in line[2..].split_whitespace() {
            let i: usize = idx.parse().unwrap();
            assert!(i >= 1 && i <= n_vertices, "index {i} out of 1..={n_vertices}");
        }
    }
}
