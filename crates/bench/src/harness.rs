//! Command-line plumbing for the `all_figures` binary, which accepts:
//!
//! * `--quick`        — reduced seed counts and rank counts (smoke run)
//! * `--procs a,b,c`  — override the processor-count sweep
//! * `--seeds N`      — override the seed count
//! * `--workload W`   — one workload's figures only (`astro`, `fusion` or
//!   `thermal`)
//! * `--out PATH`     — also write the markdown tables to a file

use crate::experiments::{paper_proc_counts, run_sweep, SweepScale, Workload};
use crate::tables::render_markdown;
use streamline_field::dataset::Seeding;

#[derive(Debug, Clone)]
pub struct Args {
    pub scale: SweepScale,
    pub procs: Vec<usize>,
    pub seeds: Option<usize>,
    pub workload: Option<Workload>,
    pub out: Option<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: SweepScale::Full,
            procs: paper_proc_counts(),
            seeds: None,
            workload: None,
            out: None,
        }
    }
}

/// Parse `std::env::args`; panics with a usage message on bad input.
pub fn parse_args() -> Args {
    let mut out = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                out.scale = SweepScale::Quick;
                out.procs = vec![4, 8];
            }
            "--procs" => {
                let v = it.next().expect("--procs needs a,b,c");
                out.procs = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("processor counts must be integers"))
                    .collect();
            }
            "--seeds" => {
                out.seeds = Some(
                    it.next().expect("--seeds needs N").parse().expect("N must be an integer"),
                );
            }
            "--workload" => {
                out.workload = Some(match it.next().as_deref() {
                    Some("astro") => Workload::Astro,
                    Some("fusion") => Workload::Fusion,
                    Some("thermal") => Workload::Thermal,
                    _ => panic!("--workload needs astro, fusion or thermal"),
                });
            }
            "--out" => {
                out.out = Some(it.next().expect("--out needs a path").into());
            }
            other => panic!(
                "unknown argument {other}; supported: --quick --procs --seeds --workload --out"
            ),
        }
    }
    out
}

/// Figure numbers `[wall, io, comm, efficiency]` for each workload's quartet.
pub fn figure_numbers(workload: Workload) -> [&'static str; 4] {
    match workload {
        Workload::Astro => ["Figure 5", "Figure 6", "Figure 8", "Figure 7"],
        Workload::Fusion => ["Figure 9", "Figure 10", "Figure 11", "Figure 12"],
        Workload::Thermal => ["Figure 13", "Figure 14", "Figure 15", "Figure 16"],
    }
}

/// Run one workload's sparse and dense sweeps and render all of its figure
/// tables (each figure in the paper plots sparse and dense series together;
/// here they render as two table groups).
pub fn run_workload(workload: Workload, args: &Args) -> String {
    let nums = figure_numbers(workload);
    let mut md = String::new();
    for seeding in [Seeding::Sparse, Seeding::Dense] {
        eprintln!("[{}] running {} sweep ...", workload.label(), seeding.label());
        let t0 = std::time::Instant::now();
        let results = run_sweep(workload, seeding, args.scale, &args.procs, args.seeds);
        eprintln!(
            "[{}] {} sweep done in {:.1}s",
            workload.label(),
            seeding.label(),
            t0.elapsed().as_secs_f64()
        );
        let heading = format!("{} — {} seeding", workload.label(), seeding.label());
        let labelled: [String; 4] = [
            format!("{} ({})", nums[0], seeding.label()),
            format!("{} ({})", nums[1], seeding.label()),
            format!("{} ({})", nums[2], seeding.label()),
            format!("{} ({})", nums[3], seeding.label()),
        ];
        md.push_str(&render_markdown(
            &heading,
            &results,
            [&labelled[0], &labelled[1], &labelled[2], &labelled[3]],
        ));
        // Per-run one-liners to stderr for live inspection.
        for r in &results {
            eprintln!("  {}", r.report.summary());
        }
    }
    md
}

/// Print and optionally persist the markdown.
pub fn emit(md: &str, args: &Args) {
    println!("{md}");
    if let Some(path) = &args.out {
        std::fs::write(path, md).expect("writing --out file");
        eprintln!("wrote {}", path.display());
    }
}
