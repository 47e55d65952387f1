//! Run the figure sweeps (Figures 5–16) and write the consolidated
//! markdown into `EXPERIMENTS-data.md` (or `--out PATH`), including the
//! paper-vs-measured shape checklist. `--workload astro|fusion|thermal`
//! runs one workload's quartet only (Figures 5–8, 9–12 or 13–16) and
//! writes a file only when `--out` is given.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin all_figures [-- --quick]
//! cargo run --release -p streamline-bench --bin all_figures -- --workload astro
//! ```

use streamline_bench::experiments::Workload;
use streamline_bench::harness::{emit, parse_args, run_workload};

fn main() {
    let mut args = parse_args();
    if let Some(w) = args.workload {
        emit(&run_workload(w, &args), &args);
        return;
    }
    if args.out.is_none() {
        args.out = Some("EXPERIMENTS-data.md".into());
    }
    // Name the flags that shape the data; `--out` only says where it goes.
    let mut flags = String::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--out" {
            argv.next();
        } else {
            flags += &format!(" {a}");
        }
    }
    let flags = if flags.is_empty() { flags } else { format!(" --{flags}") };
    let mut md = format!(
        "# Regenerated evaluation data (Figures 5-16)\n\n\
         Produced by `cargo run --release -p streamline-bench --bin all_figures{flags}`.\n\
         Virtual-time measurements from the deterministic simulated cluster;\n\
         see EXPERIMENTS.md for the paper-vs-measured analysis.\n\n",
    );
    for w in Workload::ALL {
        md.push_str(&run_workload(w, &args));
    }
    emit(&md, &args);
}
