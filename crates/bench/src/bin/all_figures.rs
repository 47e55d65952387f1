//! Run every figure sweep (Figures 5–16) and write the consolidated
//! markdown into `EXPERIMENTS-data.md` (or `--out PATH`), including the
//! paper-vs-measured shape checklist.
//!
//! ```sh
//! cargo run --release -p streamline-bench --bin all_figures [-- --quick]
//! ```

use streamline_bench::experiments::Workload;
use streamline_bench::harness::{parse_args, run_workload};

fn main() {
    let mut args = parse_args();
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
    println!("{md}");
    if let Some(path) = &args.out {
        std::fs::write(path, &md).expect("writing output file");
        eprintln!("wrote {}", path.display());
    }
}
