//! `slrepro` — parallel streamline computation from the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match streamline_cli::parse(&args) {
        Ok(cli) => std::process::exit(streamline_cli::commands::execute(cli.command)),
        Err(e) => std::process::exit(streamline_cli::args::usage_error(&e)),
    }
}
