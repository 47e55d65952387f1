//! The `slrepro` command-line interface, as a library so the argument
//! parsing and command plumbing are unit-testable. `slrepro help` prints
//! every command and option, generated from the tables in [`args`].

pub mod args;
pub mod commands;

pub use args::{parse, Cli, Command};
