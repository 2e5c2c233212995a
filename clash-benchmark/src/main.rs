//! The `clash-benchmark` binary; see the library docs and `README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    clash_benchmark::cli::main(&args)
}
