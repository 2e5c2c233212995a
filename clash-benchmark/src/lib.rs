//! `clash-benchmark`: the benchmark every performance or simplicity
//! change to this repo is judged by. One command runs a named workload
//! through the program's real entry point, checks its outputs, and
//! prints every declared metric by name with its unit.
//!
//! ```text
//! clash-benchmark --workload <name|all> [--seed S] [--seconds F | --reps N]
//!                 [--trace 0|1 | --traced] [--check-repeat] [--smoke]
//!                 [--out FILE] [--spans FILE]
//! clash-benchmark --print-contract        # the repo-root BENCHMARK.json
//! ```
//!
//! The last line of stdout is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed`, `metrics`: the end-to-end metrics
//! without tracing, the per-layer metrics with it. The table people read
//! goes to stderr and the full report to `--out`. See `README.md`.

pub mod cli;
pub mod contract;
pub mod e2e;
pub mod host;
pub mod json;
pub mod micro;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workloads;
