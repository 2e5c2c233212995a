//! Full-system CLASH simulator and figure-regeneration harness.
//!
//! This crate wires everything together — the CLASH protocol
//! ([`clash_core`]), the Chord substrate ([`clash_chord`]), the workload
//! generators ([`clash_workload`]) and the discrete-event kernel
//! ([`clash_simkernel`]) — into the experiment drivers that regenerate
//! every figure of the paper's evaluation (§6), each a subcommand of the
//! `clash-sim` binary (`all_experiments` runs them all):
//!
//! | figure | subcommand | module |
//! |---|---|---|
//! | Fig. 1 (splitting tree example) | `fig1_tree_demo` | [`experiments::demos`] |
//! | Fig. 2 (server work table) | `fig2_server_table` | [`experiments::demos`] |
//! | Fig. 3 (workload skews) | `fig3_workloads` | [`experiments::fig3`] |
//! | Fig. 4 (load, utilization, depth, servers) | `fig4_load` | [`experiments::fig4`] |
//! | Fig. 5 (communication overhead) | `fig5_overhead` | [`experiments::fig5`] |
//! | §5 claim (depth search < log₂ N) | `depth_convergence` | [`experiments::depth_conv`] |
//! | §7 claim (~80% fewer servers) | `servers_saved` | [`experiments::servers_saved`] |
//! | §7 extension (range queries) | `range_queries` | [`experiments::range_queries`] |
//! | design-choice ablations | `ablation` | [`experiments::ablation`] |
//! | live membership under churn | `churn` | [`experiments::churn`] |
//! | latency / loss / partitions | `netfault` | [`experiments::netfault`] |
//! | crash recovery vs replication factor | `availability` | [`experiments::availability`] |
//! | mechanical cost to 10× the paper's ring | `scale` | [`experiments::scale`] |
//! | fault-injection campaigns | `chaos` | [`experiments::chaos`] |
//!
//! The central type is [`driver::SimDriver`]: it plays a
//! [`clash_workload::scenario::ScenarioSpec`] against a
//! [`clash_core::cluster::ClashCluster`] under simulated time, recording
//! the Figure 4 time series and the Figure 5 message rates.
//! [`catalogue`] builds every scenario that more than one test or
//! experiment plays, and the paper-scale base the experiments start
//! from.
//!
//! # Example
//!
//! ```
//! use clash_core::config::ClashConfig;
//! use clash_sim::driver::SimDriver;
//! use clash_simkernel::time::SimDuration;
//! use clash_workload::scenario::ScenarioSpec;
//!
//! // A 1%-scale copy of the paper's scenario with 3-minute phases.
//! let spec = ScenarioSpec::paper()
//!     .scaled(0.01)
//!     .with_phase_duration(SimDuration::from_mins(3));
//! let result = SimDriver::new(ClashConfig::paper(), spec)?.run()?;
//! assert!(!result.samples.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod catalogue;
pub mod driver;
pub mod experiments;
pub mod report;

pub use driver::{RecoveryTotals, RunResult, SampleRow, SimDriver};
