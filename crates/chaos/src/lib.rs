//! Deterministic fault-injection campaigns for the CLASH stack.
//!
//! ROADMAP item 5 asks for an adversarial scenario matrix; this crate
//! is the engine behind it. A **campaign** runs many seed-derived
//! random **schedules** of fault events — crash bursts, ring-correlated
//! failures, rolling partition storms, flapping links, gray
//! latency/loss degradation, churn avalanches, flash crowds — against a
//! fresh cluster per schedule, checking an invariant suite after every
//! event and at quiescence. Any violation is delta-debugged down to a
//! 1-minimal failing schedule and emitted as a replayable
//! `chaos_repro.json` together with the flight-recorder ring tail.
//!
//! Everything is a pure function of `(options, schedule)`: the schedule
//! seed drives the cluster, the transport, the workload, and every
//! injector choice, so replays are bit-for-bit and shrinking is sound.
//!
//! The module layout mirrors the pipeline:
//!
//! | module | role |
//! |---|---|
//! | [`schedule`] | seed-derived schedule generation over [`clash_workload::FaultKind`] |
//! | [`engine`] | per-schedule injection, the invariant suite, campaign aggregation |
//! | [`shrink`] | delta debugging (`ddmin`) of failing schedules |
//! | [`repro`] | `chaos_repro.json` writer/parser and replay |
//!
//! # Quick start
//!
//! ```
//! use clash_chaos::{ChaosOptions, run_campaign, CONVERGENCE_CHECKS};
//!
//! // A tiny all-green campaign: 2 schedules against an 8-server cell.
//! // The options size the cell; the invariant suite's bounds are fixed.
//! let options = ChaosOptions {
//!     servers: 8,
//!     sources: 48,
//!     ..ChaosOptions::default()
//! };
//! let report = run_campaign(&options, 7, 2);
//! assert_eq!(report.schedules_run, 2);
//! assert!(report.failures.is_empty(), "invariants hold on the stock protocol");
//! assert!(report.worst_convergence_checks <= CONVERGENCE_CHECKS);
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// the chaos engine carries the same contract.
#![forbid(unsafe_code)]
pub mod engine;
pub mod repro;
pub mod schedule;
pub mod shrink;

pub use engine::{
    run_campaign, run_schedule, shrink_failure, CampaignFailure, CampaignReport, ChaosOptions,
    ScheduleOutcome, Violation, CONVERGENCE_CHECKS,
};
pub use repro::{parse_repro, render_repro, ChaosRepro, REPRO_FORMAT};
pub use schedule::ChaosSchedule;
pub use shrink::ddmin;
