//! Deterministic discrete-event simulation kernel for the CLASH reproduction.
//!
//! The paper (Misra, Castro & Lee, *CLASH*, ICDCS 2004, §6) evaluates the
//! protocol with a C++ simulator built on the MIT Chord simulator. This crate
//! is the equivalent substrate for the Rust reproduction: a small,
//! fully-deterministic discrete-event kernel plus the statistical machinery
//! the experiments need (seeded RNG streams, the distributions used by the
//! workloads, and the latency summaries and histograms behind Figures
//! 4–5).
//!
//! Design goals:
//!
//! * **Determinism** — every run is a pure function of its seeds. The event
//!   queue breaks ties by insertion sequence, and all randomness flows from
//!   [`rng::DetRng`] substreams derived by label.
//! * **Speed** — the CLASH experiments aggregate per-packet work analytically
//!   (the `clash-sim` driver's module doc says how), so the kernel optimizes
//!   for millions of small events (key changes, query churn, load checks),
//!   not for generality.
//! * **No global state** — a [`event::EventQueue`] is an ordinary value; the
//!   driving loop is owned by the caller, which keeps borrows simple.
//!
//! # Example
//!
//! ```
//! use clash_simkernel::event::EventQueue;
//! use clash_simkernel::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), Ev::Tick(1));
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(2), Ev::Tick(2));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t.as_secs_f64(), 2.0);
//! assert_eq!(ev, Ev::Tick(2));
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod collections;
pub mod dist;
pub mod event;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
