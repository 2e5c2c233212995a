//! Workload generation for the CLASH experiments.
//!
//! The paper's evaluation (§6.1) drives the system with synthetic
//! workloads over an N = 24-bit key split into an 8-bit *base* portion —
//! drawn from one of three skewed distributions (Figure 3) — and a
//! uniform 16-bit remainder:
//!
//! * **Workload A** — almost uniform, sources stream at 1 pkt/s;
//! * **Workload B** — moderately skewed, 2 pkt/s;
//! * **Workload C** — highly skewed (one dominant spike), 2 pkt/s.
//!
//! Sources change keys every `Ld` packets (exponential, mean 1000) —
//! the "virtual stream" model — and query clients live for an
//! exponential `Lq` (mean 30 min).
//!
//! This crate provides the distributions ([`skew`]), the per-client
//! stochastic models ([`source`]), and the end-to-end scenario
//! descriptions ([`scenario`]) consumed by the `clash-sim` experiment
//! drivers. The absolute calibration constants (spike masses, bump
//! widths) live in [`skew`]; they are chosen so the
//! non-adaptive `DHT(6)` baseline peaks near the paper's ~25× capacity
//! under workload C.
//!
//! # Quick start
//!
//! ```
//! use clash_keyspace::key::KeyWidth;
//! use clash_simkernel::rng::DetRng;
//! use clash_workload::{Workload, WorkloadKind};
//!
//! // Workload C: one dominant spike. Draws are deterministic per seed.
//! let workload = Workload::paper(WorkloadKind::C);
//! let mut rng = DetRng::new(42);
//! let key = workload.sample_key(KeyWidth::PAPER, &mut rng);
//! assert_eq!(key.width(), KeyWidth::PAPER);
//!
//! // The skewed base distribution concentrates mass near its spike.
//! let spike = workload.spike_center();
//! assert!(workload.mass_of_base(spike) > 0.1);
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod churn;
pub mod fault;
pub mod scenario;
pub mod skew;
pub mod source;

pub use churn::{ChurnSpec, FlashCrowd};
pub use fault::FaultKind;
pub use scenario::{Phase, ScenarioSpec};
pub use skew::{Workload, WorkloadKind};
pub use source::{QueryClientModel, SourceModel};
