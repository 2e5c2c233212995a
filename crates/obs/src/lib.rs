//! Observability for the CLASH stack: see where every millisecond and
//! message goes, with zero bit-for-bit impact.
//!
//! Four pieces, all passive:
//!
//! * [`event`] / [`sink`] — a **deterministic flight recorder**: the
//!   protocol layer emits structured, virtual-time-stamped
//!   [`TraceEvent`]s (locate probe hops, split/merge decisions with the
//!   load numbers that triggered them, replica recovery timelines,
//!   batch-flush windows) into a [`Recorder`], a ring that keeps the
//!   newest events up to its bound ([`TraceMode`] selects off, ring or
//!   unbounded). Off is no recorder at all, which costs one `Option`
//!   test per emit site; recording never reads a clock and never draws
//!   RNG, so traced and untraced runs are bit-for-bit identical.
//! * [`telemetry`] — a unified [`Telemetry`] registry of labeled
//!   counters/gauges/summaries with snapshot semantics, replacing
//!   per-experiment field picking.
//! * [`profile`] — per-phase wall-clock profiling of the load check and
//!   batch flush. Protocol crates name [`CheckPhase`]s; the only clock
//!   reader ([`WallProfiler`]) lives here, where the `no-wall-clock`
//!   lint policy allows it.
//! * [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto.
//!
//! See `docs/ARCHITECTURE.md` § Observability for the event taxonomy
//! and placement rules.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod profile;
pub mod sink;
pub mod telemetry;

pub use chrome::{to_chrome_json, write_chrome_trace};
pub use event::{ArgValue, TraceEvent, TraceEventKind};
pub use profile::{CheckPhase, NullProfiler, PhaseProfile, PhaseProfiler, WallProfiler};
pub use sink::{Recorder, TraceMode};
pub use telemetry::{MetricValue, Telemetry};
