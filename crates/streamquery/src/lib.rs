//! Continuous-query-over-streams substrate for the CLASH reproduction.
//!
//! The paper's simulation (§6) models "a pseudo-distributed system for
//! supporting long-lived queries over streaming data" — the
//! NiagaraCQ / Mobiscope class of applications its introduction motivates:
//! clients register *continuous queries* over regions of a hierarchical
//! key space (e.g. "all vehicles in this map tile"), and data packets
//! stream through the servers that own the matching key groups.
//!
//! This crate is that application substrate, independent of the CLASH
//! protocol itself:
//!
//! * [`query::ContinuousQuery`] — a long-lived subscription to a key-space
//!   region (a [`clash_keyspace::prefix::Prefix`]);
//! * [`engine::QueryEngine`] — the per-server engine: subscriptions in a
//!   [`clash_keyspace::cover::PrefixMap`] keyed by region, so a packet key
//!   reaches every query region containing it with a few binary searches
//!   per matching region; it ingests packets, delivers matches, and hands
//!   whole key groups of queries over for CLASH state migration
//!   ([`engine::QueryEngine::extract_group`]).
//!
//! The paper's load model ("linear in the data rate, and logarithmic in
//! the number of queries") is exactly the cost shape of
//! [`engine::QueryEngine::ingest`]: binary searches over the sorted
//! subscription regions, whose number grows with the query count.
//!
//! # Example
//!
//! ```
//! use clash_keyspace::key::Key;
//! use clash_keyspace::prefix::Prefix;
//! use clash_streamquery::engine::QueryEngine;
//! use clash_streamquery::query::ContinuousQuery;
//!
//! let mut engine = QueryEngine::new(8.try_into()?);
//! engine.register(ContinuousQuery::new(1, Prefix::parse("0110*", 8)?));
//! engine.register(ContinuousQuery::new(2, Prefix::parse("01*", 8)?));
//!
//! // A packet in 0110… matches both subscriptions.
//! let delivered = engine.ingest(Key::parse("01101001", 8)?);
//! assert_eq!(delivered, vec![2, 1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod engine;
pub mod query;

pub use engine::QueryEngine;
pub use query::ContinuousQuery;
