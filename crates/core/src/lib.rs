//! CLASH: Content and Load-Aware Scalable Hashing.
//!
//! This crate implements the protocol of Misra, Castro & Lee, *"CLASH: A
//! Protocol for Internet-Scale Utility-Oriented Distributed Computing"*
//! (ICDCS 2004): a redirection layer over a DHT that dynamically varies the
//! *depth* of identifier keys so that
//!
//! * semantically related objects (keys with common prefixes) cluster on as
//!   few servers as possible, and
//! * "hot" key groups split — one binary level at a time — onto additional
//!   servers only when a server actually overloads.
//!
//! # Architecture
//!
//! | paper concept (§) | module |
//! |---|---|
//! | key groups, `Shape()` (§3–4) | [`clash_keyspace`] (re-exported) |
//! | binary splitting (§4) | [`table`], [`server`], [`cluster`] |
//! | `ServerTable` (§5, Fig. 2) | [`table::ServerTable`] |
//! | server protocol messages (§5) | [`messages`] |
//! | client depth search (§5) | [`client::DepthSearch`] |
//! | load model & thresholds (§6), both constants | [`load::QUERY_WEIGHT`], [`config::OVERLOAD_FRACTION`], [`config::UNDERLOAD_FRACTION`] |
//! | base-DHT baseline `DHT(x)` (§6.1) | [`config::ClashConfig::dht_baseline`] |
//!
//! The crate is deliberately I/O-free: [`server::ClashServer`] is a pure
//! state machine and [`cluster::ClashCluster`] is an in-process harness
//! that moves the protocol messages between servers over a simulated Chord
//! ring ([`clash_chord`]), counting every message. The full-scale
//! experiment driver lives in the `clash-sim` crate.
//!
//! # Quick start
//!
//! ```
//! use clash_core::cluster::ClashCluster;
//! use clash_core::config::ClashConfig;
//! use clash_keyspace::key::Key;
//!
//! // A small utility: 16 servers, 8-bit keys, splitting enabled.
//! let config = ClashConfig::small_test();
//! let mut cluster = ClashCluster::new(config, 16, 42)?;
//!
//! // Attach a streaming source: CLASH locates the key's current group.
//! let key = Key::parse("10110100", 8)?;
//! let placement = cluster.attach_source(1, key, 1.0)?;
//! assert!(placement.depth >= 1);
//!
//! // The cluster-wide active groups always partition the key space.
//! assert!(cluster.global_cover().is_partition());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod arena;
pub mod client;
pub mod cluster;
pub mod config;
pub mod error;
pub mod latency;
pub mod load;
pub mod messages;
pub mod replication;
pub mod server;
pub mod table;

pub use client::{DepthSearch, SearchOutcome};
pub use cluster::ClashCluster;
pub use config::ClashConfig;
pub use error::ClashError;
pub use latency::LatencyMetrics;
pub use load::LoadLevel;
pub use messages::AcceptObjectResponse;
pub use replication::{ReplicaRecord, ReplicaStore};
pub use server::ClashServer;
pub use table::{ServerTable, TableEntry};

/// A CLASH server is identified by its DHT ring identifier.
pub type ServerId = clash_chord::id::ChordId;
