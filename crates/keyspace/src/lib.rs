//! Hierarchical identifier keys, key groups and hash mapping for CLASH.
//!
//! CLASH (Misra, Castro & Lee, ICDCS 2004, §3–4) assumes every object has an
//! **N-bit identifier key** produced by an application `KeyGen()` function
//! that encodes hierarchical clustering relationships: keys with a common
//! prefix are semantically related (e.g. a quad-tree encoding of geographic
//! position). This crate provides:
//!
//! * [`key::Key`] — an N-bit identifier key (N ≤ 64);
//! * [`prefix::Prefix`] — a key group `(virtual key, depth)`, printed with
//!   the paper's wildcard notation (`0110*`);
//! * [`cover::PrefixMap`] — groups mapped to values in one sorted vector,
//!   nested entries allowed, with longest-prefix match, the paper's
//!   `d_min` and range intersection — the storage of every CLASH
//!   `ServerTable`;
//! * [`cover::PrefixCover`] — a prefix-free set of groups partitioning a
//!   subtree of the key space, with split and merge — the shape of a
//!   CLASH system's active groups;
//! * [`keygen`] — `KeyGen` implementations: [`keygen::QuadTreeEncoder`] for
//!   2-D grids (the paper's geographic example) and
//!   [`keygen::PathEncoder`] for hierarchical attribute paths;
//! * [`hash`] — the `f()` function hashing virtual keys into an M-bit hash
//!   space, implemented with a SplitMix64 finalizer.
//!
//! # The Shape() function
//!
//! The heart of CLASH is `Shape(k, d)`: take the first `d` bits of `k` and
//! zero-pad to N bits (§4). In this crate that is
//! [`prefix::Prefix::of_key`] followed by [`prefix::Prefix::virtual_key`]:
//!
//! ```
//! use clash_keyspace::key::Key;
//! use clash_keyspace::prefix::Prefix;
//!
//! // The paper's example: the key group "0110*" (depth 4) of 7-bit keys
//! // contains "0110101" and "0110111"; its virtual key is "0110000".
//! let group = Prefix::parse("0110*", 7)?;
//! assert!(group.contains(Key::parse("0110101", 7)?));
//! assert!(group.contains(Key::parse("0110111", 7)?));
//! assert_eq!(group.virtual_key(), Key::parse("0110000", 7)?);
//! # Ok::<(), clash_keyspace::error::KeyError>(())
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod cover;
pub mod error;
pub mod hash;
pub mod key;
pub mod keygen;
pub mod prefix;

pub use cover::{PrefixCover, PrefixMap};
pub use error::KeyError;
pub use hash::{HashSpace, KeyHasher, SplitMixHasher};
pub use key::{Key, KeyWidth};
pub use keygen::{KeyGen, PathEncoder, QuadTreeEncoder};
pub use prefix::Prefix;
