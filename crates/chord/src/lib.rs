//! Chord DHT substrate for the CLASH reproduction.
//!
//! CLASH (Misra, Castro & Lee, ICDCS 2004) is a redirection layer that
//! "leaves the base DHT protocol unchanged" (§2) and consumes exactly two
//! things from it: the `Map()` function (which server currently owns a hash
//! value) and its O(log S) lookup cost. The paper's simulator extends the
//! MIT Chord simulator; this crate is the equivalent from-scratch Chord
//! ([Stoica et al., SIGCOMM 2001]) built for deterministic in-process
//! simulation:
//!
//! * [`id::ChordId`] — M-bit ring identifiers with wrapping interval
//!   arithmetic;
//! * [`net::SimNet`] — the in-process network: iterative
//!   `find_successor` with per-hop counting and node join/leave/fail.
//!   Every alive node's successor list, predecessor and finger table sit
//!   at the fixpoint of Chord's maintenance protocol between any two
//!   calls: construction installs it and each membership call repairs
//!   the neighbourhood it changed, so no lookup ever routes over a stale
//!   entry. The tables are rows of a dense arena, each entry carrying
//!   the row it names, so a routing hop is array indexing;
//! * [`node::ChordNode`] — a read-only view of one node's row;
//! * [`virtual_nodes::VirtualRing`] — CFS-style virtual servers (used by
//!   the ablation experiments).
//!
//! # Example
//!
//! ```
//! use clash_chord::net::SimNet;
//! use clash_keyspace::hash::HashSpace;
//! use clash_simkernel::rng::DetRng;
//!
//! let mut rng = DetRng::new(7);
//! let mut net = SimNet::with_random_nodes(HashSpace::PAPER, 64, &mut rng);
//!
//! // Look up an arbitrary hash from an arbitrary node: the result is the
//! // ring successor, reached in O(log S) hops.
//! let start = net.node_ids()[0];
//! let result = net.find_successor(start, 0x123456);
//! assert_eq!(Some(result.owner), net.owner_of(0x123456));
//! assert!(result.hops <= 12);
//! ```

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod id;
pub mod net;
pub mod node;
pub mod snapshot;
pub mod virtual_nodes;

pub use id::ChordId;
pub use net::{LookupResult, SimNet, SUCCESSOR_LIST_LEN};
pub use node::ChordNode;
pub use snapshot::RouteSnapshot;
pub use virtual_nodes::VirtualRing;
