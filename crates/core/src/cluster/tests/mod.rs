//! The cluster's unit tests. Each topical file under this directory is
//! spliced in with `include!`, so all of them share this module's
//! helpers and every test keeps its `cluster::tests::` path; the
//! from-scratch reference twins are a module of their own.

use super::*;
use clash_keyspace::key::{Key, KeyWidth};
use clash_obs::{CheckPhase, PhaseProfile, PhaseProfiler, TraceEventKind, TraceMode};
use clash_simkernel::metrics::SummarySnapshot;
use clash_transport::TransportStats;

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, KeyWidth::new(8).unwrap())
}

fn cluster(n: usize) -> ClashCluster {
    ClashCluster::new(ClashConfig::small_test(), n, 1).unwrap()
}

include!("protocol.rs");
include!("membership.rs");
include!("transport.rs");
include!("replication.rs");

mod full_scan;
