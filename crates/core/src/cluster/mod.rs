//! An in-process CLASH cluster: servers over a Chord ring, with the full
//! message flow of §5 and per-message accounting.
//!
//! The cluster plays three roles:
//!
//! 1. **Protocol harness** — it moves `ACCEPT_OBJECT`, `ACCEPT_KEYGROUP`,
//!    `RELEASE_KEYGROUP` and `LOAD_REPORT` messages between
//!    [`ClashServer`]s, routing through the simulated Chord ring and
//!    counting every message and hop ([`MessageStats`]). Every message is
//!    charged virtual time through a [`clash_transport::Transport`]
//!    (hop-by-hop for routed probes) into
//!    [`LatencyMetrics`](crate::latency::LatencyMetrics); a lossy or
//!    partitioned transport makes deliveries time out or fail, which the
//!    protocol paths survive by deferring work (see the per-method docs).
//! 2. **Data plane** — it tracks which streaming sources and continuous
//!    queries currently sit in which key group (the per-group *ledgers*),
//!    so splits and merges repartition load exactly.
//! 3. **Oracle** — it maintains the global map of active groups
//!    ([`ClashCluster::global_cover`]), which the tests use to verify the
//!    protocol's invariants (the active groups always partition the key
//!    space; every lookup lands on the true owner).
//!
//! One module per protocol step, each over the state struct it owns
//! (the map is in `docs/ARCHITECTURE.md`); this file keeps the cluster
//! itself and its construction.
//!
//! The full-scale experiment driver (`clash-sim`) wraps this type with
//! simulated time, workload generators and metric recording.

mod accounting;
mod data_plane;
mod load_check;
mod locate;
mod membership;
mod recovery;
mod replication;
#[cfg(test)]
mod tests;
mod verify;

use clash_chord::net::SimNet;
use clash_keyspace::hash::{KeyHasher, SplitMixHasher};
use clash_keyspace::prefix::Prefix;
use clash_simkernel::rng::DetRng;
use clash_transport::{InstantTransport, Transport};

use crate::arena::ServerArena;
use crate::config::ClashConfig;
use crate::error::ClashError;
use crate::server::ClashServer;
use crate::ServerId;

use data_plane::DataPlane;

pub use accounting::MessageStats;
pub use load_check::{LoadCheckReport, MergeRecord, SplitRecord};
pub use locate::{Placement, RangeQueryResult};
pub use membership::{JoinReport, LeaveReport};
pub use recovery::FailureReport;

/// An in-process CLASH cluster (see the module docs).
pub struct ClashCluster {
    config: ClashConfig,
    hasher: SplitMixHasher,
    net: SimNet,
    servers: ServerArena,
    oracle: verify::Oracle,
    data: DataPlane,
    rng: DetRng,
    wire: accounting::Wire,
    recovery: recovery::RecoveryState,
    candidates: load_check::Candidates,
    replica_work: replication::ReplicaWork,
    batch: locate::LocateBatch,
    obs: accounting::Obs,
    /// Chaos-only fault hook: when set, merges skip re-seeding the
    /// parent's replica set (see
    /// [`ClashCluster::set_chaos_skip_merge_reseed`]). Never set outside
    /// fault-injection tests.
    chaos_skip_merge_reseed: bool,
}

impl ClashCluster {
    /// Builds a cluster of `n_servers` over a stabilized Chord ring and
    /// bootstraps the initial uniform key groups onto their `Map()`
    /// owners.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: ClashConfig, n_servers: usize, seed: u64) -> Result<Self, ClashError> {
        Self::with_transport(config, n_servers, seed, Box::new(InstantTransport::new()))
    }

    /// [`ClashCluster::new`] over an explicit message transport (latency,
    /// loss and partition models live in `clash-transport`). The transport
    /// must derive its randomness from its own seed: the cluster never
    /// shares its protocol RNG with the transport, so swapping transports
    /// never perturbs protocol-level draws.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn with_transport(
        config: ClashConfig,
        n_servers: usize,
        seed: u64,
        transport: Box<dyn Transport>,
    ) -> Result<Self, ClashError> {
        config.validate()?;
        if n_servers == 0 {
            return Err(ClashError::InvalidConfig {
                reason: "cluster needs at least one server",
            });
        }
        let root_rng = DetRng::new(seed);
        let mut ring_rng = root_rng.substream("ring");
        let net = SimNet::with_random_nodes(config.hash_space, n_servers, &mut ring_rng);
        let mut servers = ServerArena::with_capacity(n_servers);
        let mut candidates = load_check::Candidates::default();
        for id in net.node_ids() {
            servers.insert(ClashServer::new(id, config.key_width));
            candidates.mark_dirty(id.value());
        }
        let mut cluster = ClashCluster {
            config,
            hasher: SplitMixHasher::new(config.hash_space, config.hash_seed),
            net,
            servers,
            oracle: verify::Oracle::new(),
            data: DataPlane::default(),
            rng: root_rng.substream("cluster"),
            wire: accounting::Wire::new(transport),
            recovery: Default::default(),
            candidates,
            replica_work: Default::default(),
            batch: Default::default(),
            obs: Default::default(),
            chaos_skip_merge_reseed: false,
        };
        if cluster.config.splitting_enabled {
            cluster.bootstrap_initial_groups()?;
        }
        Ok(cluster)
    }

    fn bootstrap_initial_groups(&mut self) -> Result<(), ClashError> {
        let depth = self.config.initial_depth;
        let width = self.config.key_width;
        for pattern in 0..(1u64 << depth) {
            let group = Prefix::new(pattern, depth, width)?;
            let owner = self.map_group(group);
            self.servers
                .live_mut(owner.value())
                .table_mut()
                .insert_root(group)?;
            self.candidates.mark_dirty(owner.value());
            self.oracle.insert(group, owner);
            self.data.open_group(group);
            self.ensure_replicas(group, owner);
        }
        Ok(())
    }

    /// `Map(f(virtual key))` by ground truth (no hop accounting) — the
    /// DHT's own placement function, used for bootstrap, membership
    /// handoffs and crash re-homing (a real deployment would route a
    /// lookup; the destination is identical).
    fn map_group(&self, group: Prefix) -> ServerId {
        let h = self.hasher.hash_key(group.virtual_key());
        self.net.owner_of(h).expect("ring is non-empty")
    }

    /// The configuration.
    pub fn config(&self) -> &ClashConfig {
        &self.config
    }

    /// The underlying Chord ring (its `stats()` as of the last flush).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// True if `source_id` is currently attached. Sources die when their
    /// group is lost in an unrecoverable crash
    /// ([`ClashCluster::rekey_source`] reports that itself).
    pub fn has_source(&self, source_id: u64) -> bool {
        self.data.sources.contains_key(source_id)
    }

    /// Number of currently attached sources.
    pub fn source_count(&self) -> usize {
        self.data.sources.len()
    }

    /// Number of currently attached queries.
    pub fn query_count(&self) -> usize {
        self.data.queries.len()
    }

    /// All server identifiers, in ascending ring order.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.net.node_ids()
    }

    /// A server by identifier.
    pub fn server(&self, id: ServerId) -> Option<&ClashServer> {
        self.servers.get(id.value())
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// `(server, load)` for every server.
    pub fn server_loads(&self) -> Vec<(ServerId, f64)> {
        self.debug_assert_window_closed();
        self.net
            .node_ids()
            .into_iter()
            .map(|id| (id, self.servers.live(id.value()).current_load()))
            .collect()
    }

    /// Servers currently holding at least one active group.
    pub fn servers_with_groups(&self) -> usize {
        self.servers
            .iter_slots()
            .filter(|s| s.table().active_count() > 0)
            .count()
    }
}

impl std::fmt::Debug for ClashCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClashCluster")
            .field("servers", &self.server_count())
            .field("groups", &self.oracle.view().len())
            .field("sources", &self.data.sources.len())
            .field("queries", &self.data.queries.len())
            .field("msgs", &self.wire.msgs)
            .finish()
    }
}
