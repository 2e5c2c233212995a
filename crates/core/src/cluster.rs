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
//!    (hop-by-hop for routed probes) into [`LatencyMetrics`]; a lossy or
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
//! The full-scale experiment driver (`clash-sim`) wraps this type with
//! simulated time, workload generators and metric recording.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use clash_chord::id::ChordId;
use clash_chord::net::SimNet;
use clash_chord::snapshot::RouteSnapshot;
use clash_keyspace::cover::{PrefixCover, PrefixMap};
use clash_keyspace::hash::{KeyHasher, SplitMixHasher};
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_obs::{
    CheckPhase, NullProfiler, NullSink, PhaseProfile, PhaseProfiler, Telemetry, TraceEvent,
    TraceEventKind, TraceSink,
};
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{
    Delivery, InstantTransport, LinkPolicy, MessageClass, SendSpec, Transport, TransportStats,
};

use crate::arena::ServerArena;
use crate::client::{DepthSearch, SearchOutcome};
use crate::config::ClashConfig;
use crate::error::ClashError;
use crate::latency::{ms, LatencyMetrics};
use crate::load::{GroupLoad, LoadLevel};
use crate::messages::ReleaseResponse;
use crate::replication::ReplicaRecord;
use crate::server::ClashServer;
use crate::table::TableEntry;
use crate::ServerId;

/// Where an object (source or query) was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The server owning the object's key group.
    pub server: ServerId,
    /// The key group.
    pub group: Prefix,
    /// The group's depth (the `d_c` the client discovered).
    pub depth: u32,
    /// Probes the depth search needed (1 for the fixed-depth baseline).
    pub probes: u32,
}

/// Message and action counters for the whole cluster (the Figure 5
/// accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Depth-search probes issued.
    pub probes: u64,
    /// Messages spent on probes: DHT routing hops plus one response each.
    pub probe_messages: u64,
    /// Completed locate operations.
    pub locates: u64,
    /// Messages spent placing right children (routing hops +
    /// `ACCEPT_KEYGROUP`).
    pub split_messages: u64,
    /// Messages spent on consolidation (`RELEASE_KEYGROUP` + response).
    pub merge_messages: u64,
    /// Remote leaf-to-parent load reports.
    pub report_messages: u64,
    /// State-transfer messages (one per migrated query object).
    pub state_transfer_messages: u64,
    /// Client redirect notifications after splits/merges (one per
    /// affected source).
    pub redirect_messages: u64,
    /// Splits performed.
    pub splits: u64,
    /// Merges performed.
    pub merges: u64,
    /// `ACCEPT_KEYGROUP` placements that landed on a *remote* server —
    /// one per completed split whose right child left the splitting
    /// server. Self-mapped splits send no `ACCEPT_KEYGROUP`.
    pub accept_keygroups: u64,
    /// Self-mapped split retries: the right child mapped back to the
    /// splitting server, which kept it and split again (§5's "another
    /// randomized attempt"). No `ACCEPT_KEYGROUP` is sent for these.
    pub self_mapped_retries: u64,
    /// Messages spent on live membership: join lookups and finger
    /// seeding, join/leave announcements, handoff `ACCEPT_KEYGROUP`s
    /// carrying full tree state, and pointer re-point notifications.
    pub handoff_messages: u64,
    /// Servers that joined the running cluster.
    pub joins: u64,
    /// Servers that left gracefully (drained).
    pub leaves: u64,
    /// Successor-list replication traffic: `REPLICATE_KEYGROUP` seeds and
    /// invalidations, `ACK_REPLICA` responses, and the per-group state
    /// fetch a crash recovery pays to promote a replica. Zero when the
    /// replication factor is 0.
    pub replication_messages: u64,
}

impl MessageStats {
    /// All control-plane messages (everything except state transfer) —
    /// Figure 5's case (A). This is the *conservative* accounting: each
    /// depth probe and `ACCEPT_KEYGROUP` placement is charged its full
    /// O(log S) DHT routing cost.
    pub fn control_messages(&self) -> u64 {
        self.probe_messages
            + self.split_messages
            + self.merge_messages
            + self.report_messages
            + self.redirect_messages
            + self.handoff_messages
            + self.replication_messages
    }

    /// Control messages counting only CLASH-protocol exchanges (request +
    /// response per probe, one `ACCEPT_KEYGROUP` per *remote* placement,
    /// reports, releases, redirects, membership handoffs) — treating DHT
    /// routing as substrate cost the way the paper's Figure 5 most
    /// plausibly does. Self-mapped split retries send no
    /// `ACCEPT_KEYGROUP` at all, so they are deliberately *not* charged
    /// here (they used to be, via `splits`, overcounting Figure 5).
    pub fn protocol_control_messages(&self) -> u64 {
        2 * self.probes
            + self.accept_keygroups
            + self.merge_messages
            + self.report_messages
            + self.redirect_messages
            + self.handoff_messages
            + self.replication_messages
    }

    /// All messages including state transfer — Figure 5's case (B).
    pub fn total_messages(&self) -> u64 {
        self.control_messages() + self.state_transfer_messages
    }
}

/// One split performed during a load check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRecord {
    /// The server that shed load.
    pub server: ServerId,
    /// The group that was split.
    pub group: Prefix,
    /// The server that accepted the right child.
    pub right_child_server: ServerId,
}

/// Outcome of a server failure and recovery ([`ClashCluster::fail_server`]
/// / [`ClashCluster::fail_servers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureReport {
    /// The (first) server that crashed.
    pub failed: ServerId,
    /// How many servers crashed in this event (1 for a single crash,
    /// more for a correlated burst).
    pub servers_failed: usize,
    /// Active key groups re-homed onto ring successors (recovered plus
    /// re-rooted-empty, so the active cover stays a partition).
    pub groups_reassigned: usize,
    /// Groups recovered with their full ledger state — from the oracle
    /// when the replication factor is 0 (the historical crutch), from a
    /// promoted successor replica otherwise.
    pub groups_recovered: usize,
    /// Groups whose owner *and* every live replica died (or whose state
    /// drifted away behind a partition): re-rooted empty, with their
    /// attached sources and queries truthfully reported lost below.
    /// Always 0 when the replication factor is 0.
    pub groups_lost: usize,
    /// Groups whose replicas all sit behind an active network partition:
    /// recovery is deferred (the group leaves the active cover) and
    /// retried at each load check until the partition heals.
    pub groups_deferred: usize,
    /// Stream sources lost with unrecoverable groups (their clients must
    /// re-attach from scratch).
    pub sources_lost: usize,
    /// Continuous queries lost with unrecoverable groups.
    pub queries_lost: usize,
    /// Surviving entries whose parent pointer died and became roots.
    pub orphaned_parents: usize,
    /// Surviving split entries whose right-child pointer was re-pointed.
    pub repaired_right_children: usize,
}

/// Outcome of a live server join ([`ClashCluster::join_server`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinReport {
    /// The server that joined.
    pub joined: ServerId,
    /// Active key groups handed off to the new server.
    pub groups_received: usize,
    /// Total table entries migrated, including interior (split) entries
    /// that share their hash with a migrated left-child spine.
    pub entries_received: usize,
    /// Parent pointers cluster-wide re-pointed at the new server.
    pub parents_repointed: usize,
    /// Right-child pointers cluster-wide re-pointed at the new server.
    pub right_children_repointed: usize,
    /// Maintenance rounds until the ring re-converged.
    pub stabilization_rounds: usize,
}

/// Outcome of a graceful drain ([`ClashCluster::leave_server`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveReport {
    /// The server that departed.
    pub left: ServerId,
    /// Active key groups transferred to the ring successor.
    pub groups_transferred: usize,
    /// Total table entries transferred (active and interior — the whole
    /// split tree survives, unlike crash recovery).
    pub entries_transferred: usize,
    /// Parent pointers cluster-wide re-pointed away from the leaver.
    pub parents_repointed: usize,
    /// Right-child pointers cluster-wide re-pointed away from the leaver.
    pub right_children_repointed: usize,
    /// Maintenance rounds until the ring re-converged.
    pub stabilization_rounds: usize,
}

/// A crash recovery deferred behind a partition: where the surviving
/// replicas were seeded from, and whether a single crash stranded it.
#[derive(Debug, Clone, Copy)]
struct PendingRecovery {
    old_owner: ServerId,
    single_crash: bool,
    /// Load checks this entry has stayed blocked since it was deferred
    /// (0 = never retried yet). Feeds the
    /// `recovery.deferred_max_wait_checks` telemetry counter.
    waited_checks: u64,
}

/// Internal tally of one entry-migration batch.
struct MigrationTally {
    active_groups: usize,
    entries: usize,
    parents_repointed: usize,
    right_children_repointed: usize,
}

/// Outcome of a distributed range query ([`ClashCluster::range_query`]).
#[derive(Debug, Clone)]
pub struct RangeQueryResult {
    /// The groups visited, with their owners, in key order.
    pub groups: Vec<(Prefix, ServerId)>,
    /// Number of distinct servers touched — the §7 clustering metric.
    pub distinct_servers: usize,
    /// Depth-search probes spent.
    pub probes: u32,
    /// Control messages spent (hop-inclusive).
    pub messages: u64,
}

/// One merge performed during a load check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRecord {
    /// The server that consolidated.
    pub server: ServerId,
    /// The parent group that became active again.
    pub parent: Prefix,
}

/// Outcome of one cluster-wide load check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadCheckReport {
    /// Splits performed, in order.
    pub splits: Vec<SplitRecord>,
    /// Merges performed, in order.
    pub merges: Vec<MergeRecord>,
    /// Merge attempts refused by the child (stale report).
    pub refusals: u64,
    /// Partition-deferred crash recoveries completed this check (the
    /// replicas became reachable again and were promoted).
    pub recoveries_completed: u64,
    /// Deferred recoveries abandoned this check because every replica
    /// holder has since died: the groups were re-rooted empty.
    pub recoveries_lost: u64,
    /// Subset of [`LoadCheckReport::recoveries_lost`] whose originating
    /// crash was a *single*-server failure (availability experiments pin
    /// this at 0 for any replication factor ≥ 1).
    pub recoveries_lost_single: u64,
    /// Sources dropped while resolving deferred recoveries this check
    /// (stranded by an abandoned group, or reconciled away because a
    /// partition starved the promoted replica's write-through).
    pub recovery_sources_lost: u64,
    /// Queries dropped while resolving deferred recoveries this check.
    pub recovery_queries_lost: u64,
}

/// Per-group data-plane state. The member lists live behind `Arc`s so
/// replica payloads are O(1) snapshots: seeding `r` holders shares one
/// allocation, and a later ledger mutation copies-on-write only if a
/// replica still holds the old snapshot (at `r = 0` the `Arc`s are never
/// shared, so `make_mut` never copies).
#[derive(Debug, Clone, Default)]
struct GroupLedger {
    sources: Arc<Vec<u64>>,
    queries: Arc<Vec<u64>>,
    rate: f64,
}

impl GroupLedger {
    fn load(&self) -> GroupLoad {
        GroupLoad {
            data_rate: self.rate,
            queries: self.queries.len() as u64,
        }
    }
}

#[derive(Debug, Clone)]
struct SourceRec {
    key: Key,
    rate: f64,
    group: Prefix,
}

#[derive(Debug, Clone)]
struct QueryRec {
    key: Key,
    group: Prefix,
}

/// One locate probe planned by the batched client path — everything the
/// charge phase needs to replay the sequential accounting bit-for-bit
/// (see the "batched locate state" section of [`ClashCluster`]).
#[derive(Debug, Clone, Copy)]
struct PlannedProbe {
    /// Client entry node (the `random_alive` draw, made at plan time so
    /// the cluster RNG advances in exact op order).
    start: ServerId,
    /// Hashed probe target `f(virtual key)`.
    target: u64,
    /// The owner the plan resolved by ground truth. Batch windows only
    /// exist between membership barriers, when the ring is converged, so
    /// the routed owner must agree (debug-asserted at charge time).
    owner: ServerId,
    /// True when this probe completed its locate: the charge phase
    /// counts the locate and observes the op's accumulated latency here.
    /// For the adaptive protocol this is also the accepting probe.
    op_end: bool,
    /// The located key's bits — carried so the charge phase can emit the
    /// flight-recorder probe event in plan order (zero cost otherwise).
    key_bits: u64,
    /// The depth this probe guessed (see `key_bits`).
    depth: u32,
}

/// A planned probe after snapshot routing: the plan plus the routed
/// hop count and per-hop path, ready for in-order charging.
#[derive(Debug)]
struct RoutedProbe {
    plan: PlannedProbe,
    owner: ServerId,
    hops: u32,
    path: Vec<(ChordId, ChordId)>,
}

/// An in-process CLASH cluster (see the module docs).
pub struct ClashCluster {
    config: ClashConfig,
    hasher: SplitMixHasher,
    net: SimNet,
    servers: ServerArena,
    global_index: PrefixMap<ServerId>,
    ledgers: BTreeMap<Prefix, GroupLedger>,
    sources: BTreeMap<u64, SourceRec>,
    queries: BTreeMap<u64, QueryRec>,
    msgs: MessageStats,
    rng: DetRng,
    /// The message transport: every protocol message is charged virtual
    /// time (and may be refused by a partition) through this. The default
    /// [`InstantTransport`] reproduces direct-call semantics exactly.
    transport: Box<dyn Transport>,
    /// End-to-end per-operation latency recorders.
    latency: LatencyMetrics,
    /// Safety cap on splits per server per load check.
    max_splits_per_check: u32,
    /// Safety cap on merges per server per load check.
    max_merges_per_check: u32,
    /// Crash recoveries deferred behind a network partition: the group
    /// (currently absent from the active cover) mapped to its dead owner
    /// and the kind of crash that stranded it, whose surviving replicas
    /// must become reachable before promotion. Retried at every load
    /// check; always empty without replication.
    pending_recovery: BTreeMap<Prefix, PendingRecovery>,
    /// Deferred-recovery retry attempts since construction: every
    /// per-group attempt of `retry_deferred_recoveries` counts exactly
    /// once, so `retries == retries_blocked + completed + lost` (the
    /// conservation law `tests/replication_faults.rs` pins).
    recovery_retries: u64,
    /// Subset of [`ClashCluster::recovery_retries`] that stayed blocked
    /// behind the partition.
    recovery_retries_blocked: u64,
    /// The longest any `pending_recovery` entry has waited, in load
    /// checks — stuck entries surface here instead of staying silent.
    recovery_deferred_max_wait: u64,
    /// Chaos-only fault hook: when set, merges skip re-seeding the
    /// parent's replica set (see
    /// [`ClashCluster::set_chaos_skip_merge_reseed`]). Never set outside
    /// fault-injection tests.
    chaos_skip_merge_reseed: bool,
    /// True while crash recovery runs — any oracle (`global_index`) read
    /// in that window is counted below. With replication enabled the
    /// replica-promotion path must keep the counter at zero; tests and
    /// the availability experiment enforce it.
    recovery_active: Cell<bool>,
    /// Oracle reads observed during crash recovery (see above).
    oracle_reads_in_recovery: Cell<u64>,
    // ----- dirty-tracked load-check state --------------------------------
    //
    // The load check used to sweep every server every period. These
    // incrementally-maintained candidate sets make its cost scale with
    // what changed instead: every cluster path that mutates a server's
    // table or load marks it dirty, and `refresh_candidates` folds the
    // dirty set into the three candidate indices using the *same*
    // classification functions the full sweep used — so candidate
    // membership (and therefore every protocol decision) is bit-for-bit
    // identical to a from-scratch scan. `verify_candidate_indices`
    // asserts exactly that in debug builds, and a differential proptest
    // pins it against the full-scan reference mode.
    /// Servers whose load/table state changed since their last
    /// classification.
    dirty_servers: BTreeSet<u64>,
    /// Servers currently classified overloaded (split candidates).
    overloaded: BTreeSet<u64>,
    /// Servers currently underloaded *and* holding at least one split
    /// (inactive) entry — the only servers that can possibly merge.
    mergeable: BTreeSet<u64>,
    /// Servers owing at least one load report.
    reporters: BTreeSet<u64>,
    /// Groups whose replica placement needs (re-)ensuring: payload
    /// under-replicated after a partition skip, or holders dropped by a
    /// failed write-through. Steady-state groups whose placement is
    /// complete are never touched by `sync_replicas`.
    replica_dirty: BTreeSet<Prefix>,
    /// Ring positions that joined, left or crashed since the last
    /// `sync_replicas`: the successor sets of their `r` alive ring
    /// predecessors changed, so the next sync re-ensures those owners'
    /// groups (and expires leases if a position is now empty).
    replica_resync_at: Vec<ServerId>,
    /// A deferred-recovery retry changed the pending set, or the
    /// reference mode is on: the next `sync_replicas` runs the whole
    /// lease-expiry + placement sweep over every server.
    replica_full_sync: bool,
    /// Reference mode for differential tests: every load check marks all
    /// servers dirty, and every replica sync — periodic or
    /// membership-triggered — is the whole-cluster sweep, reproducing
    /// the historical full-scan semantics from scratch.
    full_scan_checks: bool,
    /// `CLASH_VERIFY_EVERY`: run the debug-build consistency sweep on
    /// every Nth `debug_verify` call (default 1 = every call; 0 = never).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    verify_every: u32,
    /// Calls remaining until the next debug-build consistency sweep.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    verify_countdown: Cell<u32>,
    /// Reused scratch for the report-delivery batch.
    deliver_scratch: Vec<(ServerId, ServerId, Prefix, GroupLoad, bool, bool)>,
    // ----- batched locate state ------------------------------------------
    //
    // With `config.shards > 0` the client locate path splits into three
    // phases. **Plan** (at the op): draw the entry node, resolve the
    // probe's owner by ground truth (legal because batch windows only
    // exist between membership barriers, when routing and ground truth
    // agree), run the depth search against live server tables, and queue
    // a `PlannedProbe`; ledger mutations stay synchronous, group-load
    // pushes are coalesced into `batch_touched`. **Route** (pure, at the
    // barrier): resolve each probe's DHT route, in plan order, against a
    // frozen `RouteSnapshot`. **Charge** (in plan order): resolve every
    // transport message of the flush in one `send_batch`, then replay hop
    // stats, message counters and latency observations exactly as the
    // unbatched path interleaves them. `flush_batch` runs at every
    // barrier; results are bit-for-bit identical to `shards = 0`
    // (sequential) — pinned by `tests/shard_equivalence.rs` and the
    // `sharded_batching_matches_sequential` proptest. The sequential
    // path stays because batching steps aside under a partition and for
    // the fixed-depth baseline (see `batching_active`): on those inputs
    // it is the only path.
    /// Probes planned but not yet routed/charged.
    batch_probes: Vec<PlannedProbe>,
    /// Groups with a deferred (coalesced) load push.
    batch_touched: BTreeSet<Prefix>,
    /// Monotone flush counter (the flight recorder's flush ordinal).
    flush_seq: u64,
    /// Frozen routing state for the current batch window; dropped by
    /// every ring-membership mutation, rebuilt lazily at the next flush.
    route_snapshot: Option<RouteSnapshot>,
    /// Debug builds: how many route phases passed the zero-cluster-RNG-draw
    /// cross-check (the runtime mirror of the clash-lint static rules).
    #[cfg(debug_assertions)]
    route_draw_checks: u64,
    // ----- observability -------------------------------------------------
    //
    // The flight recorder and profiler are strictly passive: events are
    // pre-stamped with the driver-advanced virtual clock, recording never
    // draws RNG or reads a wall clock (the one clock reader lives in
    // `clash-obs`, behind the `PhaseProfiler` trait), and nothing here
    // feeds back into protocol decisions — `tests/trace_equivalence.rs`
    // pins bit-for-bit identical fingerprints with tracing on and off.
    /// Where emitted `TraceEvent`s go (`NullSink` by default).
    trace: Box<dyn TraceSink>,
    /// Cached `trace.enabled()`: emit sites test this bool and skip
    /// event construction entirely when tracing is off.
    trace_on: bool,
    /// Monotone event sequence number (orders same-instant events).
    trace_seq: u64,
    /// Load checks run since construction (the trace ordinal).
    load_checks_run: u64,
    /// Virtual "now" for event stamps, advanced by the driver before it
    /// dispatches each simulation event; zero in cluster-only tests.
    sim_now: SimTime,
    /// Per-phase load-check/flush profiler (`NullProfiler` by default).
    profiler: Box<dyn PhaseProfiler>,
    /// True once a real profiler is installed.
    profile_on: bool,
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
        let mut net = SimNet::with_random_nodes(config.hash_space, n_servers, &mut ring_rng);
        net.build_stable();
        let mut servers = ServerArena::new();
        let mut dirty_servers = BTreeSet::new();
        for id in net.node_ids() {
            servers.insert(ClashServer::new(id, config));
            dirty_servers.insert(id.value());
        }
        let verify_every = ClashConfig::verify_every_from_env();
        let mut cluster = ClashCluster {
            config,
            hasher: SplitMixHasher::new(config.hash_space, config.hash_seed),
            net,
            servers,
            global_index: PrefixMap::new(config.key_width),
            ledgers: BTreeMap::new(),
            sources: BTreeMap::new(),
            queries: BTreeMap::new(),
            msgs: MessageStats::default(),
            rng: root_rng.substream("cluster"),
            transport,
            latency: LatencyMetrics::new(),
            max_splits_per_check: 64,
            max_merges_per_check: 64,
            pending_recovery: BTreeMap::new(),
            recovery_retries: 0,
            recovery_retries_blocked: 0,
            recovery_deferred_max_wait: 0,
            chaos_skip_merge_reseed: false,
            recovery_active: Cell::new(false),
            oracle_reads_in_recovery: Cell::new(0),
            dirty_servers,
            overloaded: BTreeSet::new(),
            mergeable: BTreeSet::new(),
            reporters: BTreeSet::new(),
            replica_dirty: BTreeSet::new(),
            replica_resync_at: Vec::new(),
            replica_full_sync: false,
            full_scan_checks: false,
            verify_every,
            verify_countdown: Cell::new(1),
            deliver_scratch: Vec::new(),
            batch_probes: Vec::new(),
            batch_touched: BTreeSet::new(),
            flush_seq: 0,
            route_snapshot: None,
            #[cfg(debug_assertions)]
            route_draw_checks: 0,
            trace: Box::new(NullSink),
            trace_on: false,
            trace_seq: 0,
            load_checks_run: 0,
            sim_now: SimTime::ZERO,
            profiler: Box::new(NullProfiler),
            profile_on: false,
        };
        if cluster.config.splitting_enabled {
            cluster.bootstrap_initial_groups()?;
        }
        Ok(cluster)
    }

    fn bootstrap_initial_groups(&mut self) -> Result<(), ClashError> {
        let depth = self.config.initial_depth;
        let width = self.config.key_width;
        let mut seeded = Vec::new();
        for pattern in 0..(1u64 << depth) {
            let group = Prefix::new(pattern, depth, width)?;
            let owner = self.map_group(group);
            self.servers
                .get_mut(owner.value())
                .expect("owner is a ring member")
                .bootstrap_root(group)?;
            self.mark_dirty(owner.value());
            self.global_index.insert(group, owner);
            self.ledgers.insert(group, GroupLedger::default());
            seeded.push((group, owner));
        }
        for (group, owner) in seeded {
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

    /// Every read of the global index funnels through this guard so the
    /// replica-based crash recovery can *prove* it never consults the
    /// oracle: reads while recovery is active are counted, and the
    /// replication tests pin the counter at zero.
    fn count_oracle_read(&self) {
        if self.recovery_active.get() {
            self.oracle_reads_in_recovery
                .set(self.oracle_reads_in_recovery.get() + 1);
        }
    }

    /// The oracle's owner for `group` (counted; see
    /// [`ClashCluster::recovery_oracle_reads`]).
    fn oracle_owner(&self, group: Prefix) -> Option<ServerId> {
        self.count_oracle_read();
        self.global_index.get(group).copied()
    }

    // ----- dirty-tracked candidate indices -------------------------------

    /// Marks a server's classification stale. Every cluster path that
    /// mutates a server's table or load calls this; missing a site is a
    /// bug that `verify_candidate_indices` (debug builds) and the
    /// full-scan differential proptest catch.
    fn mark_dirty(&mut self, sid_value: u64) {
        self.dirty_servers.insert(sid_value);
    }

    /// Drops a departed server from every candidate index.
    fn forget_server(&mut self, sid_value: u64) {
        self.dirty_servers.remove(&sid_value);
        self.overloaded.remove(&sid_value);
        self.mergeable.remove(&sid_value);
        self.reporters.remove(&sid_value);
    }

    /// Marks every live server dirty (construction, membership sweeps,
    /// and the full-scan reference mode).
    fn mark_all_dirty(&mut self) {
        self.dirty_servers.extend(self.servers.ids());
    }

    /// Folds the dirty set into the candidate indices, using exactly the
    /// classification the historical full sweep applied per server:
    /// [`ClashServer::load_level`] (recomputed from scratch, so float
    /// summation order — and therefore every threshold comparison — is
    /// identical to the pre-optimization code) plus the cheap structural
    /// predicates for merge-ability and report-owing. A departed server
    /// leaves every index.
    fn refresh_candidates(&mut self) {
        for sid in std::mem::take(&mut self.dirty_servers) {
            let (over, merge, owes) = self.servers.get(sid).map_or((false, false, false), |s| {
                let level = s.load_level();
                (
                    level == LoadLevel::Overloaded,
                    level == LoadLevel::Underloaded && s.table().has_split_entries(),
                    s.owes_reports(),
                )
            });
            for (index, member) in [
                (&mut self.overloaded, over),
                (&mut self.mergeable, merge),
                (&mut self.reporters, owes),
            ] {
                if member {
                    index.insert(sid);
                } else {
                    index.remove(&sid);
                }
            }
        }
    }

    /// Asserts that every *clean* (non-dirty) server's candidate-index
    /// membership matches a from-scratch classification — the invariant
    /// that makes the dirty-tracked load check equivalent to the
    /// historical full sweep. Dirty servers are exempt: their stale
    /// entries are refreshed before the next candidate is picked.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch (a missed `mark_dirty` site).
    pub fn verify_candidate_indices(&self) {
        for server in self.servers.iter() {
            let sid = server.id().value();
            if self.dirty_servers.contains(&sid) {
                continue;
            }
            let level = server.load_level();
            assert_eq!(
                self.overloaded.contains(&sid),
                level == LoadLevel::Overloaded,
                "stale overloaded-index entry for {sid:#x}"
            );
            let can_merge = level == LoadLevel::Underloaded && server.table().has_split_entries();
            assert_eq!(
                self.mergeable.contains(&sid),
                can_merge,
                "stale mergeable-index entry for {sid:#x}"
            );
            assert_eq!(
                self.reporters.contains(&sid),
                server.owes_reports(),
                "stale reporter-index entry for {sid:#x}"
            );
        }
        for sid in self
            .overloaded
            .iter()
            .chain(self.mergeable.iter())
            .chain(self.reporters.iter())
        {
            assert!(
                self.servers.contains(*sid) || self.dirty_servers.contains(sid),
                "candidate index names departed server {sid:#x}"
            );
        }
    }

    /// Reference mode for differential tests: when enabled, every load
    /// check reclassifies *all* servers and full-syncs every replica
    /// group from scratch — the historical O(cluster) sweep semantics.
    /// The optimized dirty-tracked path must be bit-for-bit identical to
    /// this mode on every seed; `tests/perf_equivalence.rs` and the
    /// `dirty_tracked_load_checks_match_full_scan` proptest pin that.
    pub fn set_full_scan_load_checks(&mut self, on: bool) {
        self.full_scan_checks = on;
    }

    // ----- accessors ---------------------------------------------------

    /// The configuration.
    pub fn config(&self) -> &ClashConfig {
        &self.config
    }

    /// The underlying Chord ring.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Message statistics since the last reset.
    pub fn message_stats(&self) -> MessageStats {
        self.msgs
    }

    /// Resets message statistics (per-measurement-window accounting).
    pub fn reset_message_stats(&mut self) {
        self.msgs = MessageStats::default();
        self.net.reset_stats();
        self.transport.reset_stats();
    }

    /// The transport's delivery counters (retransmissions, unreachable
    /// sends, mean latency).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// The per-operation latency histograms (virtual milliseconds).
    pub fn latency_metrics(&self) -> &LatencyMetrics {
        &self.latency
    }

    /// True when the cluster runs over the zero-latency instant
    /// transport — every latency observation is identically zero, so
    /// callers can skip percentile bookkeeping entirely.
    pub fn transport_is_instant(&self) -> bool {
        self.transport.is_instant()
    }

    /// Oracle (`global_index`) reads observed while crash recovery was in
    /// progress, cumulative since construction. With
    /// [`crate::config::ClashConfig::replication_factor`] `> 0` the
    /// replica-promotion recovery never touches the oracle, so this stays
    /// 0 — the no-crutch guarantee the replication tests and the
    /// availability experiment pin.
    pub fn recovery_oracle_reads(&self) -> u64 {
        self.oracle_reads_in_recovery.get()
    }

    /// Crash recoveries currently deferred behind a network partition.
    pub fn pending_recoveries(&self) -> usize {
        self.pending_recovery.len()
    }

    /// The groups of every deferred recovery, in key order. Together
    /// with [`ClashCluster::global_cover`] these partition the key space
    /// (the cover∪pending completeness invariant the chaos campaigns
    /// re-check without panicking).
    pub fn pending_recovery_groups(&self) -> Vec<Prefix> {
        self.pending_recovery.keys().copied().collect()
    }

    /// Cumulative deferred-recovery retry counters since construction:
    /// `(retries, retries_blocked)`. Every retry attempt lands in
    /// exactly one of blocked / completed / lost, so
    /// `retries == retries_blocked + recoveries_completed + recoveries_lost`
    /// summed over all load-check reports.
    pub fn recovery_retry_counters(&self) -> (u64, u64) {
        (self.recovery_retries, self.recovery_retries_blocked)
    }

    /// True while the transport is severed into islands.
    pub fn network_is_partitioned(&self) -> bool {
        self.transport.is_partitioned()
    }

    /// Active groups whose replica placement is below the successor-list
    /// target *and* not queued for repair — `(group, live_holders,
    /// desired)`. Transiently-under-replicated groups sit in the
    /// periodic sync's worklist and are excluded; at quiescence (healed
    /// network, no pending recoveries, a completed load check) this is
    /// empty, which the chaos invariant suite checks. A group that shows
    /// up here has silently fallen out of the replication protocol.
    pub fn replica_placement_deficit(&self) -> Vec<(Prefix, usize, usize)> {
        if !self.replication_enabled() {
            return Vec::new();
        }
        let mut deficit = Vec::new();
        for (group, &owner) in self.global_index.iter() {
            if self.replica_dirty.contains(&group) || self.pending_recovery.contains_key(&group) {
                continue;
            }
            let Some(server) = self.servers.get(owner.value()) else {
                continue;
            };
            let desired = self
                .net
                .alive_successors(owner, self.config.replication_factor)
                .len();
            let live = server
                .replica_store()
                .placed(group)
                .iter()
                .filter(|h| self.servers.contains(h.value()))
                .count();
            if live < desired {
                deficit.push((group, live, desired));
            }
        }
        deficit
    }

    /// Chaos-only fault hook: when enabled, merges skip the parent
    /// group's replica re-seed, silently dropping the merged group out
    /// of the replication protocol. Exists so the fault-injection
    /// campaigns can prove they catch a real protocol bug (the
    /// `clash-chaos` injected-bug test); never enable it elsewhere.
    pub fn set_chaos_skip_merge_reseed(&mut self, on: bool) {
        self.chaos_skip_merge_reseed = on;
    }

    // ----- observability -------------------------------------------------

    /// Installs a flight-recorder sink; whatever the previous sink still
    /// buffered is discarded with it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_on = sink.enabled();
        self.trace = sink;
    }

    /// Installs a per-phase profiler (the driver wires a wall-clock one;
    /// the cluster itself only names phases and never reads a clock).
    pub fn set_profiler(&mut self, profiler: Box<dyn PhaseProfiler>) {
        self.profile_on = true;
        self.profiler = profiler;
    }

    /// The profiler's accumulated per-phase milliseconds.
    pub fn phase_profile(&self) -> PhaseProfile {
        self.profiler.profile()
    }

    /// Advances the recorder's virtual clock. The driver calls this
    /// before dispatching each simulation event so every trace stamp is
    /// the sim time of the decision, not a wall-clock reading.
    pub fn set_now(&mut self, now: SimTime) {
        self.sim_now = now;
    }

    /// Drains everything the flight recorder buffered, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Events the bounded ring sink had to shed (0 for other sinks).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Total protocol RNG draws since construction. Trace collection
    /// must never move this — `tests/trace_equivalence.rs` pins it.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draw_count()
    }

    /// Records one event. Callers guard with `self.trace_on` so the
    /// disabled path never even constructs the event.
    fn emit(&mut self, kind: TraceEventKind) {
        let ev = TraceEvent {
            at: self.sim_now,
            seq: self.trace_seq,
            kind,
        };
        self.trace_seq += 1;
        self.trace.record(ev);
    }

    fn phase_begin(&mut self, phase: CheckPhase) {
        if self.profile_on {
            self.profiler.begin(phase);
        }
    }

    fn phase_end(&mut self, phase: CheckPhase) {
        if self.profile_on {
            self.profiler.end(phase);
        }
    }

    /// On a consistency failure: dump the flight recorder's tail to
    /// stderr so the panic message comes with the decisions that led
    /// there. No-op when tracing is off or nothing is buffered.
    fn dump_trace_tail(&self) {
        // Ask for at most what the sink can actually hold: a ring
        // smaller than the default window used to make the header's
        // "last N" claim overstate the available history.
        const TAIL: usize = 64;
        let want = self.trace.capacity().map_or(TAIL, |cap| cap.min(TAIL));
        let tail = self.trace.tail(want);
        if tail.is_empty() {
            return;
        }
        eprintln!(
            "--- flight recorder: last {} event(s) before failure ({} shed) ---",
            tail.len(),
            self.trace.dropped()
        );
        for ev in &tail {
            eprintln!(
                "  [{:>12} us seq {:>8}] {:?}",
                ev.at.as_micros(),
                ev.seq,
                ev.kind
            );
        }
        eprintln!("--- end flight recorder tail ---");
    }

    /// Exports the cluster's counters and latency distributions into a
    /// unified [`Telemetry`] registry (the driver layers its own
    /// counters on top under a `driver.` prefix).
    pub fn telemetry(&self) -> Telemetry {
        let mut t = Telemetry::new();
        let m = &self.msgs;
        t.counter("messages.probes", m.probes);
        t.counter("messages.probe_messages", m.probe_messages);
        t.counter("messages.locates", m.locates);
        t.counter("messages.split_messages", m.split_messages);
        t.counter("messages.merge_messages", m.merge_messages);
        t.counter("messages.report_messages", m.report_messages);
        t.counter(
            "messages.state_transfer_messages",
            m.state_transfer_messages,
        );
        t.counter("messages.redirect_messages", m.redirect_messages);
        t.counter("messages.splits", m.splits);
        t.counter("messages.merges", m.merges);
        t.counter("messages.accept_keygroups", m.accept_keygroups);
        t.counter("messages.self_mapped_retries", m.self_mapped_retries);
        t.counter("messages.handoff_messages", m.handoff_messages);
        t.counter("messages.joins", m.joins);
        t.counter("messages.leaves", m.leaves);
        t.counter("messages.replication_messages", m.replication_messages);
        t.counter("messages.control_total", m.control_messages());
        t.counter("messages.total", m.total_messages());
        t.gauge("servers.active", self.server_count() as f64);
        t.gauge("recovery.pending", self.pending_recovery.len() as f64);
        t.counter("recovery.retries", self.recovery_retries);
        t.counter("recovery.retries_blocked", self.recovery_retries_blocked);
        t.counter(
            "recovery.deferred_max_wait_checks",
            self.recovery_deferred_max_wait,
        );
        t.counter("recovery.oracle_reads", self.recovery_oracle_reads());
        t.counter("trace.dropped", self.trace.dropped());
        t.counter("rng.draws", self.rng.draw_count());
        let l = &self.latency;
        t.summary("latency.locate_ms", l.locate.summary().snapshot());
        t.summary("latency.report_ms", l.report.summary().snapshot());
        t.summary("latency.split_ms", l.split.summary().snapshot());
        t.summary("latency.merge_ms", l.merge.summary().snapshot());
        t.summary("latency.handoff_ms", l.handoff.summary().snapshot());
        t.summary("latency.replication_ms", l.replication.summary().snapshot());
        t
    }

    /// True if `source_id` is currently attached. Sources die when their
    /// group is lost in an unrecoverable crash, so long-running drivers
    /// check before re-keying a stream.
    pub fn has_source(&self, source_id: u64) -> bool {
        self.sources.contains_key(&source_id)
    }

    /// True if `query_id` is currently attached (see
    /// [`ClashCluster::has_source`]).
    pub fn has_query(&self, query_id: u64) -> bool {
        self.queries.contains_key(&query_id)
    }

    fn replication_enabled(&self) -> bool {
        self.config.replication_factor > 0
    }

    /// Severs the network into islands of servers: protocol messages
    /// between islands fail with [`ClashError::NetworkUnreachable`] (or
    /// are silently lost, for soft-state reports) until
    /// [`ClashCluster::heal_partition`]. No-op on the instant transport.
    pub fn partition_network(&mut self, islands: &[Vec<ServerId>]) {
        // Close the batch window before the cut: batched ops planned on
        // the connected network must be charged at connected-network
        // prices. The transport is connected here, so charging cannot
        // fail.
        self.flush_batch()
            .expect("flush before partition cannot hit a severed link");
        let raw: Vec<Vec<u64>> = islands
            .iter()
            .map(|island| island.iter().map(|id| id.value()).collect())
            .collect();
        self.transport.partition(&raw);
    }

    /// Replaces the transport's link policy for all future messages —
    /// the gray-failure knob: latency/loss degrade (or recover) at
    /// runtime without rebuilding the transport. Existing links keep
    /// their sampled base propagation delay (see
    /// [`Transport::set_policy`]). No-op on the instant transport.
    pub fn set_link_policy(&mut self, policy: LinkPolicy) {
        // Close the batch window first: ops planned under the old policy
        // must be charged at the prices they were planned under. While
        // partitioned the window is empty (batching is inert), so the
        // flush cannot hit a severed link either way.
        self.flush_batch()
            .expect("flush before policy change cannot hit a severed link");
        self.transport.set_policy(policy);
    }

    /// Heals any active network partition.
    pub fn heal_partition(&mut self) {
        // Batching is disabled while partitioned, so the batch is empty
        // here in practice; flushing anyway keeps the invariant local.
        self.flush_batch()
            .expect("flush before heal cannot hit a severed link");
        self.transport.heal();
    }

    /// Charges one routed probe through the transport: every routing hop
    /// of `path` plus the response from `owner` back to `start`. Used by
    /// both locate paths so their latency accounting can never diverge.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::NetworkUnreachable`] on the first severed
    /// hop (any latency already accumulated into `op_latency` stands —
    /// the time was spent before the route hit the cut).
    fn charge_probe_route(
        &mut self,
        start: ChordId,
        owner: ChordId,
        path: Vec<(ChordId, ChordId)>,
        op_latency: &mut SimDuration,
    ) -> Result<(), ClashError> {
        for (from, to) in path {
            if !self.transport_send(from, to, MessageClass::Probe, op_latency) {
                return Err(ClashError::NetworkUnreachable { from, to });
            }
        }
        if !self.transport_send(owner, start, MessageClass::ProbeResponse, op_latency) {
            return Err(ClashError::NetworkUnreachable {
                from: owner,
                to: start,
            });
        }
        Ok(())
    }

    /// Sends one protocol message through the transport, accumulating the
    /// delivered latency into `total`. Returns false (leaving `total`
    /// untouched) when the destination is unreachable.
    fn transport_send(
        &mut self,
        from: ChordId,
        to: ChordId,
        class: MessageClass,
        total: &mut SimDuration,
    ) -> bool {
        match self.transport.send(from.value(), to.value(), class) {
            Delivery::Delivered { latency, .. } => {
                *total += latency;
                true
            }
            Delivery::Unreachable { .. } => false,
        }
    }

    /// All server identifiers.
    pub fn server_ids(&self) -> Vec<ServerId> {
        self.servers.iter().map(ClashServer::id).collect()
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
        self.servers
            .iter()
            .map(|s| (s.id(), s.current_load()))
            .collect()
    }

    /// Servers currently holding at least one active group.
    pub fn servers_with_groups(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.table().active_count() > 0)
            .count()
    }

    /// The global set of active groups as a prefix cover (the oracle).
    pub fn global_cover(&self) -> PrefixCover {
        self.count_oracle_read();
        let mut cover = PrefixCover::new(self.config.key_width);
        for p in self.global_index.prefixes() {
            cover.insert(p).expect("global index must be prefix-free");
        }
        cover
    }

    /// The server currently homing `group`, if it is an active group of
    /// the global index. Diagnostic/test accessor — the protocol itself
    /// resolves owners through the DHT, never through this map.
    pub fn group_owner(&self, group: Prefix) -> Option<ServerId> {
        self.global_index.get(group).copied()
    }

    /// Global depth statistics `(min, mean, max)` over active groups.
    pub fn depth_stats(&self) -> Option<(u32, f64, u32)> {
        let mut min = u32::MAX;
        let mut max = 0;
        let mut sum = 0u64;
        let mut n = 0u64;
        for p in self.global_index.prefixes() {
            min = min.min(p.depth());
            max = max.max(p.depth());
            sum += u64::from(p.depth());
            n += 1;
        }
        (n > 0).then(|| (min, sum as f64 / n as f64, max))
    }

    /// Ground-truth owner of a key (oracle; no messages).
    pub fn oracle_locate(&self, key: Key) -> Option<(ServerId, Prefix)> {
        self.count_oracle_read();
        self.global_index
            .longest_prefix_match(key)
            .map(|(p, &s)| (s, p))
    }

    // ----- client operations (§5) ---------------------------------------

    /// Locates the server and depth for `key` using the client protocol:
    /// the modified binary search over `ACCEPT_OBJECT` probes, each routed
    /// through the DHT. For the fixed-depth baseline a single lookup
    /// suffices.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::SearchDiverged`] only on protocol invariant
    /// violations.
    pub fn locate(&mut self, key: Key) -> Result<Placement, ClashError> {
        self.locate_hinted(key, None)
    }

    /// [`ClashCluster::locate`] with a first-guess depth hint (clients
    /// cache the depth from their previous lookup).
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::locate`].
    pub fn locate_hinted(&mut self, key: Key, hint: Option<u32>) -> Result<Placement, ClashError> {
        if !self.config.splitting_enabled {
            return self.locate_fixed_depth(key);
        }
        if self.batching_active() {
            return self.locate_batched(key, hint);
        }
        let width = self.config.key_width.get();
        let mut search = match hint {
            Some(h) => DepthSearch::with_hint(width, h),
            None => DepthSearch::new(width),
        };
        let mut op_latency = SimDuration::ZERO;
        loop {
            let guess = search.next_guess();
            let group_guess = Prefix::of_key(key, guess);
            let h = self.hasher.hash_key(group_guess.virtual_key());
            let start = self.net.random_alive(&mut self.rng);
            let (lookup, path) = self.net.find_successor_path(start, h);
            self.charge_probe_route(start, lookup.owner, path, &mut op_latency)?;
            self.msgs.probes += 1;
            self.msgs.probe_messages += u64::from(lookup.hops) + 1;
            let responder = self
                .servers
                .get_mut(lookup.owner.value())
                .expect("owner is a ring member");
            let response = responder.handle_accept_object(key, guess);
            let outcome = search.record(guess, response)?;
            if self.trace_on {
                self.emit(TraceEventKind::LocateProbe {
                    key: key.bits(),
                    depth: guess,
                    server: lookup.owner.value(),
                    accepted: matches!(outcome, SearchOutcome::Found { .. }),
                    hop: search.probes(),
                });
            }
            match outcome {
                SearchOutcome::Found { depth, .. } => {
                    self.msgs.locates += 1;
                    self.latency.locate.observe(ms(op_latency));
                    return Ok(Placement {
                        server: lookup.owner,
                        group: Prefix::of_key(key, depth),
                        depth,
                        probes: search.probes(),
                    });
                }
                SearchOutcome::Continue { .. } => {}
            }
        }
    }

    /// True while client locates should plan into the batch instead of
    /// routing synchronously. Requires `shards != 0` (opt-in), the
    /// adaptive protocol (the fixed-depth baseline lazily materializes
    /// groups mid-locate, which is inherently sequential), and an
    /// unpartitioned transport (the sequential path aborts an attach
    /// *before* its ledger mutation when a probe hits the cut — a
    /// divergence batching cannot reproduce, so it steps aside).
    fn batching_active(&self) -> bool {
        self.config.shards > 0 && self.config.splitting_enabled && !self.transport.is_partitioned()
    }

    /// The batched locate plan phase: identical control flow and RNG
    /// draws to the synchronous `locate_hinted` loop, but DHT routing
    /// and all message/latency charging are deferred to
    /// [`ClashCluster::flush_batch`]. The depth search itself runs live
    /// against server tables (tables only change at barriers), so the
    /// returned [`Placement`] is exactly the sequential one.
    fn locate_batched(&mut self, key: Key, hint: Option<u32>) -> Result<Placement, ClashError> {
        let width = self.config.key_width.get();
        let mut search = match hint {
            Some(h) => DepthSearch::with_hint(width, h),
            None => DepthSearch::new(width),
        };
        loop {
            let guess = search.next_guess();
            let group_guess = Prefix::of_key(key, guess);
            let h = self.hasher.hash_key(group_guess.virtual_key());
            let start = self.net.random_alive(&mut self.rng);
            let owner = self.net.owner_of(h).expect("ring is non-empty");
            self.batch_probes.push(PlannedProbe {
                start,
                target: h,
                owner,
                op_end: false,
                key_bits: key.bits(),
                depth: guess,
            });
            let responder = self
                .servers
                .get_mut(owner.value())
                .expect("owner is a ring member");
            let response = responder.handle_accept_object(key, guess);
            match search.record(guess, response)? {
                SearchOutcome::Found { depth, .. } => {
                    self.batch_probes
                        .last_mut()
                        .expect("probe queued above")
                        .op_end = true;
                    return Ok(Placement {
                        server: owner,
                        group: Prefix::of_key(key, depth),
                        depth,
                        probes: search.probes(),
                    });
                }
                SearchOutcome::Continue { .. } => {}
            }
        }
    }

    /// Routes and charges every planned probe and pushes every deferred
    /// group-load update. Runs automatically at every barrier (load
    /// check, membership change, partition, driver sample); a no-op when
    /// nothing is batched, so it is always safe to call before reading
    /// message stats, latency metrics or server loads.
    ///
    /// # Errors
    ///
    /// Propagates charging errors; none occur in correct operation
    /// (batch windows never span a partition).
    pub fn flush_batch(&mut self) -> Result<(), ClashError> {
        if !self.batch_probes.is_empty() {
            self.flush_batch_probes()?;
        }
        if !self.batch_touched.is_empty() {
            let touched = std::mem::take(&mut self.batch_touched);
            for group in touched {
                self.push_group_load(group)?;
            }
        }
        Ok(())
    }

    /// Debug builds: how many route phases have passed the
    /// zero-cluster-RNG-draw cross-check. The regression test in this
    /// module uses it to prove the instrumented path actually ran.
    #[cfg(debug_assertions)]
    pub fn route_draw_checks(&self) -> u64 {
        self.route_draw_checks
    }

    /// The route + charge phases of the batch (see the field docs).
    fn flush_batch_probes(&mut self) -> Result<(), ClashError> {
        let probes = std::mem::take(&mut self.batch_probes);
        let this_flush = self.flush_seq;
        if self.trace_on {
            self.emit(TraceEventKind::FlushBegin {
                flush_seq: this_flush,
                probes: probes.len() as u64,
                shards: u64::from(self.config.shards),
            });
        }
        self.phase_begin(CheckPhase::FlushPlan);
        let snapshot = self
            .route_snapshot
            .take()
            .unwrap_or_else(|| self.net.snapshot());
        // Runtime mirror of the clash-lint static rules: from here (the
        // snapshot is frozen) until routing finishes, the cluster RNG must
        // not advance — routing is pure, so any draw here would make
        // results depend on batch timing.
        #[cfg(debug_assertions)]
        let draws_at_freeze = self.rng.draw_count();
        self.flush_seq += 1;
        self.phase_end(CheckPhase::FlushPlan);
        self.phase_begin(CheckPhase::FlushRoute);
        // Route phase: resolve every probe, in plan order, against the
        // frozen snapshot.
        let routed: Vec<RoutedProbe> = probes
            .into_iter()
            .map(|plan| {
                let (lookup, path) = snapshot.route_with_path(plan.start, plan.target);
                RoutedProbe {
                    plan,
                    owner: lookup.owner,
                    hops: lookup.hops,
                    path,
                }
            })
            .collect();
        self.route_snapshot = Some(snapshot);
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.rng.draw_count(),
                draws_at_freeze,
                "route phase drew from the cluster RNG after the snapshot freeze; results \
                 would depend on batch timing"
            );
            self.route_draw_checks += 1;
        }
        self.phase_end(CheckPhase::FlushRoute);
        self.phase_begin(CheckPhase::FlushMerge);
        // Charge phase, pass 1: lay out every transport message of the
        // flush in global plan order — each probe's routing hops, then
        // its owner→start response — and resolve the whole sequence in
        // one [`Transport::send_batch`]. The batch contract guarantees
        // the same deliveries, stats, and per-link draw order as the
        // equivalent `send` loop; pre-resolving ahead of the accounting
        // replay is safe because a flush only ever runs on a connected
        // transport (see `partition_network` / `heal_partition`), so
        // the sequential loop could never have aborted mid-probe and
        // skipped later sends.
        let mut send_specs: Vec<SendSpec> = Vec::with_capacity(routed.len() * 2);
        for r in &routed {
            debug_assert_eq!(
                r.owner, r.plan.owner,
                "batch window spanned a ring change: routed owner diverged from plan"
            );
            for &(from, to) in &r.path {
                send_specs.push(SendSpec {
                    src: from.value(),
                    dst: to.value(),
                    class: MessageClass::Probe,
                });
            }
            send_specs.push(SendSpec {
                src: r.owner.value(),
                dst: r.plan.start.value(),
                class: MessageClass::ProbeResponse,
            });
        }
        let mut deliveries: Vec<Delivery> = Vec::new();
        self.transport.send_batch(&send_specs, &mut deliveries);
        // Pass 2: replay the per-op accounting over the resolved
        // deliveries in the same plan order — hop stats, probe
        // counters, and the locate latency observation at each op's
        // final probe. Unreachable deliveries surface the same error at
        // the same position the sequential loop would have raised it.
        let mut op_latency = SimDuration::ZERO;
        let mut op_hop = 0_u32;
        let mut cursor = 0usize;
        for routed in routed {
            self.net.record_routed_lookup(routed.hops);
            for &(from, to) in &routed.path {
                match deliveries[cursor] {
                    Delivery::Delivered { latency, .. } => op_latency += latency,
                    Delivery::Unreachable { .. } => {
                        return Err(ClashError::NetworkUnreachable { from, to });
                    }
                }
                cursor += 1;
            }
            match deliveries[cursor] {
                Delivery::Delivered { latency, .. } => op_latency += latency,
                Delivery::Unreachable { .. } => {
                    return Err(ClashError::NetworkUnreachable {
                        from: routed.owner,
                        to: routed.plan.start,
                    });
                }
            }
            cursor += 1;
            self.msgs.probes += 1;
            self.msgs.probe_messages += u64::from(routed.hops) + 1;
            op_hop += 1;
            if self.trace_on {
                self.emit(TraceEventKind::LocateProbe {
                    key: routed.plan.key_bits,
                    depth: routed.plan.depth,
                    server: routed.owner.value(),
                    accepted: routed.plan.op_end,
                    hop: op_hop,
                });
            }
            if routed.plan.op_end {
                self.msgs.locates += 1;
                self.latency.locate.observe(ms(op_latency));
                op_latency = SimDuration::ZERO;
                op_hop = 0;
            }
        }
        debug_assert_eq!(
            cursor,
            deliveries.len(),
            "charge replay must consume every delivery"
        );
        self.phase_end(CheckPhase::FlushMerge);
        if self.trace_on {
            self.emit(TraceEventKind::FlushEnd {
                flush_seq: this_flush,
            });
        }
        Ok(())
    }

    /// Baseline `DHT(x)` lookup: the depth is fixed, one DHT routing
    /// resolves the owner. Lazily installs the group on its owner (the
    /// baseline has up to `2^x` groups; they materialize on first touch).
    fn locate_fixed_depth(&mut self, key: Key) -> Result<Placement, ClashError> {
        let depth = self.config.initial_depth;
        let group = Prefix::of_key(key, depth);
        let h = self.hasher.hash_key(group.virtual_key());
        let start = self.net.random_alive(&mut self.rng);
        let (lookup, path) = self.net.find_successor_path(start, h);
        let mut op_latency = SimDuration::ZERO;
        self.charge_probe_route(start, lookup.owner, path, &mut op_latency)?;
        self.msgs.probes += 1;
        self.msgs.probe_messages += u64::from(lookup.hops) + 1;
        self.msgs.locates += 1;
        self.latency.locate.observe(ms(op_latency));
        let server = self
            .servers
            .get_mut(lookup.owner.value())
            .expect("owner is a ring member");
        if server.table().entry(group).is_none() {
            server.bootstrap_root(group)?;
            self.mark_dirty(lookup.owner.value());
            self.global_index.insert(group, lookup.owner);
            self.ledgers.insert(group, GroupLedger::default());
            self.ensure_replicas(group, lookup.owner);
        }
        Ok(Placement {
            server: lookup.owner,
            group,
            depth,
            probes: 1,
        })
    }

    /// Attaches a streaming data source: locates the key's group and adds
    /// the source's rate to it.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the source id is already
    /// attached; propagates locate errors.
    pub fn attach_source(
        &mut self,
        source_id: u64,
        key: Key,
        rate: f64,
    ) -> Result<Placement, ClashError> {
        self.attach_source_hinted(source_id, key, rate, None)
    }

    /// [`ClashCluster::attach_source`] with a depth hint.
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::attach_source`].
    pub fn attach_source_hinted(
        &mut self,
        source_id: u64,
        key: Key,
        rate: f64,
        hint: Option<u32>,
    ) -> Result<Placement, ClashError> {
        if self.sources.contains_key(&source_id) {
            return Err(ClashError::InvalidConfig {
                reason: "source id already attached",
            });
        }
        let placement = self.locate_hinted(key, hint)?;
        let ledger = self.ledgers.entry(placement.group).or_default();
        Arc::make_mut(&mut ledger.sources).push(source_id);
        ledger.rate += rate;
        self.sources.insert(
            source_id,
            SourceRec {
                key,
                rate,
                group: placement.group,
            },
        );
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a source (data-plane only; no protocol messages).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for unknown ids.
    pub fn detach_source(&mut self, source_id: u64) -> Result<(), ClashError> {
        let rec = self
            .sources
            .remove(&source_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })?;
        let ledger = self
            .ledgers
            .get_mut(&rec.group)
            .expect("attached source has a ledger");
        Arc::make_mut(&mut ledger.sources).retain(|&s| s != source_id);
        ledger.rate = (ledger.rate - rec.rate).max(0.0);
        self.push_group_load_batched(rec.group)?;
        self.cleanup_baseline_group(rec.group)?;
        Ok(())
    }

    /// In the fixed-depth baseline, groups materialize lazily on first
    /// touch; symmetrically, an emptied group is dematerialized so a long
    /// `DHT(24)` run does not accumulate millions of dead entries.
    fn cleanup_baseline_group(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.config.splitting_enabled {
            return Ok(());
        }
        let empty = self
            .ledgers
            .get(&group)
            .is_some_and(|l| l.sources.is_empty() && l.queries.is_empty());
        if !empty {
            return Ok(());
        }
        self.ledgers.remove(&group);
        if let Some(owner) = self.oracle_owner(group) {
            self.invalidate_replicas(group, owner);
            self.global_index.remove(group);
            let server = self
                .servers
                .get_mut(owner.value())
                .ok_or(ClashError::UnknownServer { server: owner })?;
            let _ = server.handle_release_keygroup(group);
            self.mark_dirty(owner.value());
        }
        Ok(())
    }

    /// Moves a source to a new key (the paper's "virtual stream" key
    /// change): detach, then re-locate with the previous depth as hint.
    ///
    /// # Errors
    ///
    /// Propagates detach/attach errors.
    pub fn move_source(&mut self, source_id: u64, new_key: Key) -> Result<Placement, ClashError> {
        self.move_source_with_rate(source_id, new_key, None)
    }

    /// [`ClashCluster::move_source`] with an optional new rate (workload
    /// phase changes alter per-source rates at the next key change).
    ///
    /// # Errors
    ///
    /// Propagates detach/attach errors.
    pub fn move_source_with_rate(
        &mut self,
        source_id: u64,
        new_key: Key,
        new_rate: Option<f64>,
    ) -> Result<Placement, ClashError> {
        let rec = self
            .sources
            .get(&source_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })?;
        let hint = rec.group.depth();
        let rate = new_rate.unwrap_or(rec.rate);
        self.detach_source(source_id)?;
        self.attach_source_hinted(source_id, new_key, rate, Some(hint))
    }

    /// Attaches a continuous query object to its key's group.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the query id is already
    /// attached; propagates locate errors.
    pub fn attach_query(&mut self, query_id: u64, key: Key) -> Result<Placement, ClashError> {
        if self.queries.contains_key(&query_id) {
            return Err(ClashError::InvalidConfig {
                reason: "query id already attached",
            });
        }
        let placement = self.locate(key)?;
        let ledger = self.ledgers.entry(placement.group).or_default();
        Arc::make_mut(&mut ledger.queries).push(query_id);
        self.queries.insert(
            query_id,
            QueryRec {
                key,
                group: placement.group,
            },
        );
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a query (e.g. its client's lifetime expired).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for unknown ids.
    pub fn detach_query(&mut self, query_id: u64) -> Result<(), ClashError> {
        let rec = self
            .queries
            .remove(&query_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown query id",
            })?;
        let ledger = self
            .ledgers
            .get_mut(&rec.group)
            .expect("attached query has a ledger");
        Arc::make_mut(&mut ledger.queries).retain(|&q| q != query_id);
        self.push_group_load_batched(rec.group)?;
        self.cleanup_baseline_group(rec.group)?;
        Ok(())
    }

    /// Number of currently attached sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of currently attached queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Defers the load report while a batch window is open (last write
    /// wins: only the final rate before a barrier is observable, and
    /// nothing reads owner loads between barriers), otherwise pushes
    /// immediately. Used at the four client-op sites only — split,
    /// merge and recovery push synchronously because their reports are
    /// part of a barrier.
    fn push_group_load_batched(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.batching_active() {
            self.batch_touched.insert(group);
            Ok(())
        } else {
            self.push_group_load(group)
        }
    }

    fn push_group_load(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.pending_recovery.contains_key(&group) {
            // The group is waiting for a partition-deferred promotion: it
            // has no live owner to push to. The ledger update stands and
            // is reconciled when the group comes back.
            return Ok(());
        }
        let owner = self
            .oracle_owner(group)
            .ok_or(ClashError::UnknownGroup { group })?;
        let load = self
            .ledgers
            .get(&group)
            .map(|l| l.load())
            .unwrap_or_default();
        self.servers
            .get_mut(owner.value())
            .ok_or(ClashError::UnknownServer { server: owner })?
            .set_group_load(group, load)?;
        self.mark_dirty(owner.value());
        if self.replication_enabled() {
            self.refresh_replica_payloads(group, owner);
        }
        Ok(())
    }

    // ----- successor-list replication (beyond the paper) ----------------
    //
    // With `replication_factor` r > 0, every active key group's entry and
    // ledger is mirrored on the owner's first r alive ring successors
    // (the owner's own successor list — the classic Chord placement).
    // Placement changes are explicit, charged `REPLICATE_KEYGROUP` /
    // `ACK_REPLICA` exchanges; payload freshness piggybacks on the
    // data-plane traffic the harness already aggregates analytically
    // (every ledger mutation refreshes reachable holders for free, the
    // way a real store ships write deltas with the stream itself).
    // Partitions defer placement work exactly like load reports: an
    // unreachable holder is simply skipped and re-seeded by the periodic
    // sync after healing.

    /// The current ledger of `group` as a replica payload. O(1): the
    /// member lists are shared `Arc` snapshots, cloned per holder by
    /// reference count only — the write-through path copies-on-write at
    /// the *next* ledger mutation instead of deep-cloning per seed.
    fn replica_payload(&self, group: Prefix, owner: ServerId) -> ReplicaRecord {
        let ledger = self.ledgers.get(&group);
        ReplicaRecord {
            owner,
            sources: ledger.map(|l| Arc::clone(&l.sources)).unwrap_or_default(),
            queries: ledger.map(|l| Arc::clone(&l.queries)).unwrap_or_default(),
        }
    }

    /// Brings `group`'s replica set up to the owner's current successor
    /// list: seeds missing holders (one charged `REPLICATE_KEYGROUP` +
    /// `ACK_REPLICA` round trip each) and invalidates holders that fell
    /// out of the set. Holders already seeded are left alone — their
    /// payloads are kept fresh by the write-through refresh. Unreachable
    /// holders are skipped (soft state; retried next period).
    fn ensure_replicas(&mut self, group: Prefix, owner: ServerId) {
        if !self.replication_enabled() {
            return;
        }
        // Owning the primary supersedes any copy this server once held as
        // a ring successor of a previous owner.
        self.servers
            .get_mut(owner.value())
            .expect("owner is a live server")
            .replica_store_mut()
            .drop_held(group);
        let desired = self
            .net
            .alive_successors(owner, self.config.replication_factor);
        let desired_len = desired.len();
        let previous: Vec<ServerId> = self
            .servers
            .get(owner.value())
            .expect("owner is a live server")
            .replica_store()
            .placed(group)
            .to_vec();
        let payload = self.replica_payload(group, owner);
        let mut placed = Vec::with_capacity(desired.len());
        for holder in desired {
            let already = previous.contains(&holder)
                && self.servers.get(holder.value()).is_some_and(|s| {
                    s.replica_store()
                        .held(group)
                        .is_some_and(|r| r.owner == owner)
                });
            if already {
                placed.push(holder);
                continue;
            }
            let mut lat = SimDuration::ZERO;
            if self.transport_send(owner, holder, MessageClass::ReplicateKeygroup, &mut lat)
                && self.transport_send(holder, owner, MessageClass::AckReplica, &mut lat)
            {
                self.msgs.replication_messages += 2;
                self.latency.replication.observe(ms(lat));
                self.servers
                    .get_mut(holder.value())
                    .expect("reachable holder is a live server")
                    .replica_store_mut()
                    .store(group, payload.clone());
                placed.push(holder);
            }
        }
        // Release holders that fell out of the successor set — but only
        // once the new set is fully in place. While under-replicated
        // (a partition deferred some seed), old copies are retained:
        // never invalidate what may be the last replica.
        let fully_placed = placed.len() == desired_len;
        for stale in previous {
            if placed.contains(&stale) || !self.servers.contains(stale.value()) {
                continue; // dead holders' copies died with them
            }
            if !fully_placed {
                placed.push(stale); // retained: still a live replica
                continue;
            }
            let mut lat = SimDuration::ZERO;
            if self.transport_send(owner, stale, MessageClass::ReplicateKeygroup, &mut lat) {
                self.msgs.replication_messages += 1;
                self.servers
                    .get_mut(stale.value())
                    .expect("liveness checked")
                    .replica_store_mut()
                    .drop_held(group);
            }
        }
        if !fully_placed {
            // A partition deferred part of the set: keep the group on the
            // periodic sync's worklist until placement completes (the
            // historical full sweep retried every group every period).
            self.replica_dirty.insert(group);
        }
        self.servers
            .get_mut(owner.value())
            .expect("owner is a live server")
            .replica_store_mut()
            .set_placed(group, placed);
    }

    /// Invalidates every replica of `group` (the group was split, merged
    /// away, handed off, or dematerialized). One charged invalidation per
    /// reachable holder; unreachable holders keep a stale record that the
    /// periodic lease sweep expires — and that recovery can never promote,
    /// because promotion requires the record's owner to be the crashed
    /// server that actively held the group.
    fn invalidate_replicas(&mut self, group: Prefix, owner: ServerId) {
        if !self.replication_enabled() {
            return;
        }
        let Some(owner_server) = self.servers.get_mut(owner.value()) else {
            return;
        };
        let holders = owner_server.replica_store_mut().take_placed(group);
        for holder in holders {
            if !self.servers.contains(holder.value()) {
                continue; // dead holders' copies died with them
            }
            let mut lat = SimDuration::ZERO;
            if self.transport_send(owner, holder, MessageClass::ReplicateKeygroup, &mut lat) {
                self.msgs.replication_messages += 1;
                self.servers
                    .get_mut(holder.value())
                    .expect("liveness checked")
                    .replica_store_mut()
                    .drop_held(group);
            }
        }
        // The group is gone from this owner; whatever retry state it had
        // is obsolete.
        self.replica_dirty.remove(&group);
    }

    /// Write-through refresh: pushes the current ledger of `group` to the
    /// holders in the owner's registry. Free of messages — the deltas
    /// piggyback on the data-plane stream the harness aggregates
    /// analytically — but honest about partitions: an unreachable holder
    /// is dropped from the registry (its copy goes stale) and re-seeded
    /// by the periodic sync after healing.
    fn refresh_replica_payloads(&mut self, group: Prefix, owner: ServerId) {
        let holders: Vec<ServerId> = self
            .servers
            .get(owner.value())
            .expect("owner is a live server")
            .replica_store()
            .placed(group)
            .to_vec();
        if holders.is_empty() {
            return;
        }
        let holder_count = holders.len();
        let payload = self.replica_payload(group, owner);
        let mut kept = Vec::with_capacity(holders.len());
        for holder in holders {
            if self.transport.reachable(owner.value(), holder.value()) {
                if let Some(s) = self.servers.get_mut(holder.value()) {
                    s.replica_store_mut().store(group, payload.clone());
                    kept.push(holder);
                }
            }
        }
        if kept.len() != holder_count {
            // A holder went unreachable (or died): its copy goes stale and
            // the group needs re-seeding once the periodic sync can reach
            // a replacement.
            self.replica_dirty.insert(group);
        }
        self.servers
            .get_mut(owner.value())
            .expect("owner is a live server")
            .replica_store_mut()
            .set_placed(group, kept);
    }

    /// Replica maintenance, run every load-check period (the same
    /// cadence as the load reports it piggybacks on) and at the end of
    /// every membership call: expires held replicas whose owner has left
    /// the ring (a local observation from ring maintenance, so it is
    /// partition-safe — and deliberately the *only* expiry trigger: a
    /// holder that merely fell off its owner's registry, e.g. because a
    /// partition starved its write-through, may carry the last surviving
    /// copy and keeps it until the owner either re-seeds or explicitly
    /// invalidates it), then re-ensures replica sets against their
    /// owners' current successor lists.
    ///
    /// Which sets: a group outside `replica_dirty` has exactly its
    /// owner's `alive_successors` placed (checked by
    /// `verify_consistency`), so its `ensure_replicas` sends nothing
    /// and changes nothing. That leaves the dirty groups in steady
    /// state, and after a membership event additionally the groups
    /// owned by the `r` alive ring predecessors of each changed
    /// position — the only owners whose successor set moved. Transport
    /// loss and jitter are drawn per send, so the membership branch
    /// issues its calls in the whole sweep's own order (owner id, then
    /// table order): it is that sweep minus provable no-ops.
    fn sync_replicas(&mut self) {
        if !self.replication_enabled() {
            return;
        }
        let changed = std::mem::take(&mut self.replica_resync_at);
        let whole = self.replica_full_sync || (self.full_scan_checks && !changed.is_empty());
        if !whole && changed.is_empty() {
            // Steady state: no owner died and no membership changed since
            // the last sync, so lease expiry would be a no-op. Only the
            // groups whose placement is actually incomplete need work.
            for group in std::mem::take(&mut self.replica_dirty) {
                // The group may have been split/merged away (its replicas
                // were invalidated inline) or be awaiting a deferred
                // recovery; only currently active groups re-ensure.
                let Some(owner) = self.global_index.get(group).copied() else {
                    continue;
                };
                self.ensure_replicas(group, owner);
            }
            return;
        }
        self.replica_full_sync = false;
        let dirty = std::mem::take(&mut self.replica_dirty);
        let owners: BTreeSet<u64> = if whole {
            self.servers.ids().collect()
        } else {
            let mut owners: BTreeSet<u64> = dirty
                .iter()
                .filter_map(|&g| self.global_index.get(g))
                .map(|owner| owner.value())
                .collect();
            for at in &changed {
                let mut h = at.value();
                for _ in 0..self.config.replication_factor {
                    let Some(pred) = self.net.predecessor_of(h) else {
                        break;
                    };
                    h = pred.value();
                    owners.insert(h);
                }
            }
            owners
        };
        // A join takes no owner out of the ring and leaves the pending
        // set alone, so no lease can have run out since the last sweep.
        if whole || changed.iter().any(|&at| !self.net.is_alive(at)) {
            let (net, pending) = (&self.net, &self.pending_recovery);
            for server in self.servers.iter_mut() {
                server.replica_store_mut().expire_held(|group, owner| {
                    pending.contains_key(&group) || net.is_alive(owner)
                });
            }
        }
        let mut work: Vec<(Prefix, ServerId)> = Vec::new();
        for sid in owners {
            let server = self.servers.get(sid).expect("ring member");
            let owner = server.id();
            work.extend(server.table().active_groups().map(|e| (e.group, owner)));
        }
        for (group, owner) in work {
            self.ensure_replicas(group, owner);
        }
    }

    // ----- load checks: reports, splits, merges (§4–5) ------------------

    /// Runs one cluster-wide load check: leaves report to parents, every
    /// overloaded server sheds its hottest groups by binary splitting, and
    /// underloaded servers consolidate cold children bottom-up.
    ///
    /// # Errors
    ///
    /// Propagates protocol invariant violations (none occur in correct
    /// operation; the tests rely on this).
    pub fn run_load_check(&mut self) -> Result<LoadCheckReport, ClashError> {
        self.flush_batch()?;
        self.load_checks_run += 1;
        let ordinal = self.load_checks_run;
        if self.trace_on {
            self.emit(TraceEventKind::LoadCheckBegin {
                ordinal,
                dirty_servers: self.dirty_servers.len() as u64,
            });
        }
        if self.full_scan_checks {
            // Reference mode: reclassify everything from scratch, exactly
            // like the historical per-period sweep.
            self.mark_all_dirty();
            self.replica_full_sync = true;
        }
        let mut report = LoadCheckReport::default();
        if self.replication_enabled() {
            self.phase_begin(CheckPhase::Recovery);
            let recovery_result = self.retry_deferred_recoveries(&mut report);
            self.phase_end(CheckPhase::Recovery);
            recovery_result?;
        }
        if !self.config.splitting_enabled {
            self.phase_begin(CheckPhase::ReplicaSync);
            self.sync_replicas();
            self.phase_end(CheckPhase::ReplicaSync);
            if self.trace_on {
                self.emit(TraceEventKind::LoadCheckEnd {
                    ordinal,
                    splits: 0,
                    merges: 0,
                });
            }
            return Ok(report);
        }
        self.phase_begin(CheckPhase::CandidateRefresh);
        self.refresh_candidates();
        self.phase_end(CheckPhase::CandidateRefresh);
        self.phase_begin(CheckPhase::Reports);
        self.deliver_load_reports();
        self.phase_end(CheckPhase::Reports);
        self.phase_begin(CheckPhase::SplitSpeculate);
        self.refresh_candidates();
        self.phase_end(CheckPhase::SplitSpeculate);
        self.phase_begin(CheckPhase::Splits);
        // Split phase. The historical sweep walked every server in
        // ascending id order, splitting while overloaded; walking the
        // overloaded candidate set behind an ascending cursor visits
        // exactly the same servers in the same order — a server that
        // becomes overloaded mid-phase is picked up iff its id is still
        // ahead of the cursor, just as the full walk would have.
        let mut cursor = 0u64;
        loop {
            self.refresh_candidates();
            let Some(&sid_value) = self.overloaded.range(cursor..).next() else {
                break;
            };
            let mut splits_done = 0;
            while splits_done < self.max_splits_per_check {
                let server = self.servers.get(sid_value).expect("candidates are live");
                if server.load_level() != LoadLevel::Overloaded {
                    break;
                }
                match self.try_split(sid_value)? {
                    Some(record) => {
                        report.splits.push(record);
                        splits_done += 1;
                    }
                    None => break,
                }
            }
            let Some(next) = sid_value.checked_add(1) else {
                break;
            };
            cursor = next;
        }
        self.phase_end(CheckPhase::Splits);
        self.phase_begin(CheckPhase::Merges);
        // Merge phase, same cursor discipline over the mergeable set
        // (underloaded servers holding at least one split entry — the
        // only ones the full walk could have done anything with).
        let mut cursor = 0u64;
        loop {
            self.refresh_candidates();
            let Some(&sid_value) = self.mergeable.range(cursor..).next() else {
                break;
            };
            let mut merges_done = 0;
            while merges_done < self.max_merges_per_check {
                let server = self.servers.get(sid_value).expect("candidates are live");
                if server.load_level() != LoadLevel::Underloaded {
                    break;
                }
                match self.try_merge(sid_value)? {
                    MergeOutcome::Merged(record) => {
                        report.merges.push(record);
                        merges_done += 1;
                    }
                    MergeOutcome::Refused => {
                        // The stale report was cleared by try_merge, so
                        // this candidate is gone; keep going — the next
                        // candidate may still be mergeable. The loop
                        // terminates because every refusal permanently
                        // removes one candidate within this check.
                        report.refusals += 1;
                    }
                    MergeOutcome::NoCandidate => break,
                }
            }
            let Some(next) = sid_value.checked_add(1) else {
                break;
            };
            cursor = next;
        }
        self.phase_end(CheckPhase::Merges);
        self.phase_begin(CheckPhase::ReplicaSync);
        self.sync_replicas();
        self.phase_end(CheckPhase::ReplicaSync);
        self.debug_verify();
        if self.trace_on {
            self.emit(TraceEventKind::LoadCheckEnd {
                ordinal,
                splits: report.splits.len() as u64,
                merges: report.merges.len() as u64,
            });
        }
        Ok(report)
    }

    fn deliver_load_reports(&mut self) {
        // Only servers in the reporter candidate set are visited — the
        // others would have contributed nothing to the historical full
        // sweep. The scratch batch is reused across periods.
        let mut deliveries = std::mem::take(&mut self.deliver_scratch);
        deliveries.clear();
        for &sid_value in &self.reporters {
            let server = self.servers.get(sid_value).expect("reporters are live");
            let own_id = server.id();
            server.for_each_pending_report(|dest, group, load, is_leaf| {
                deliveries.push((own_id, dest, group, load, is_leaf, dest != own_id));
            });
        }
        for &(src, dest, group, load, is_leaf, remote) in &deliveries {
            if remote {
                let mut latency = SimDuration::ZERO;
                if !self.transport_send(src, dest, MessageClass::LoadReport, &mut latency) {
                    // Reports are soft state: one lost to a partition is
                    // simply re-sent (and re-counted) next check period.
                    continue;
                }
                self.msgs.report_messages += 1;
                self.latency.report.observe(ms(latency));
            }
            if let Some(server) = self.servers.get_mut(dest.value()) {
                server.handle_load_report(group, load, is_leaf);
            }
        }
        self.deliver_scratch = deliveries;
    }

    /// Splits the hottest group of `sid_value`, placing the right child via
    /// the DHT with the self-map retry of §5. Returns `None` when the
    /// server has nothing left to split, or when a network partition makes
    /// the *first* placement undeliverable (the split is abandoned before
    /// any state changes and retried at a later load check). If earlier
    /// self-mapped retry iterations already committed their (purely local)
    /// splits when the cut is hit, the operation completes as a local
    /// split instead — the right child stays on this server, exactly as a
    /// terminal self-map would leave it — so every committed split is
    /// reported.
    fn try_split(&mut self, sid_value: u64) -> Result<Option<SplitRecord>, ClashError> {
        let splitter = self.servers.get(sid_value).expect("server exists");
        let server_id = splitter.id();
        let Some(hot) = splitter.hottest_splittable() else {
            return Ok(None);
        };
        // The load that triggered this split, for the flight recorder
        // (only read when tracing — the protocol itself re-reads live).
        let trigger_load = if self.trace_on {
            splitter.current_load()
        } else {
            0.0
        };
        let mut group = hot;
        let mut op_latency = SimDuration::ZERO;
        let mut committed_splits = false;
        // Finishes the operation after self-mapped iterations committed but
        // a later placement crossed the partition: the last right child is
        // already active locally, which is a valid terminal state.
        let finish_local = |cluster: &mut Self, lat: SimDuration| {
            cluster.latency.split.observe(ms(lat));
            Ok(Some(SplitRecord {
                server: server_id,
                group: hot,
                right_child_server: server_id,
            }))
        };
        loop {
            // Resolve the right child's placement via the DHT *first* (§5)
            // and require every hop plus the eventual ACCEPT_KEYGROUP to be
            // deliverable before this iteration mutates any state. An
            // aborted placement still counts as a lookup in `NetStats` —
            // the routing hops up to the cut were genuinely attempted.
            let (_, right_prefix) = group.split()?;
            let h = self.hasher.hash_key(right_prefix.virtual_key());
            let (lookup, path) = self.net.find_successor_path(server_id, h);
            for (from, to) in path {
                if !self.transport_send(from, to, MessageClass::Probe, &mut op_latency) {
                    return if committed_splits {
                        finish_local(self, op_latency)
                    } else {
                        Ok(None)
                    };
                }
            }
            let target = lookup.owner;
            let self_mapped = target == server_id;
            if !self_mapped
                && !self.transport_send(
                    server_id,
                    target,
                    MessageClass::AcceptKeygroup,
                    &mut op_latency,
                )
            {
                return if committed_splits {
                    finish_local(self, op_latency)
                } else {
                    Ok(None)
                };
            }

            let (left, right) = self
                .servers
                .get_mut(sid_value)
                .expect("server exists")
                .split_group(group)?;
            self.mark_dirty(sid_value);
            debug_assert_eq!(right, right_prefix);
            self.msgs.splits += 1;
            self.msgs.split_messages += u64::from(lookup.hops);
            let (left_ledger, right_ledger) = self.partition_ledger(group, left, right);
            let left_load = left_ledger.load();
            let right_load = right_ledger.load();
            self.ledgers.insert(left, left_ledger);
            let right_queries = right_ledger.queries.len() as u64;
            let right_sources = right_ledger.sources.len() as u64;
            self.ledgers.insert(right, right_ledger);
            if self.trace_on {
                // One event per committed binary split (self-mapped retry
                // iterations each count), matching `msgs.splits`.
                self.emit(TraceEventKind::Split {
                    server: server_id.value(),
                    group_bits: group.pattern(),
                    group_depth: group.depth(),
                    load: trigger_load,
                    left_load: left_load.data_rate,
                    right_load: right_load.data_rate,
                    right_child_server: target.value(),
                });
            }
            self.global_index.remove(group);
            self.global_index.insert(left, server_id);
            self.servers
                .get_mut(sid_value)
                .expect("server exists")
                .set_group_load(left, left_load)?;
            self.servers
                .get_mut(sid_value)
                .expect("server exists")
                .set_right_child(group, target)?;
            // The parent entry went inactive: retire its replicas and
            // protect the freshly active left child. The right child is
            // seeded once its placement is terminal (a retry splits it
            // again immediately).
            self.invalidate_replicas(group, server_id);
            self.ensure_replicas(left, server_id);

            if self_mapped && right.depth() < self.config.max_depth {
                // Right child maps back to us: keep it and split it again
                // ("another randomized attempt to select a different
                // server node", §5). No ACCEPT_KEYGROUP is sent — the
                // retry is local — so it must not be charged as one.
                self.msgs.self_mapped_retries += 1;
                self.servers
                    .get_mut(sid_value)
                    .expect("server exists")
                    .handle_accept_keygroup(right, server_id, right_load)?;
                self.global_index.insert(right, server_id);
                committed_splits = true;
                group = right;
                continue;
            }

            if self_mapped {
                // At max depth and still self-mapped: keep the group.
                self.servers
                    .get_mut(sid_value)
                    .expect("server exists")
                    .handle_accept_keygroup(right, server_id, right_load)?;
                self.global_index.insert(right, server_id);
            } else {
                self.msgs.split_messages += 1; // the ACCEPT_KEYGROUP itself
                self.msgs.accept_keygroups += 1;
                self.msgs.state_transfer_messages += right_queries;
                self.msgs.redirect_messages += right_sources;
                self.servers
                    .get_mut(target.value())
                    .ok_or(ClashError::UnknownServer { server: target })?
                    .handle_accept_keygroup(right, server_id, right_load)?;
                self.mark_dirty(target.value());
                self.global_index.insert(right, target);
            }
            let right_home = if self_mapped { server_id } else { target };
            self.ensure_replicas(right, right_home);
            self.latency.split.observe(ms(op_latency));
            return Ok(Some(SplitRecord {
                server: server_id,
                group: hot,
                right_child_server: target,
            }));
        }
    }

    /// Repartitions the ledger of `group` between its two children by the
    /// key bit at the split depth, updating member records.
    fn partition_ledger(
        &mut self,
        group: Prefix,
        left: Prefix,
        right: Prefix,
    ) -> (GroupLedger, GroupLedger) {
        let ledger = self.ledgers.remove(&group).unwrap_or_default();
        let bit_index = group.depth();
        let mut left_rate = 0.0;
        let mut right_rate = 0.0;
        let mut left_sources = Vec::new();
        let mut right_sources = Vec::new();
        let mut left_queries = Vec::new();
        let mut right_queries = Vec::new();
        for &sid in ledger.sources.iter() {
            let rec = self.sources.get_mut(&sid).expect("ledger member exists");
            if rec.key.bit(bit_index) == 0 {
                rec.group = left;
                left_rate += rec.rate;
                left_sources.push(sid);
            } else {
                rec.group = right;
                right_rate += rec.rate;
                right_sources.push(sid);
            }
        }
        for &qid in ledger.queries.iter() {
            let rec = self.queries.get_mut(&qid).expect("ledger member exists");
            if rec.key.bit(bit_index) == 0 {
                rec.group = left;
                left_queries.push(qid);
            } else {
                rec.group = right;
                right_queries.push(qid);
            }
        }
        (
            GroupLedger {
                sources: Arc::new(left_sources),
                queries: Arc::new(left_queries),
                rate: left_rate,
            },
            GroupLedger {
                sources: Arc::new(right_sources),
                queries: Arc::new(right_queries),
                rate: right_rate,
            },
        )
    }

    fn try_merge(&mut self, sid_value: u64) -> Result<MergeOutcome, ClashError> {
        let merger = self.servers.get(sid_value).expect("server exists");
        let server_id = merger.id();
        let Some((parent, right_holder, _combined)) = merger.merge_candidate() else {
            return Ok(MergeOutcome::NoCandidate);
        };
        // Flight-recorder context only (see `try_split`).
        let trigger_load = if self.trace_on {
            merger.current_load()
        } else {
            0.0
        };
        let (left, right) = parent.split().expect("candidate parents were split");
        if right_holder == server_id {
            // Both children local: no messages.
            self.servers
                .get_mut(sid_value)
                .expect("server exists")
                .merge_group(parent, GroupLoad::zero())?;
            self.mark_dirty(sid_value);
        } else {
            // The RELEASE_KEYGROUP round trip must be deliverable before
            // anything mutates; a partitioned child simply defers the
            // merge to a post-heal load check.
            let mut op_latency = SimDuration::ZERO;
            if !self.transport_send(
                server_id,
                right_holder,
                MessageClass::ReleaseKeygroup,
                &mut op_latency,
            ) || !self.transport_send(
                right_holder,
                server_id,
                MessageClass::ReleaseKeygroup,
                &mut op_latency,
            ) {
                return Ok(MergeOutcome::NoCandidate);
            }
            self.latency.merge.observe(ms(op_latency));
            self.msgs.merge_messages += 2; // RELEASE_KEYGROUP + response
            let response = self
                .servers
                .get_mut(right_holder.value())
                .ok_or(ClashError::UnknownServer {
                    server: right_holder,
                })?
                .handle_release_keygroup(right);
            self.mark_dirty(right_holder.value());
            match response {
                ReleaseResponse::Released { load } => {
                    let right_ledger = self.ledgers.get(&right);
                    let right_queries = right_ledger.map_or(0, |l| l.queries.len() as u64);
                    let right_sources = right_ledger.map_or(0, |l| l.sources.len() as u64);
                    self.msgs.state_transfer_messages += right_queries;
                    self.msgs.redirect_messages += right_sources;
                    self.servers
                        .get_mut(sid_value)
                        .expect("server exists")
                        .merge_group(parent, load)?;
                    self.mark_dirty(sid_value);
                }
                ReleaseResponse::Refused => {
                    // The report that motivated this merge is stale. Drop
                    // it: a live child re-reports next period, but a child
                    // orphaned by a crash (re-homed as a root) never will,
                    // and would otherwise be asked to release every period
                    // forever, starving this server's other merges.
                    self.servers
                        .get_mut(sid_value)
                        .expect("server exists")
                        .table_mut()
                        .clear_child_report(parent);
                    if self.trace_on {
                        self.emit(TraceEventKind::MergeRefused {
                            server: server_id.value(),
                            sibling_server: right_holder.value(),
                            parent_depth: parent.depth(),
                        });
                    }
                    return Ok(MergeOutcome::Refused);
                }
            }
        }
        self.msgs.merges += 1;
        if self.trace_on {
            self.emit(TraceEventKind::Merge {
                server: server_id.value(),
                parent_bits: parent.pattern(),
                parent_depth: parent.depth(),
                load: trigger_load,
                local: right_holder == server_id,
            });
        }
        // Merge the ledgers and update the oracle.
        let left_ledger = self.ledgers.remove(&left).unwrap_or_default();
        let right_ledger = self.ledgers.remove(&right).unwrap_or_default();
        let rate = left_ledger.rate + right_ledger.rate;
        let mut merged_sources = Vec::new();
        let mut merged_queries = Vec::new();
        for &sid in left_ledger
            .sources
            .iter()
            .chain(right_ledger.sources.iter())
        {
            self.sources
                .get_mut(&sid)
                .expect("ledger member exists")
                .group = parent;
            merged_sources.push(sid);
        }
        for &qid in left_ledger
            .queries
            .iter()
            .chain(right_ledger.queries.iter())
        {
            self.queries
                .get_mut(&qid)
                .expect("ledger member exists")
                .group = parent;
            merged_queries.push(qid);
        }
        self.ledgers.insert(
            parent,
            GroupLedger {
                sources: Arc::new(merged_sources),
                queries: Arc::new(merged_queries),
                rate,
            },
        );
        self.global_index.remove(left);
        self.global_index.remove(right);
        self.global_index.insert(parent, server_id);
        // The children are gone; their replicas retire and the
        // re-activated parent gets its own set.
        self.invalidate_replicas(left, server_id);
        self.invalidate_replicas(right, right_holder);
        self.push_group_load(parent)?;
        if !self.chaos_skip_merge_reseed {
            self.ensure_replicas(parent, server_id);
        }
        Ok(MergeOutcome::Merged(MergeRecord {
            server: server_id,
            parent,
        }))
    }

    // ----- live membership (join / graceful leave) ----------------------

    /// Adds a new server to the *running* cluster: the node joins the
    /// Chord ring through a random bootstrap (its fingers seeded from its
    /// successor), the ring re-stabilizes, and every table entry whose
    /// `Map()` owner is now the new node — its slice of the successor's
    /// arc — is handed off with an `ACCEPT_KEYGROUP` carrying full tree
    /// state. Ledgers stay keyed by group; migrated queries are charged
    /// as state transfer and migrated sources as redirects, and every
    /// parent/right-child pointer naming a migrated entry's old holder is
    /// re-pointed. Left-child spines move wholesale (they share the
    /// parent entry's virtual key, hence its hash), so merge-ability is
    /// fully preserved — the membership contrast to
    /// [`ClashCluster::fail_server`]'s orphaning recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the identifier is already
    /// present in the ring (alive or crashed).
    pub fn join_server(&mut self, new_id: ServerId) -> Result<JoinReport, ClashError> {
        // Membership barrier: charge all batched work against the ring
        // as it was when that work was planned.
        self.flush_batch()?;
        if self.net.node(new_id).is_some() {
            return Err(ClashError::InvalidConfig {
                reason: "server id already present in the ring",
            });
        }
        let bootstrap = self.net.random_alive(&mut self.rng);
        let join_msgs = self
            .net
            .join(new_id, bootstrap)
            .ok_or(ClashError::InvalidConfig {
                reason: "server id already present in the ring",
            })?;
        // Join lookup + finger seeding, plus the announcement itself.
        self.msgs.handoff_messages += u64::from(join_msgs) + 1;
        let rounds = self.net.stabilize_direct();
        self.route_snapshot = None;
        self.servers.insert(ClashServer::new(new_id, self.config));
        self.mark_dirty(new_id.value());
        self.msgs.joins += 1;
        if self.trace_on {
            self.emit(TraceEventKind::ServerJoined {
                server: new_id.value(),
            });
        }
        // Every entry whose Map() owner is now the new node currently
        // sits on the new node's ring successor (the placement invariant
        // checked by `verify_consistency`), so only that one table needs
        // scanning.
        let mut to_move: Vec<TableEntry> = Vec::new();
        let successor = self
            .net
            .owner_of(new_id.value().wrapping_add(1) & self.config.hash_space.mask())
            .expect("ring is non-empty");
        if successor != new_id {
            let sid = successor.value();
            let groups: Vec<Prefix> = self
                .servers
                .get(sid)
                .expect("successor is a member")
                .table()
                .entries()
                .filter(|e| self.map_group(e.group) == new_id)
                .map(|e| e.group)
                .collect();
            for g in groups {
                let entry = self
                    .servers
                    .get_mut(sid)
                    .expect("successor is a member")
                    .table_mut()
                    .extract_entry(g)
                    .expect("snapshotted entry");
                to_move.push(entry);
            }
            self.mark_dirty(sid);
        }
        let tally = self.migrate_entries(successor, to_move)?;
        // Membership changed every successor set around the new node:
        // re-replicate immediately (the join announcement triggers it),
        // like any DHT store would.
        self.replica_resync_at.push(new_id);
        self.sync_replicas();
        self.debug_verify();
        Ok(JoinReport {
            joined: new_id,
            groups_received: tally.active_groups,
            entries_received: tally.entries,
            parents_repointed: tally.parents_repointed,
            right_children_repointed: tally.right_children_repointed,
            stabilization_rounds: rounds,
        })
    }

    /// [`ClashCluster::join_server`] with a fresh random identifier drawn
    /// from the cluster's deterministic RNG. Returns the id alongside the
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates join errors (identifier collisions are retried
    /// internally, so they do not surface).
    pub fn join_random_server(&mut self) -> Result<JoinReport, ClashError> {
        loop {
            let id = ServerId::new(self.rng.next_u64(), self.config.hash_space);
            if self.net.node(id).is_none() {
                return self.join_server(id);
            }
        }
    }

    /// Gracefully drains a server: it announces its departure, transfers
    /// *all* of its table entries (active groups and interior split
    /// entries alike, with their loads and tree pointers) to their
    /// post-departure `Map()` owners — its ring successor — and leaves
    /// the ring without a trace. Pointers at the leaver are re-pointed at
    /// the receiving server. Contrast with [`ClashCluster::fail_server`]:
    /// a crash loses the interior entries, so re-homed groups become
    /// roots and their subtrees can never merge above the break; a drain
    /// preserves the whole logical tree.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownServer`] for unknown servers and
    /// [`ClashError::InvalidConfig`] when asked to drain the last one.
    pub fn leave_server(&mut self, victim: ServerId) -> Result<LeaveReport, ClashError> {
        // Membership barrier: charge all batched work against the ring
        // as it was when that work was planned.
        self.flush_batch()?;
        if self.servers.len() <= 1 {
            return Err(ClashError::InvalidConfig {
                reason: "cannot drain the last server",
            });
        }
        let server = self
            .servers
            .remove(victim.value())
            .ok_or(ClashError::UnknownServer { server: victim })?;
        self.forget_server(victim.value());
        let entries: Vec<TableEntry> = server.table().entries().cloned().collect();
        // The departure announcement to the ring successor.
        self.msgs.handoff_messages += 1;
        self.msgs.leaves += 1;
        if self.trace_on {
            self.emit(TraceEventKind::ServerLeft {
                server: victim.value(),
            });
        }
        self.net.remove_node(victim);
        let rounds = self.net.stabilize_direct();
        self.route_snapshot = None;
        let tally = self.migrate_entries(victim, entries)?;
        // The leaver's held replicas vanished with it: re-replicate
        // immediately so no group waits out a load-check period
        // under-protected.
        self.replica_resync_at.push(victim);
        self.sync_replicas();
        self.debug_verify();
        Ok(LeaveReport {
            left: victim,
            groups_transferred: tally.active_groups,
            entries_transferred: tally.entries,
            parents_repointed: tally.parents_repointed,
            right_children_repointed: tally.right_children_repointed,
            stabilization_rounds: rounds,
        })
    }

    /// The servers whose tables can hold a pointer at the holder of one
    /// of `groups`' entries. A parent pointer names the holder of the
    /// entry one level up and a right-child pointer the holder of the
    /// right child, and every entry sits on its group's `Map()` owner
    /// (`verify_consistency` step 5) — so only the `Map()` owners of a
    /// group's parent and two children qualify. Ascending id order.
    fn pointer_holders(&self, groups: impl Iterator<Item = Prefix>) -> BTreeSet<u64> {
        let mut holders = BTreeSet::new();
        for group in groups {
            let children = group.split().ok().map(|(l, r)| [l, r]);
            for near in group
                .parent()
                .into_iter()
                .chain(children.into_iter().flatten())
            {
                holders.insert(self.map_group(near).value());
            }
        }
        holders
    }

    /// Moves already-extracted entries from `from` to their current
    /// `Map()` owners: installs them with tree state intact, updates the
    /// oracle for active groups, charges state-transfer/redirect costs
    /// from the ledgers, and re-points the parent/right-child pointers
    /// that name them. Handoffs are modeled *reliable*: a partition delays
    /// (and is not latency-charged) but never destroys a transfer —
    /// membership changes across an active partition are outside this
    /// harness's scenarios.
    fn migrate_entries(
        &mut self,
        from: ServerId,
        entries: Vec<TableEntry>,
    ) -> Result<MigrationTally, ClashError> {
        let mut moved_to: BTreeMap<Prefix, ServerId> = BTreeMap::new();
        for entry in &entries {
            moved_to.insert(entry.group, self.map_group(entry.group));
        }
        let mut active_groups = 0;
        let entries_n = entries.len();
        for entry in entries {
            let group = entry.group;
            let dest = moved_to[&group];
            // One direct ACCEPT_KEYGROUP per migrated entry — sender and
            // receiver are ring neighbours, so no DHT routing is charged.
            self.msgs.handoff_messages += 1;
            let mut latency = SimDuration::ZERO;
            if self.transport_send(from, dest, MessageClass::Handoff, &mut latency) {
                self.latency.handoff.observe(ms(latency));
            }
            let active = entry.active;
            if active {
                if let Some(ledger) = self.ledgers.get(&group) {
                    self.msgs.state_transfer_messages += ledger.queries.len() as u64;
                    self.msgs.redirect_messages += ledger.sources.len() as u64;
                }
                self.global_index.insert(group, dest);
                active_groups += 1;
            }
            {
                let dest_server = self
                    .servers
                    .get_mut(dest.value())
                    .ok_or(ClashError::UnknownServer { server: dest })?;
                dest_server.table_mut().install_entry(entry)?;
                // The new owner may have been one of the group's replica
                // holders; owning the primary supersedes the copy.
                dest_server.replica_store_mut().drop_held(group);
            }
            self.mark_dirty(dest.value());
            if active {
                // The group changed owners: the old replica set (placed
                // by `from`) retires and the new owner seeds its own. A
                // departed `from` is gone already — its stale records
                // expire at the next lease sweep instead.
                self.invalidate_replicas(group, from);
                self.ensure_replicas(group, dest);
            }
        }
        let mut parents_repointed = 0;
        let mut right_children_repointed = 0;
        let namers = self.pointer_holders(moved_to.keys().copied());
        for &sid in &namers {
            // Re-points only rewrite pointer destinations (never a group's
            // activity, load, or report-owing status), so they need no
            // dirty mark.
            let (p, r) = self
                .servers
                .get_mut(sid)
                .expect("Map() owners are ring members")
                .table_mut()
                .repoint_moved_entries(|g| moved_to.get(&g).copied());
            parents_repointed += p;
            right_children_repointed += r;
        }
        #[cfg(debug_assertions)]
        for server in self.servers.iter_mut() {
            if !namers.contains(&server.id().value()) {
                let missed = server
                    .table_mut()
                    .repoint_moved_entries(|g| moved_to.get(&g).copied());
                assert_eq!(missed, (0, 0), "{} named a moved entry", server.id());
            }
        }
        // Each re-point is one notification message.
        self.msgs.handoff_messages += (parents_repointed + right_children_repointed) as u64;
        Ok(MigrationTally {
            active_groups,
            entries: entries_n,
            parents_repointed,
            right_children_repointed,
        })
    }

    // ----- extensions beyond the paper's evaluation ---------------------

    /// Kills a server (crash model) and recovers. The Chord ring repairs
    /// itself; what happens to the victim's active key groups depends on
    /// [`crate::config::ClashConfig::replication_factor`]:
    ///
    /// * **`r = 0`** (default) — the historical oracle crutch: groups are
    ///   re-bootstrapped onto their new `Map()` owners with ledgers read
    ///   from the simulation's global state, modeling unspecified
    ///   "DHT-level replication". Bit-for-bit identical to the
    ///   pre-replication behavior.
    /// * **`r ≥ 1`** — real recovery: the new `Map()` owner of each lost
    ///   group fetches state from the first live successor replica and
    ///   promotes it — ledger included, so stream clients reconnect to
    ///   real recovered state — without a single oracle read (counted by
    ///   [`ClashCluster::recovery_oracle_reads`]). Groups whose replicas
    ///   all sit behind a partition defer ([`FailureReport::groups_deferred`],
    ///   retried each load check); groups whose owner *and* replicas all
    ///   died are truthfully reported lost and re-rooted empty.
    ///
    /// Either way, re-homed groups become roots — their parent entries
    /// died with the victim, so their subtrees lose merge-ability above
    /// the new root — and every dangling parent/right-child pointer on
    /// the survivors is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownServer`] for unknown victims and
    /// [`ClashError::InvalidConfig`] when asked to fail the last server.
    pub fn fail_server(&mut self, victim: ServerId) -> Result<FailureReport, ClashError> {
        self.fail_servers(&[victim])
    }

    /// [`ClashCluster::fail_server`] for a *simultaneous* crash of several
    /// servers — the correlated-failure case (a rack, an availability
    /// zone) that successor-list replication exists to be measured
    /// against: a burst that takes out an owner together with all `r` of
    /// its replica holders genuinely loses state, and the report says so.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for an empty or duplicated
    /// victim list and when the crash would take the last server;
    /// [`ClashError::UnknownServer`] for unknown victims.
    pub fn fail_servers(&mut self, victims: &[ServerId]) -> Result<FailureReport, ClashError> {
        // Membership barrier: charge all batched work against the ring
        // as it was when that work was planned.
        self.flush_batch()?;
        if victims.is_empty() {
            return Err(ClashError::InvalidConfig {
                reason: "crash burst needs at least one victim",
            });
        }
        let mut seen = BTreeSet::new();
        for v in victims {
            if !seen.insert(v.value()) {
                return Err(ClashError::InvalidConfig {
                    reason: "duplicate victim in crash burst",
                });
            }
        }
        if self.servers.len() <= victims.len() {
            return Err(ClashError::InvalidConfig {
                reason: "cannot fail the last server",
            });
        }
        for v in victims {
            if !self.servers.contains(v.value()) {
                return Err(ClashError::UnknownServer { server: *v });
            }
        }
        let corpses: Vec<ClashServer> = victims
            .iter()
            .map(|v| self.servers.remove(v.value()).expect("membership checked"))
            .collect();
        for v in victims {
            self.forget_server(v.value());
            self.net.fail(*v);
            if self.trace_on {
                self.emit(TraceEventKind::ServerCrashed { server: v.value() });
            }
        }
        self.net.stabilize_direct();
        self.route_snapshot = None;

        let mut report = FailureReport {
            failed: victims[0],
            servers_failed: victims.len(),
            groups_reassigned: 0,
            groups_recovered: 0,
            groups_lost: 0,
            groups_deferred: 0,
            sources_lost: 0,
            queries_lost: 0,
            orphaned_parents: 0,
            repaired_right_children: 0,
        };
        self.recovery_active.set(true);
        let outcome = if self.replication_enabled() {
            self.recover_from_replicas(&corpses, &mut report)
        } else {
            self.recover_from_oracle(&corpses, &mut report)
        };
        self.recovery_active.set(false);
        outcome?;
        // Failure-triggered re-replication: survivors whose holders died
        // with the victims re-seed now, not a load-check period later —
        // this is what keeps *sequential* single crashes lossless.
        self.replica_resync_at.extend_from_slice(victims);
        self.sync_replicas();
        self.debug_verify();
        Ok(report)
    }

    /// The historical `r = 0` recovery: re-home every lost group onto its
    /// new `Map()` owner with ledgers read from the global state — the
    /// oracle crutch the paper's hand-wave about DHT replication amounts
    /// to. Kept verbatim (single-victim message accounting is bit-for-bit
    /// the pre-replication behavior); its oracle reads are counted.
    fn recover_from_oracle(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
    ) -> Result<(), ClashError> {
        for corpse in corpses {
            let victim = corpse.id();
            let lost_groups: Vec<Prefix> =
                corpse.table().active_groups().map(|e| e.group).collect();
            for group in lost_groups {
                let new_owner = self.map_group(group);
                debug_assert_ne!(new_owner, victim);
                self.servers
                    .get_mut(new_owner.value())
                    .expect("ring member")
                    .bootstrap_root(group)?;
                self.mark_dirty(new_owner.value());
                self.global_index.insert(group, new_owner);
                let ledger = self.ledgers.entry(group).or_default();
                self.msgs.state_transfer_messages += ledger.queries.len() as u64;
                self.msgs.redirect_messages += ledger.sources.len() as u64;
                self.push_group_load(group)?;
                report.groups_reassigned += 1;
                report.groups_recovered += 1;
            }
        }
        // Right children resolve against the post-reassignment oracle.
        self.repair_pointers_at(corpses, report, None);
        Ok(())
    }

    /// Replica-based recovery (`r ≥ 1`): promote the first live successor
    /// replica of every lost group. The corpses' tables are consulted
    /// only for truthful post-mortem *accounting* (which groups existed —
    /// the harness keeps failed servers' state the way `SimNet` keeps
    /// failed nodes'); every byte of *recovered* state comes from the
    /// replicas, and the oracle-read counter proves the index is never
    /// consulted.
    fn recover_from_replicas(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
    ) -> Result<(), ClashError> {
        let mut lost: Vec<(Prefix, ServerId)> = Vec::new();
        for corpse in corpses {
            lost.extend(
                corpse
                    .table()
                    .active_groups()
                    .map(|e| (e.group, corpse.id())),
            );
        }
        lost.sort();
        let membership = self.client_membership(lost.iter().map(|&(g, _)| g));
        let single_crash = corpses.len() == 1;
        let mut promotions: BTreeMap<Prefix, ServerId> = BTreeMap::new();
        for &(group, old_owner) in &lost {
            if let Some(new_owner) =
                self.promote_or_defer(group, old_owner, single_crash, &membership, report)?
            {
                promotions.insert(group, new_owner);
            }
        }
        // Pointer repair resolves right children via the promotion
        // announcements — local knowledge from this recovery, never the
        // oracle. Deferred and vanished groups resolve to nothing, so the
        // dangling pointer clears.
        self.repair_pointers_at(corpses, report, Some(&promotions));
        Ok(())
    }

    /// Repairs every survivor's parent/right-child pointers at the
    /// crashed servers (see [`ServerTable::repair_after_peer_failure`]),
    /// visiting only the tables that can name an entry a corpse held.
    /// Right children resolve through `promotions`, or through the
    /// (counted) oracle when there are none.
    fn repair_pointers_at(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
        promotions: Option<&BTreeMap<Prefix, ServerId>>,
    ) {
        for corpse in corpses {
            let victim = corpse.id();
            let namers = self.pointer_holders(corpse.table().entries().map(|e| e.group));
            debug_assert!(
                self.servers
                    .iter()
                    .all(|s| namers.contains(&s.id().value()) || !s.table().names_server(victim)),
                "a table outside the corpse's tree neighbourhood names {victim}"
            );
            let (index, active, reads) = (
                &self.global_index,
                &self.recovery_active,
                &self.oracle_reads_in_recovery,
            );
            let resolve = |g: Prefix| match promotions {
                Some(promoted) => promoted.get(&g).copied(),
                None => {
                    if active.get() {
                        reads.set(reads.get() + 1);
                    }
                    index.get(g).copied()
                }
            };
            for sid in namers {
                let (orphans, repairs) = self
                    .servers
                    .get_mut(sid)
                    .expect("Map() owners are ring members")
                    .table_mut()
                    .repair_after_peer_failure(victim, resolve);
                report.orphaned_parents += orphans;
                report.repaired_right_children += repairs;
                if orphans > 0 {
                    // Orphaning turns `parent = victim` entries into
                    // roots, which stop owing reports.
                    self.dirty_servers.insert(sid);
                }
            }
        }
    }

    /// The surviving client registry for `groups`: which sources and
    /// queries still point at each (clients outlive their servers; their
    /// attachments may not). One scan per recovery event.
    #[allow(clippy::type_complexity)]
    fn client_membership(
        &self,
        groups: impl Iterator<Item = Prefix>,
    ) -> BTreeMap<Prefix, (Vec<u64>, Vec<u64>)> {
        let mut map: BTreeMap<Prefix, (Vec<u64>, Vec<u64>)> =
            groups.map(|g| (g, (Vec::new(), Vec::new()))).collect();
        if map.is_empty() {
            return map;
        }
        for (&sid, rec) in &self.sources {
            if let Some(slot) = map.get_mut(&rec.group) {
                slot.0.push(sid);
            }
        }
        for (&qid, rec) in &self.queries {
            if let Some(slot) = map.get_mut(&rec.group) {
                slot.1.push(qid);
            }
        }
        map
    }

    /// Recovers one lost group from its successor replicas: the new
    /// `Map()` owner fetches state from the first live replica (in the
    /// dead owner's successor order) and promotes it as a new root. If
    /// every live holder is unreachable the recovery defers; if none
    /// exists the group is re-rooted empty and its clients are dropped,
    /// truthfully counted. Returns the group's new home, or `None` while
    /// deferred.
    fn promote_or_defer(
        &mut self,
        group: Prefix,
        old_owner: ServerId,
        single_crash: bool,
        membership: &BTreeMap<Prefix, (Vec<u64>, Vec<u64>)>,
        report: &mut FailureReport,
    ) -> Result<Option<ServerId>, ClashError> {
        let new_owner = self.map_group(group);
        // Candidates: survivors holding a replica whose owner is the dead
        // server that actively held the group. The owner filter is what
        // makes stale records (a split's invalidation deferred behind a
        // partition, a handoff's old copies) unpromotable: their owner is
        // never the crashed active holder.
        let mask = self.config.hash_space.mask();
        let mut candidates: Vec<ServerId> = self
            .servers
            .iter()
            .filter(|s| {
                s.replica_store()
                    .held(group)
                    .is_some_and(|r| r.owner == old_owner)
            })
            .map(ClashServer::id)
            .collect();
        candidates.sort_by_key(|h| h.value().wrapping_sub(old_owner.value()) & mask);
        let mut fetched: Option<ReplicaRecord> = None;
        for &holder in &candidates {
            if holder == new_owner {
                // The new ring owner already holds the replica — the
                // common single-crash case. Reading it crosses no
                // network, so nothing is charged (like every other local
                // delivery in the harness).
                fetched = self
                    .servers
                    .get(holder.value())
                    .expect("candidate holders are live")
                    .replica_store()
                    .held(group)
                    .cloned();
                break;
            }
            let mut lat = SimDuration::ZERO;
            if self.transport_send(new_owner, holder, MessageClass::ReplicateKeygroup, &mut lat)
                && self.transport_send(holder, new_owner, MessageClass::AckReplica, &mut lat)
            {
                self.msgs.replication_messages += 2;
                self.latency.replication.observe(ms(lat));
                fetched = self
                    .servers
                    .get(holder.value())
                    .expect("candidate holders are live")
                    .replica_store()
                    .held(group)
                    .cloned();
                break;
            }
        }
        let (live_sources, live_queries) = membership.get(&group).cloned().unwrap_or_default();
        match fetched {
            Some(rec) => {
                // Reconcile the replica's ledger against the surviving
                // client registry: attachments the replica never saw (a
                // partition starved its write-through) died with the
                // owner, and replica members that detached meanwhile drop
                // out.
                let sources: Vec<u64> = rec
                    .sources
                    .iter()
                    .copied()
                    .filter(|s| live_sources.contains(s))
                    .collect();
                let queries: Vec<u64> = rec
                    .queries
                    .iter()
                    .copied()
                    .filter(|q| live_queries.contains(q))
                    .collect();
                for s in &live_sources {
                    if !sources.contains(s) {
                        self.sources.remove(s);
                        report.sources_lost += 1;
                    }
                }
                for q in &live_queries {
                    if !queries.contains(q) {
                        self.queries.remove(q);
                        report.queries_lost += 1;
                    }
                }
                let rate: f64 = sources.iter().map(|s| self.sources[s].rate).sum();
                let ledger = GroupLedger {
                    sources: Arc::new(sources),
                    queries: Arc::new(queries),
                    rate,
                };
                let load = ledger.load();
                self.msgs.state_transfer_messages += ledger.queries.len() as u64;
                self.msgs.redirect_messages += ledger.sources.len() as u64;
                self.ledgers.insert(group, ledger);
                {
                    let server = self
                        .servers
                        .get_mut(new_owner.value())
                        .expect("ring member");
                    server.bootstrap_root(group)?;
                    server.set_group_load(group, load)?;
                }
                self.mark_dirty(new_owner.value());
                self.global_index.insert(group, new_owner);
                self.pending_recovery.remove(&group);
                // Re-protect immediately: the survivors of a burst must
                // not depend on the next sync period for their own cover.
                self.ensure_replicas(group, new_owner);
                report.groups_reassigned += 1;
                report.groups_recovered += 1;
                if self.trace_on {
                    self.emit(TraceEventKind::ReplicaPromoted {
                        failed: old_owner.value(),
                        group_bits: group.pattern(),
                        group_depth: group.depth(),
                        new_owner: new_owner.value(),
                    });
                }
                Ok(Some(new_owner))
            }
            None if !candidates.is_empty() => {
                // Replicas exist but every one sits behind the partition:
                // defer. The group leaves the active cover until a later
                // load check can reach a holder. A retry that stays
                // blocked (the entry already existed) bumps its wait
                // count and logs a distinct event carrying the blocking
                // partition's islands; a fresh deferral starts at zero.
                let prior = self.pending_recovery.get(&group).copied();
                let waited_checks = prior.map_or(0, |p| p.waited_checks + 1);
                self.recovery_deferred_max_wait =
                    self.recovery_deferred_max_wait.max(waited_checks);
                self.global_index.remove(group);
                self.pending_recovery.insert(
                    group,
                    PendingRecovery {
                        old_owner,
                        single_crash,
                        waited_checks,
                    },
                );
                report.groups_deferred += 1;
                if prior.is_some() {
                    self.recovery_retries_blocked += 1;
                    if self.trace_on {
                        let owner_island = self
                            .transport
                            .island_of(old_owner.value())
                            .map_or(u64::MAX, u64::from);
                        let coordinator_island = self
                            .transport
                            .island_of(new_owner.value())
                            .map_or(u64::MAX, u64::from);
                        self.emit(TraceEventKind::RecoveryRetryBlocked {
                            failed: old_owner.value(),
                            group_bits: group.pattern(),
                            group_depth: group.depth(),
                            owner_island,
                            coordinator_island,
                            waited_checks,
                        });
                    }
                } else if self.trace_on {
                    self.emit(TraceEventKind::RecoveryDeferred {
                        failed: old_owner.value(),
                        group_bits: group.pattern(),
                        group_depth: group.depth(),
                    });
                }
                Ok(None)
            }
            None => {
                // The owner and every replica are gone: the state is
                // genuinely lost. Re-root the group empty so the cover
                // stays a partition, and truthfully drop the stranded
                // clients — no silent resurrection from the oracle.
                for s in &live_sources {
                    self.sources.remove(s);
                }
                for q in &live_queries {
                    self.queries.remove(q);
                }
                report.sources_lost += live_sources.len();
                report.queries_lost += live_queries.len();
                self.ledgers.insert(group, GroupLedger::default());
                self.servers
                    .get_mut(new_owner.value())
                    .expect("ring member")
                    .bootstrap_root(group)?;
                self.mark_dirty(new_owner.value());
                self.global_index.insert(group, new_owner);
                self.pending_recovery.remove(&group);
                self.ensure_replicas(group, new_owner);
                report.groups_reassigned += 1;
                report.groups_lost += 1;
                if self.trace_on {
                    self.emit(TraceEventKind::RecoveryLost {
                        failed: old_owner.value(),
                        group_bits: group.pattern(),
                        group_depth: group.depth(),
                        clients_dropped: (live_sources.len() + live_queries.len()) as u64,
                    });
                }
                Ok(Some(new_owner))
            }
        }
    }

    /// Retries every partition-deferred recovery (run at each load
    /// check). A group whose replicas became reachable is promoted; one
    /// whose last holders have since died is re-rooted empty and counted
    /// lost.
    fn retry_deferred_recoveries(
        &mut self,
        report: &mut LoadCheckReport,
    ) -> Result<(), ClashError> {
        if self.pending_recovery.is_empty() {
            return Ok(());
        }
        // Deferred recoveries change the pending set (which the lease
        // expiry predicate reads) and re-home groups: the sync riding
        // this load check must run the full sweep.
        self.replica_full_sync = true;
        let pending: Vec<(Prefix, PendingRecovery)> = self
            .pending_recovery
            .iter()
            .map(|(&g, &p)| (g, p))
            .collect();
        let membership = self.client_membership(pending.iter().map(|&(g, _)| g));
        self.recovery_active.set(true);
        let mut tally = FailureReport {
            failed: pending[0].1.old_owner,
            servers_failed: 0,
            groups_reassigned: 0,
            groups_recovered: 0,
            groups_lost: 0,
            groups_deferred: 0,
            sources_lost: 0,
            queries_lost: 0,
            orphaned_parents: 0,
            repaired_right_children: 0,
        };
        let mut outcome = Ok(());
        for (group, rec) in pending {
            let lost_before = tally.groups_lost;
            let sources_before = tally.sources_lost;
            let queries_before = tally.queries_lost;
            self.recovery_retries += 1;
            match self.promote_or_defer(
                group,
                rec.old_owner,
                rec.single_crash,
                &membership,
                &mut tally,
            ) {
                Ok(Some(new_owner)) => {
                    if tally.groups_lost > lost_before {
                        report.recoveries_lost += 1;
                        if rec.single_crash {
                            report.recoveries_lost_single += 1;
                        }
                    } else {
                        report.recoveries_completed += 1;
                        if self.trace_on {
                            self.emit(TraceEventKind::RecoveryRetried {
                                group_bits: group.pattern(),
                                group_depth: group.depth(),
                                new_owner: new_owner.value(),
                            });
                        }
                    }
                    // Client losses surface even on a successful promotion
                    // (a partition-starved replica reconciles them away).
                    report.recovery_sources_lost += (tally.sources_lost - sources_before) as u64;
                    report.recovery_queries_lost += (tally.queries_lost - queries_before) as u64;
                }
                Ok(None) => {} // still deferred
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.recovery_active.set(false);
        outcome
    }

    /// Ground-truth range scan: every active group intersecting `range`
    /// and its owner, in key order (no messages).
    pub fn oracle_range(&self, range: Prefix) -> Vec<(Prefix, ServerId)> {
        self.count_oracle_read();
        self.global_index
            .intersecting(range)
            .into_iter()
            .map(|(p, &s)| (p, s))
            .collect()
    }

    /// Distributed range query (the §7 extension): locates the group
    /// containing the range start, then walks right through consecutive
    /// groups until the range is covered, counting the protocol cost of
    /// each hop. Because CLASH clusters prefix ranges, the walk usually
    /// touches very few servers — the paper's argument for why range
    /// queries get *cheaper* under CLASH than under a scattering DHT.
    ///
    /// # Errors
    ///
    /// Propagates locate errors; returns [`ClashError::InvalidConfig`]
    /// if the walk exceeds 4096 groups (guard against mis-use on the
    /// fine-grained baseline).
    pub fn range_query(&mut self, range: Prefix) -> Result<RangeQueryResult, ClashError> {
        let before = self.msgs;
        let mut groups: Vec<(Prefix, ServerId)> = Vec::new();
        let mut key = range.min_key();
        let range_end = range.max_key().bits();
        loop {
            if groups.len() >= 4096 {
                return Err(ClashError::InvalidConfig {
                    reason: "range query would visit more than 4096 groups",
                });
            }
            let placement = self.locate(key)?;
            groups.push((placement.group, placement.server));
            let group_end = placement.group.max_key().bits();
            // Done when the found group covers the rest of the range.
            if group_end >= range_end {
                break;
            }
            key = Key::new(group_end + 1, self.config.key_width)
                .expect("group end below range end is in range");
        }
        let mut servers: Vec<ServerId> = groups.iter().map(|&(_, s)| s).collect();
        servers.sort_unstable();
        servers.dedup();
        let after = self.msgs;
        Ok(RangeQueryResult {
            distinct_servers: servers.len(),
            groups,
            probes: (after.probes - before.probes) as u32,
            messages: after.control_messages() - before.control_messages(),
        })
    }

    /// Server-assisted depth determination (§5's closing note: "this
    /// estimation of the correct depth can be performed … by a server
    /// that uses this algorithm to query its peer servers, rather than
    /// assigning the lookup burden to the client"). The client pays one
    /// round trip to a random proxy server; the proxy runs the search.
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::locate`].
    pub fn locate_assisted(&mut self, key: Key) -> Result<Placement, ClashError> {
        // Client → proxy request and proxy → client response.
        self.msgs.probe_messages += 2;
        // The proxy runs the standard search; probes route from the proxy
        // (already how locate() accounts its hops).
        self.locate(key)
    }

    /// Verifies cluster-wide consistency between the oracle, the server
    /// tables and the ledgers. Cheap enough for tests; called after every
    /// load check in debug builds.
    ///
    /// On failure, the flight recorder's tail is dumped to stderr first
    /// (when a sink is installed), so the panic arrives with the protocol
    /// decisions that led to it.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency (these are bugs, not runtime errors).
    pub fn verify_consistency(&self) {
        self.run_with_trace_dump(|c| c.verify_consistency_inner());
    }

    /// Runs `f`; if it panics, dumps the flight-recorder tail to stderr
    /// and re-raises the original panic payload. Pure observation — the
    /// panic (message and all) continues exactly as it would have.
    fn run_with_trace_dump(&self, f: impl FnOnce(&Self)) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        if let Err(payload) = result {
            self.dump_trace_tail();
            std::panic::resume_unwind(payload);
        }
    }

    fn verify_consistency_inner(&self) {
        // 1. Global index entries are active on their owners.
        for (group, &owner) in self.global_index.iter() {
            let server = self.server(owner).expect("owner exists");
            let entry = server
                .table()
                .entry(group)
                .unwrap_or_else(|| panic!("{owner} lacks entry for {group}"));
            assert!(entry.active, "{group} on {owner} is not active");
        }
        // 2. Every active entry is in the global index.
        let mut total_active = 0;
        for server in self.servers.iter() {
            server.table().check_invariants().expect("table invariants");
            for e in server.table().active_groups() {
                total_active += 1;
                assert_eq!(
                    self.global_index.get(e.group),
                    Some(&server.id()),
                    "active {} on {} missing from oracle",
                    e.group,
                    server.id()
                );
            }
        }
        assert_eq!(total_active, self.global_index.len());
        // 3. In CLASH mode the active groups — together with any groups
        // whose crash recovery is deferred behind a partition — partition
        // the key space.
        if self.config.splitting_enabled {
            let mut cover = self.global_cover();
            for &g in self.pending_recovery.keys() {
                cover
                    .insert(g)
                    .expect("deferred groups must be disjoint from the active cover");
            }
            assert!(
                cover.is_partition(),
                "active groups (plus deferred recoveries) do not partition the key space"
            );
        }
        // 4. Ledger membership matches member records.
        for (group, ledger) in &self.ledgers {
            for sid in ledger.sources.iter() {
                assert_eq!(&self.sources[sid].group, group);
            }
            for qid in ledger.queries.iter() {
                assert_eq!(&self.queries[qid].group, group);
            }
        }
        // 5. Every table entry sits on its group's current Map() owner —
        // the placement invariant that membership handoffs (join/leave)
        // and crash recovery must all preserve.
        for server in self.servers.iter() {
            for e in server.table().entries() {
                assert_eq!(
                    self.map_group(e.group),
                    server.id(),
                    "entry {} sits on {} but Map() says {}",
                    e.group,
                    server.id(),
                    self.map_group(e.group)
                );
            }
        }
        // 6. Replication bookkeeping: an owner never holds a copy of its
        // own active group, and every *live* holder its registry names
        // holds the record for the right owner with the current ledger
        // (write-through keeps registered holders exact; only
        // unregistered copies may go stale). A group the sync worklist
        // does not carry is placed on exactly its owner's alive
        // successors, in successor order — what lets `ensure_replicas`
        // leave seeded holders alone and `sync_replicas` skip the groups
        // no membership change reached (the planted merge-reseed bug
        // breaks precisely this, and is left to the chaos suite's own
        // placement invariants to catch). A dirty group's registry may
        // still name a dead holder, which the next sync prunes. And no
        // lease outlives its owner's ring membership except while the
        // group's recovery is pending, which is why a join need not
        // expire any.
        if self.replication_enabled() {
            for (group, &owner) in self.global_index.iter() {
                let owner_server = self.server(owner).expect("owner exists");
                assert!(
                    owner_server.replica_store().held(group).is_none(),
                    "{owner} owns {group} and also holds a replica of it"
                );
                if !self.replica_dirty.contains(&group) && !self.chaos_skip_merge_reseed {
                    assert_eq!(
                        owner_server.replica_store().placed(group),
                        self.net
                            .alive_successors(owner, self.config.replication_factor),
                        "{group} is off the sync worklist but not placed on {owner}'s successors"
                    );
                }
                let ledger = self.ledgers.get(&group);
                for &holder in owner_server.replica_store().placed(group) {
                    let Some(holder_server) = self.server(holder) else {
                        continue; // crashed holder, pruned at next sync
                    };
                    let rec = holder_server
                        .replica_store()
                        .held(group)
                        .unwrap_or_else(|| panic!("{holder} lost its replica of {group}"));
                    assert_eq!(rec.owner, owner, "replica of {group} names a stale owner");
                    let (sources, queries) = ledger
                        .map(|l| (l.sources.as_slice(), l.queries.as_slice()))
                        .unwrap_or((&[], &[]));
                    assert_eq!(
                        rec.sources.as_slice(),
                        sources,
                        "stale replica ledger for {group}"
                    );
                    assert_eq!(
                        rec.queries.as_slice(),
                        queries,
                        "stale replica ledger for {group}"
                    );
                }
            }
            for server in self.servers.iter() {
                for (group, owner) in server.replica_store().held_owners() {
                    assert!(
                        self.net.is_alive(owner) || self.pending_recovery.contains_key(&group),
                        "{} holds a lease on {group} from departed {owner}",
                        server.id()
                    );
                }
            }
        }
    }

    /// Debug-build consistency sweep, sampled by `CLASH_VERIFY_EVERY`:
    /// with the default of 1 every call verifies (the historical
    /// behavior); `N > 1` verifies every Nth call so debug-build runs at
    /// thousands of servers stay feasible; `0` disables the sweep.
    #[cfg(debug_assertions)]
    fn debug_verify(&self) {
        if self.verify_every == 0 {
            return;
        }
        let left = self.verify_countdown.get();
        if left > 1 {
            self.verify_countdown.set(left - 1);
            return;
        }
        self.verify_countdown.set(self.verify_every);
        self.verify_consistency();
        self.run_with_trace_dump(|c| c.verify_candidate_indices());
    }

    #[cfg(not(debug_assertions))]
    fn debug_verify(&self) {}
}

enum MergeOutcome {
    Merged(MergeRecord),
    Refused,
    NoCandidate,
}

impl std::fmt::Debug for ClashCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClashCluster")
            .field("servers", &self.server_count())
            .field("groups", &self.global_index.len())
            .field("sources", &self.sources.len())
            .field("queries", &self.queries.len())
            .field("msgs", &self.msgs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::key::KeyWidth;

    fn key(bits: u64) -> Key {
        Key::from_bits_truncated(bits, KeyWidth::new(8).unwrap())
    }

    fn cluster(n: usize) -> ClashCluster {
        ClashCluster::new(ClashConfig::small_test(), n, 1).unwrap()
    }

    // Pinned by `figure5_protocol_accounting_pinned`: the seed-1
    // 8-server hot-workload run performs 2 splits, both placed remotely
    // (2 ACCEPT_KEYGROUPs, 0 self-mapped retries), and its corrected
    // protocol accounting is 2·168 probes + 2 accepts + 68 redirects.
    const PIN_SPLITS: u64 = 2;
    const PIN_ACCEPTS: u64 = 2;
    const PIN_RETRIES: u64 = 0;
    const PIN_PROTOCOL: u64 = 406;

    #[test]
    fn bootstrap_creates_partition() {
        let c = cluster(8);
        let cover = c.global_cover();
        assert_eq!(cover.len(), 4); // initial depth 2 → 4 groups
        assert!(cover.is_partition());
        c.verify_consistency();
    }

    #[test]
    fn locate_agrees_with_oracle() {
        let mut c = cluster(8);
        for bits in 0..=255u64 {
            let k = key(bits);
            let placement = c.locate(k).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
            assert_eq!(placement.server, oracle_server, "key {k}");
            assert_eq!(placement.group, oracle_group, "key {k}");
        }
    }

    #[test]
    fn attach_detach_source_roundtrip() {
        let mut c = cluster(8);
        let p = c.attach_source(1, key(0b1011_0100), 2.0).unwrap();
        assert_eq!(c.source_count(), 1);
        let owner = c.server(p.server).unwrap();
        assert!((owner.current_load() - 2.0).abs() < 1e-9);
        c.detach_source(1).unwrap();
        assert_eq!(c.source_count(), 0);
        let owner = c.server(p.server).unwrap();
        assert_eq!(owner.current_load(), 0.0);
        c.verify_consistency();
    }

    #[test]
    fn duplicate_source_id_rejected() {
        let mut c = cluster(8);
        c.attach_source(1, key(3), 1.0).unwrap();
        assert!(c.attach_source(1, key(5), 1.0).is_err());
        assert!(c.detach_source(99).is_err());
    }

    #[test]
    fn overload_triggers_split_and_redistribution() {
        let mut c = cluster(8);
        // Pour 200 units of rate into one group (capacity 100, overload 90).
        for i in 0..100 {
            // Keys spread within the 00* group (depth 2).
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        let report = c.run_load_check().unwrap();
        assert!(!report.splits.is_empty(), "overload must cause splits");
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
        // After splitting, no server stays overloaded (load was divisible).
        let max_load = c
            .server_loads()
            .into_iter()
            .map(|(_, l)| l)
            .fold(0.0f64, f64::max);
        assert!(
            max_load <= c.config().overload_threshold() + 1e-9,
            "max load {max_load} still above threshold"
        );
        // Depth grew beyond the initial depth.
        let (_, _, max_depth) = c.depth_stats().unwrap();
        assert!(max_depth > 2);
    }

    #[test]
    fn locate_still_correct_after_splits() {
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        for bits in 0..=255u64 {
            let k = key(bits);
            let placement = c.locate(k).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
            assert_eq!(placement.server, oracle_server, "key {k}");
            assert_eq!(placement.group, oracle_group, "key {k}");
            // Depth search stays within the paper's bound.
            assert!(placement.probes <= 5, "{} probes for {k}", placement.probes);
        }
    }

    #[test]
    fn cooling_triggers_merge() {
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let depth_after_split = c.depth_stats().unwrap().2;
        assert!(depth_after_split > 2);
        // Cool down: detach everything.
        for i in 0..100 {
            c.detach_source(i).unwrap();
        }
        // Several check periods let reports flow and merges cascade.
        for _ in 0..12 {
            c.run_load_check().unwrap();
        }
        c.verify_consistency();
        let (_, _, max_depth) = c.depth_stats().unwrap();
        assert!(
            max_depth < depth_after_split,
            "consolidation should reduce depth: {max_depth} vs {depth_after_split}"
        );
        assert!(c.global_cover().is_partition());
    }

    #[test]
    fn merges_never_collapse_roots() {
        let mut c = cluster(8);
        // Nothing attached: everything is cold. Run many checks.
        for _ in 0..5 {
            c.run_load_check().unwrap();
        }
        let (min_depth, _, _) = c.depth_stats().unwrap();
        assert_eq!(
            min_depth, 2,
            "bootstrap roots must not merge above the initial depth"
        );
        assert_eq!(c.global_cover().len(), 4);
    }

    #[test]
    fn dht_baseline_never_splits() {
        let mut c = ClashCluster::new(ClashConfig::dht_baseline(2), 8, 1).unwrap();
        // dht_baseline(2) on the paper config has 24-bit keys; use such keys.
        let w = KeyWidth::PAPER;
        for i in 0..100u64 {
            let k = Key::from_bits_truncated(i * 7919, w);
            c.attach_source(i, k, 50.0).unwrap();
        }
        let report = c.run_load_check().unwrap();
        assert!(report.splits.is_empty());
        assert!(report.merges.is_empty());
        // Placement always at the fixed depth.
        let p = c.locate(Key::from_bits_truncated(12345, w)).unwrap();
        assert_eq!(p.depth, 2);
        assert_eq!(p.probes, 1);
    }

    #[test]
    fn baseline_groups_dematerialize_when_empty() {
        let mut c = ClashCluster::new(ClashConfig::dht_baseline(12), 8, 1).unwrap();
        let w = KeyWidth::PAPER;
        let k1 = Key::from_bits_truncated(0xABCDEF, w);
        let p = c.attach_source(1, k1, 1.0).unwrap();
        assert!(c.server(p.server).unwrap().table().active_count() >= 1);
        c.detach_source(1).unwrap();
        // The lazily created group disappears with its last object.
        assert_eq!(c.server(p.server).unwrap().table().active_count(), 0);
        assert!(c.oracle_locate(k1).is_none());
        // Re-attach works fine afterwards.
        c.attach_source(2, k1, 1.0).unwrap();
        assert!(c.oracle_locate(k1).is_some());
    }

    #[test]
    fn move_source_with_rate_changes_rate() {
        let mut c = cluster(8);
        c.attach_source(5, key(0b0000_0001), 1.0).unwrap();
        let p = c
            .move_source_with_rate(5, key(0b0000_0010), Some(2.0))
            .unwrap();
        let owner = c.server(p.server).unwrap();
        assert!((owner.current_load() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn move_source_uses_hint_and_keeps_rate() {
        let mut c = cluster(8);
        c.attach_source(7, key(0b0000_0001), 2.0).unwrap();
        let before = c.message_stats();
        let p = c.move_source(7, key(0b0000_0010)).unwrap();
        let after = c.message_stats();
        // Same group (same 2-bit prefix): the hint resolves in one probe.
        assert_eq!(after.probes - before.probes, 1);
        let owner = c.server(p.server).unwrap();
        assert!((owner.current_load() - 2.0).abs() < 1e-9);
        c.verify_consistency();
    }

    #[test]
    fn queries_count_toward_load_and_migrate() {
        let mut c = cluster(8);
        for q in 0..32 {
            c.attach_query(q, key(q % 64)).unwrap();
        }
        assert_eq!(c.query_count(), 32);
        // Heat the same region with sources to force splits; queries must
        // migrate with their groups (counted as state transfer).
        for i in 0..100 {
            c.attach_source(1000 + i, key(i % 64), 2.0).unwrap();
        }
        let before = c.message_stats().state_transfer_messages;
        c.run_load_check().unwrap();
        let after = c.message_stats().state_transfer_messages;
        assert!(after > before, "query migration must be accounted");
        c.verify_consistency();
    }

    #[test]
    fn message_stats_accumulate_sensibly() {
        let mut c = cluster(8);
        c.attach_source(1, key(9), 1.0).unwrap();
        let stats = c.message_stats();
        assert!(stats.probes >= 1);
        assert!(stats.probe_messages >= stats.probes);
        assert_eq!(stats.locates, 1);
        assert!(stats.control_messages() >= stats.probe_messages);
        c.reset_message_stats();
        assert_eq!(c.message_stats(), MessageStats::default());
    }

    #[test]
    fn single_server_cluster_works() {
        let mut c = cluster(1);
        let p = c.attach_source(1, key(42), 5.0).unwrap();
        assert_eq!(p.probes, 1); // everything self-maps
                                 // Overload it: splits happen but stay local (self-mapped).
        for i in 2..60 {
            c.attach_source(i, key(i % 64), 3.0).unwrap();
        }
        c.run_load_check().unwrap();
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
    }

    #[test]
    fn fail_server_reassigns_groups_and_repairs_pointers() {
        let mut c = cluster(8);
        // Heat one region so splits create parent/right-child pointers.
        for i in 0..100 {
            c.attach_source(i, key(0b1100_0000 | (i % 64)), 2.0)
                .unwrap();
        }
        c.run_load_check().unwrap();
        let total_rate_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        // Kill the busiest server.
        let victim = c
            .server_loads()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
            .unwrap();
        let report = c.fail_server(victim).unwrap();
        assert!(report.groups_reassigned > 0);
        // All invariants hold; the cover still partitions the space.
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
        // No load was lost in the reassignment.
        let total_rate_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!((total_rate_after - total_rate_before).abs() < 1e-6);
        // Lookups still work for every key and never land on the corpse.
        for bits in (0..256u64).step_by(5) {
            let placement = c.locate(key(bits)).unwrap();
            assert_ne!(placement.server, victim);
            let (oracle_server, _) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(placement.server, oracle_server);
        }
        // The system keeps operating: further load checks are fine.
        c.run_load_check().unwrap();
        c.verify_consistency();
    }

    #[test]
    fn fail_every_server_but_one() {
        let mut c = cluster(6);
        for i in 0..40 {
            c.attach_source(i, key(i * 6), 1.0).unwrap();
        }
        let mut ids = c.server_ids();
        while ids.len() > 1 {
            let victim = ids.pop().unwrap();
            c.fail_server(victim).unwrap();
            c.verify_consistency();
            assert!(c.global_cover().is_partition());
            ids = c.server_ids();
        }
        // Everything now lives on the lone survivor.
        let survivor = c.server_ids()[0];
        for bits in (0..256u64).step_by(17) {
            assert_eq!(c.locate(key(bits)).unwrap().server, survivor);
        }
        assert!(matches!(
            c.fail_server(survivor),
            Err(ClashError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn range_query_walks_the_cover() {
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(0b0100_0000 | (i % 64)), 2.0)
                .unwrap();
        }
        c.run_load_check().unwrap();
        // Query the heated quadrant: multiple groups, oracle-equal.
        let range = Prefix::parse("01*", 8).unwrap();
        let result = c.range_query(range).unwrap();
        let oracle = c.oracle_range(range);
        assert_eq!(result.groups, oracle);
        assert!(result.groups.len() > 1, "heated range spans groups");
        assert!(result.probes >= result.groups.len() as u32);
        // A cold range inside one group: a single stop.
        let cold = Prefix::parse("101010*", 8).unwrap();
        let result = c.range_query(cold).unwrap();
        assert_eq!(result.groups.len(), 1);
        assert_eq!(result.distinct_servers, 1);
    }

    #[test]
    fn range_query_full_space() {
        let mut c = cluster(8);
        let root = Prefix::root(c.config().key_width);
        let result = c.range_query(root).unwrap();
        assert_eq!(result.groups.len(), 4, "initial cover has 4 groups");
        let partition: Vec<Prefix> = result.groups.iter().map(|&(g, _)| g).collect();
        let mut cover = clash_keyspace::cover::PrefixCover::new(c.config().key_width);
        for g in partition {
            cover.insert(g).unwrap();
        }
        assert!(cover.is_partition());
    }

    #[test]
    fn assisted_locate_matches_client_locate() {
        let mut c = cluster(8);
        for i in 0..60 {
            c.attach_source(i, key(i * 4), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        for bits in (0..256u64).step_by(11) {
            let assisted = c.locate_assisted(key(bits)).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(assisted.server, oracle_server);
            assert_eq!(assisted.group, oracle_group);
        }
    }

    #[test]
    fn join_server_hands_off_groups_and_keeps_oracle() {
        let mut c = cluster(6);
        for i in 0..100 {
            c.attach_source(i, key(i % 128), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let total_rate_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        let groups_before = c.global_cover().len();
        let mut joined = Vec::new();
        for j in 0..4 {
            let report = c.join_random_server().unwrap();
            joined.push(report.joined);
            assert_eq!(c.server_count(), 7 + j);
            c.verify_consistency();
            assert!(c.global_cover().is_partition());
        }
        // With 4 joins against 6 servers, at least one join landed inside
        // a populated arc and received entries.
        let received: usize = joined
            .iter()
            .map(|&id| c.server(id).unwrap().table().len())
            .sum();
        assert!(received > 0, "no join received any entries");
        assert!(c.message_stats().joins == 4);
        assert!(c.message_stats().handoff_messages > 0);
        // Nothing was lost or duplicated in the handoffs.
        assert_eq!(c.global_cover().len(), groups_before);
        let total_rate_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!((total_rate_after - total_rate_before).abs() < 1e-6);
        // Lookups agree with the oracle from any entry point.
        for bits in (0..256u64).step_by(7) {
            let placement = c.locate(key(bits)).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(placement.server, oracle_server);
            assert_eq!(placement.group, oracle_group);
            assert!(placement.probes <= 5);
        }
        // The system keeps adapting after the joins.
        c.run_load_check().unwrap();
        c.verify_consistency();
    }

    #[test]
    fn join_rejects_duplicate_id() {
        let mut c = cluster(4);
        let existing = c.server_ids()[0];
        assert!(matches!(
            c.join_server(existing),
            Err(ClashError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn leave_server_drains_gracefully() {
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let total_rate_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        // Drain the busiest server — the hardest case.
        let victim = c
            .server_loads()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
            .unwrap();
        let entries_held = c.server(victim).unwrap().table().len();
        let report = c.leave_server(victim).unwrap();
        assert_eq!(report.entries_transferred, entries_held);
        assert!(report.groups_transferred <= report.entries_transferred);
        assert_eq!(c.server_count(), 7);
        assert_eq!(c.message_stats().leaves, 1);
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
        // Unlike a crash, the drain loses no load and no tree structure.
        let total_rate_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!((total_rate_after - total_rate_before).abs() < 1e-6);
        for bits in (0..256u64).step_by(5) {
            let placement = c.locate(key(bits)).unwrap();
            assert_ne!(placement.server, victim);
            let (oracle_server, _) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(placement.server, oracle_server);
        }
        c.run_load_check().unwrap();
        c.verify_consistency();
    }

    #[test]
    fn drain_preserves_merge_ability_where_crash_cannot() {
        // Build the same deep tree twice; drain the deepest holder in one
        // cluster, crash it in the other. After cooling, the drained
        // cluster consolidates back to the bootstrap roots (the interior
        // entries survived the move); the crashed one is left with
        // orphaned roots that can never merge above the break.
        let build = || {
            let mut c = ClashCluster::new(
                ClashConfig {
                    capacity: 60.0,
                    ..ClashConfig::small_test()
                },
                10,
                5,
            )
            .unwrap();
            for i in 0..120u64 {
                c.attach_source(i, key(0b0110_0000 | (i % 32)), 2.0)
                    .unwrap();
            }
            for _ in 0..4 {
                c.run_load_check().unwrap();
            }
            c
        };
        let deepest_owner = |c: &ClashCluster| {
            c.server_ids()
                .into_iter()
                .max_by_key(|&id| {
                    c.server(id)
                        .unwrap()
                        .depth_stats()
                        .map_or(0, |(_, _, max)| max)
                })
                .unwrap()
        };
        let cool = |c: &mut ClashCluster| {
            for i in 0..120u64 {
                c.detach_source(i).unwrap();
            }
            for _ in 0..16 {
                c.run_load_check().unwrap();
            }
        };

        let mut drained = build();
        assert!(drained.depth_stats().unwrap().2 > 4);
        drained.leave_server(deepest_owner(&drained)).unwrap();
        cool(&mut drained);
        assert_eq!(
            drained.depth_stats().unwrap().2,
            2,
            "drained cluster must consolidate fully back to the roots"
        );

        let mut crashed = build();
        crashed.fail_server(deepest_owner(&crashed)).unwrap();
        cool(&mut crashed);
        assert!(
            crashed.depth_stats().unwrap().2 > 2,
            "crash orphans subtrees into roots, blocking full consolidation"
        );
    }

    #[test]
    fn interleaved_joins_and_leaves_under_load() {
        let mut c = cluster(4);
        let mut next = 0u64;
        for round in 0..6u32 {
            for _ in 0..20 {
                c.attach_source(next, key((next * 13) % 256), 1.5).unwrap();
                next += 1;
            }
            c.run_load_check().unwrap();
            if round % 2 == 0 {
                c.join_random_server().unwrap();
            } else if c.server_count() > 2 {
                let ids = c.server_ids();
                c.leave_server(ids[(round as usize) % ids.len()]).unwrap();
            }
            c.verify_consistency();
            assert!(c.global_cover().is_partition());
            for bits in (0..256u64).step_by(31) {
                let placement = c.locate(key(bits)).unwrap();
                let (oracle_server, _) = c.oracle_locate(key(bits)).unwrap();
                assert_eq!(placement.server, oracle_server);
            }
        }
        assert_eq!(c.source_count(), 120);
        let total: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!((total - 120.0 * 1.5).abs() < 1e-6);
    }

    #[test]
    fn leave_last_server_rejected() {
        let mut c = cluster(1);
        let id = c.server_ids()[0];
        assert!(matches!(
            c.leave_server(id),
            Err(ClashError::InvalidConfig { .. })
        ));
        let ghost = ServerId::new(0xDEAD, c.config().hash_space);
        let mut c = cluster(2);
        assert!(matches!(
            c.leave_server(ghost),
            Err(ClashError::UnknownServer { .. })
        ));
    }

    #[test]
    fn local_right_child_merge_conserves_load() {
        // Single server: every split self-maps, so try_merge takes the
        // local-right-child path (merge_group with GroupLoad::zero(), the
        // real load read from the local entry). Total load must be
        // conserved across those merges.
        let mut c = cluster(1);
        for i in 0..40 {
            c.attach_source(i, key(i % 64), 3.0).unwrap();
        }
        c.run_load_check().unwrap();
        assert!(c.message_stats().splits > 0);
        // Cool *partially*: the survivors' rates must survive the merges.
        for i in 0..30 {
            c.detach_source(i).unwrap();
        }
        let total_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!(total_before > 0.0);
        let merges_before = c.message_stats().merges;
        let merge_msgs_before = c.message_stats().merge_messages;
        for _ in 0..12 {
            c.run_load_check().unwrap();
        }
        assert!(
            c.message_stats().merges > merges_before,
            "cooling must trigger local merges"
        );
        assert_eq!(
            c.message_stats().merge_messages,
            merge_msgs_before,
            "both children are local: merges must be message-free"
        );
        let total_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!(
            (total_after - total_before).abs() < 1e-9,
            "local merge lost load: {total_before} -> {total_after}"
        );
        c.verify_consistency();
    }

    #[test]
    fn split_accounting_distinguishes_remote_and_self_mapped() {
        // Single server: every placement self-maps, so no ACCEPT_KEYGROUP
        // is ever sent; the corrected accounting must not charge any.
        let mut c = cluster(1);
        for i in 2..60 {
            c.attach_source(i, key(i % 64), 3.0).unwrap();
        }
        c.run_load_check().unwrap();
        let s = c.message_stats();
        assert!(s.splits > 0);
        assert_eq!(s.accept_keygroups, 0, "self-mapped splits send nothing");
        assert!(s.self_mapped_retries > 0, "retries must be counted apart");
        assert_eq!(
            s.protocol_control_messages(),
            2 * s.probes + s.merge_messages + s.report_messages + s.redirect_messages,
            "Figure-5 protocol accounting must not charge self-mapped splits"
        );

        // Multi-server: every split is remote or retried; the counters
        // partition the splits (terminal self-maps are the remainder).
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let s = c.message_stats();
        assert!(s.accept_keygroups > 0);
        assert!(
            s.accept_keygroups + s.self_mapped_retries <= s.splits,
            "every split is a remote placement, a retry, or a terminal self-map"
        );
    }

    #[test]
    fn figure5_protocol_accounting_pinned() {
        // Regression pin for the corrected Figure-5 accounting: the seed-1
        // 8-server cluster under the standard hot workload. These counts
        // changed when self-mapped retries stopped being charged as
        // ACCEPT_KEYGROUPs; any further drift is a protocol change and
        // must be justified.
        let mut c = cluster(8);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let s = c.message_stats();
        assert_eq!(
            (s.splits, s.accept_keygroups, s.self_mapped_retries),
            (PIN_SPLITS, PIN_ACCEPTS, PIN_RETRIES),
            "split accounting drifted: {s:?}"
        );
        assert_eq!(
            s.protocol_control_messages(),
            PIN_PROTOCOL,
            "protocol_control_messages drifted: {s:?}"
        );
    }

    #[test]
    fn transport_swap_preserves_protocol_behavior() {
        // The same seed and workload through the instant transport and a
        // lossy WAN transport must produce identical protocol decisions
        // and MessageStats: the transport charges time, it never perturbs
        // the protocol's own RNG draws.
        use clash_transport::{LinkPolicy, LinkTransport};
        let run = |transport: Box<dyn clash_transport::Transport>| {
            let mut c =
                ClashCluster::with_transport(ClashConfig::small_test(), 8, 1, transport).unwrap();
            for i in 0..100 {
                c.attach_source(i, key(i % 64), 2.0).unwrap();
            }
            c.run_load_check().unwrap();
            for i in 0..50 {
                c.detach_source(i).unwrap();
            }
            for _ in 0..6 {
                c.run_load_check().unwrap();
            }
            c
        };
        let instant = run(Box::new(clash_transport::InstantTransport::new()));
        let lossy = run(Box::new(LinkTransport::new(LinkPolicy::lossy_wan(0.1), 77)));
        assert_eq!(instant.message_stats(), lossy.message_stats());
        assert_eq!(
            instant.global_cover().len(),
            lossy.global_cover().len(),
            "identical split/merge decisions"
        );
        // But the transports tell very different time stories.
        assert_eq!(instant.transport_stats().total_latency_us, 0);
        assert!(lossy.transport_stats().total_latency_us > 0);
        assert!(lossy.transport_stats().retransmissions > 0);
        assert_eq!(instant.latency_metrics().locate.summary().max(), Some(0.0));
        assert!(lossy.latency_metrics().locate.summary().mean() > 0.0);
        lossy.verify_consistency();
    }

    #[test]
    fn partition_blocks_cross_island_operations_and_heals() {
        use clash_transport::{LinkPolicy, LinkTransport};
        let mut c = ClashCluster::with_transport(
            ClashConfig::small_test(),
            8,
            1,
            Box::new(LinkTransport::new(LinkPolicy::lan(), 5)),
        )
        .unwrap();
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let ids = c.server_ids();
        let (left, right) = ids.split_at(ids.len() / 2);
        c.partition_network(&[left.to_vec(), right.to_vec()]);

        // During the partition, some locates fail with NetworkUnreachable
        // (whenever the route crosses islands) — and nothing panics or
        // corrupts state, including load checks.
        let mut failed = 0;
        let mut ok = 0;
        for bits in 0..256u64 {
            match c.locate(key(bits)) {
                Ok(_) => ok += 1,
                Err(ClashError::NetworkUnreachable { .. }) => failed += 1,
                Err(e) => panic!("unexpected error under partition: {e}"),
            }
        }
        assert!(failed > 0, "an island split must sever some routes");
        assert!(ok > 0, "intra-island routes keep working");
        c.run_load_check().unwrap();
        c.verify_consistency();
        assert!(c.transport_stats().unreachable > 0);

        // After healing, every lookup agrees with the oracle again.
        c.heal_partition();
        c.run_load_check().unwrap();
        for bits in 0..256u64 {
            let p = c.locate(key(bits)).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(p.server, oracle_server);
            assert_eq!(p.group, oracle_group);
        }
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
    }

    #[test]
    fn committed_splits_under_partition_are_always_reported() {
        use clash_transport::{LinkPolicy, LinkTransport};
        // Fully sever a small fleet and overload its servers: self-mapped
        // retry splits commit locally even though every remote placement
        // is unreachable. Each committed split must surface in the
        // LoadCheckReport — a partition may defer work, never hide it.
        for seed in 0..8u64 {
            let mut c = ClashCluster::with_transport(
                ClashConfig::small_test(),
                2,
                seed,
                Box::new(LinkTransport::new(LinkPolicy::lan(), seed)),
            )
            .unwrap();
            for i in 0..100 {
                c.attach_source(i, key(i % 64), 2.0).unwrap();
            }
            let islands: Vec<Vec<ServerId>> =
                c.server_ids().into_iter().map(|id| vec![id]).collect();
            c.partition_network(&islands);
            let before = c.message_stats().splits;
            let report = c.run_load_check().unwrap();
            let committed = c.message_stats().splits - before;
            if committed > 0 {
                assert!(
                    !report.splits.is_empty(),
                    "seed {seed}: {committed} splits committed but none reported"
                );
            }
            c.verify_consistency();
            assert!(c.global_cover().is_partition());
        }
    }

    #[test]
    fn partition_defers_merges_until_heal() {
        use clash_transport::{LinkPolicy, LinkTransport};
        // Heat, partition, cool: merges whose RELEASE_KEYGROUP would
        // cross the partition are deferred, then complete after healing.
        let mut c = ClashCluster::with_transport(
            ClashConfig::small_test(),
            8,
            1,
            Box::new(LinkTransport::new(LinkPolicy::lan(), 9)),
        )
        .unwrap();
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        let depth_hot = c.depth_stats().unwrap().2;
        assert!(depth_hot > 2);
        for i in 0..100 {
            c.detach_source(i).unwrap();
        }
        let ids = c.server_ids();
        let (left, right) = ids.split_at(ids.len() / 2);
        c.partition_network(&[left.to_vec(), right.to_vec()]);
        for _ in 0..12 {
            c.run_load_check().unwrap();
        }
        c.verify_consistency();
        c.heal_partition();
        for _ in 0..12 {
            c.run_load_check().unwrap();
        }
        c.verify_consistency();
        assert_eq!(
            c.depth_stats().unwrap().2,
            2,
            "after healing, consolidation must complete back to the roots"
        );
    }

    fn replicated_cluster(n: usize, r: usize, seed: u64) -> ClashCluster {
        ClashCluster::new(ClashConfig::small_test().with_replication(r), n, seed).unwrap()
    }

    #[test]
    fn replication_seeds_successor_copies_of_every_active_group() {
        let mut c = replicated_cluster(8, 2, 1);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        c.verify_consistency();
        // Every active group has copies on its owner's first live
        // successors, payloads current (checked by verify_consistency's
        // invariant 6); globally that means replicas exist.
        let held: usize = c
            .server_ids()
            .iter()
            .map(|&id| c.server(id).unwrap().replica_store().held_count())
            .sum();
        assert!(held > 0, "replication must place copies");
        assert!(c.message_stats().replication_messages > 0);
        // r = 0 charges nothing.
        let mut plain = replicated_cluster(8, 0, 1);
        for i in 0..100 {
            plain.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        plain.run_load_check().unwrap();
        assert_eq!(plain.message_stats().replication_messages, 0);
    }

    #[test]
    fn replication_factor_does_not_perturb_protocol_decisions() {
        let run = |r: usize| {
            let mut c = replicated_cluster(8, r, 1);
            for i in 0..100 {
                c.attach_source(i, key(i % 64), 2.0).unwrap();
            }
            c.run_load_check().unwrap();
            for i in 0..50 {
                c.detach_source(i).unwrap();
            }
            for _ in 0..6 {
                c.run_load_check().unwrap();
            }
            c
        };
        let plain = run(0);
        let replicated = run(3);
        let mut masked = replicated.message_stats();
        assert!(masked.replication_messages > 0);
        masked.replication_messages = 0;
        assert_eq!(
            masked,
            plain.message_stats(),
            "replication must only add replication messages"
        );
        assert_eq!(
            plain.global_cover().len(),
            replicated.global_cover().len(),
            "identical split/merge decisions"
        );
        replicated.verify_consistency();
    }

    #[test]
    fn replicated_crash_recovers_ledgers_without_oracle_reads() {
        let mut c = replicated_cluster(8, 2, 1);
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        for q in 0..20 {
            c.attach_query(1000 + q, key((q * 11) % 256)).unwrap();
        }
        c.run_load_check().unwrap();
        let total_rate_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        // Crash the busiest server; everything must come back from the
        // replicas, with zero oracle reads.
        let victim = c
            .server_loads()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
            .unwrap();
        let report = c.fail_server(victim).unwrap();
        assert!(report.groups_recovered > 0);
        assert_eq!(report.groups_recovered, report.groups_reassigned);
        assert_eq!(report.groups_lost, 0);
        assert_eq!(report.groups_deferred, 0);
        assert_eq!((report.sources_lost, report.queries_lost), (0, 0));
        assert_eq!(
            c.recovery_oracle_reads(),
            0,
            "recovery must not read the oracle"
        );
        c.verify_consistency();
        assert_eq!(c.source_count(), 100);
        assert_eq!(c.query_count(), 20);
        let total_rate_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        assert!((total_rate_after - total_rate_before).abs() < 1e-6);
        for bits in (0..256u64).step_by(5) {
            let placement = c.locate(key(bits)).unwrap();
            assert_ne!(placement.server, victim);
            let (oracle_server, _) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(placement.server, oracle_server);
        }
        // Still zero: locate/oracle_locate outside recovery don't count.
        assert_eq!(c.recovery_oracle_reads(), 0);
        c.run_load_check().unwrap();
        c.verify_consistency();
    }

    #[test]
    fn sequential_replicated_crashes_keep_recovering() {
        // Promotion re-seeds immediately, so crash after crash (with no
        // load check in between) never outruns the replicas.
        let mut c = replicated_cluster(10, 2, 7);
        for i in 0..60 {
            c.attach_source(i, key(i * 4), 1.5).unwrap();
        }
        c.run_load_check().unwrap();
        for round in 0..5 {
            let ids = c.server_ids();
            let victim = ids[round % ids.len()];
            let report = c.fail_server(victim).unwrap();
            assert_eq!(report.groups_lost, 0, "round {round} lost groups");
            c.verify_consistency();
        }
        assert_eq!(c.recovery_oracle_reads(), 0);
        assert_eq!(c.source_count(), 60);
    }

    #[test]
    fn burst_killing_owner_and_all_replicas_reports_loss_truthfully() {
        let mut c = replicated_cluster(10, 1, 3);
        for i in 0..80 {
            c.attach_source(i, key(i % 256), 1.0).unwrap();
        }
        c.run_load_check().unwrap();
        // Pick an owner with at least one active group and kill it
        // together with its r successors — every replica dies with it.
        let owner = c
            .server_ids()
            .into_iter()
            .find(|&id| c.server(id).unwrap().table().active_count() > 0)
            .unwrap();
        let lost_groups = c.server(owner).unwrap().table().active_count();
        let mut victims = vec![owner];
        victims.extend(c.net().alive_successors(owner, 1));
        let sources_before = c.source_count();
        let report = c.fail_servers(&victims).unwrap();
        assert_eq!(report.servers_failed, victims.len());
        assert!(
            report.groups_lost >= lost_groups,
            "owner+replica burst must lose the owner's groups: {report:?}"
        );
        assert_eq!(c.recovery_oracle_reads(), 0);
        // The loss is truthful: stranded clients are gone, yet the cover
        // still partitions (empty re-rooted groups) and lookups work.
        assert!(c.source_count() < sources_before || report.sources_lost == 0);
        assert_eq!(
            sources_before - c.source_count(),
            report.sources_lost,
            "sources lost must match the report"
        );
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
        for bits in (0..256u64).step_by(17) {
            let placement = c.locate(key(bits)).unwrap();
            let (oracle_server, _) = c.oracle_locate(key(bits)).unwrap();
            assert_eq!(placement.server, oracle_server);
        }
    }

    #[test]
    fn fail_servers_validates_input() {
        let mut c = replicated_cluster(4, 1, 2);
        let ids = c.server_ids();
        assert!(matches!(
            c.fail_servers(&[]),
            Err(ClashError::InvalidConfig { .. })
        ));
        assert!(matches!(
            c.fail_servers(&[ids[0], ids[0]]),
            Err(ClashError::InvalidConfig { .. })
        ));
        let ghost = ServerId::new(0xDEAD_BEEF, c.config().hash_space);
        assert!(matches!(
            c.fail_servers(&[ids[0], ghost]),
            Err(ClashError::UnknownServer { .. })
        ));
        // Nothing was mutated by the rejected calls.
        assert_eq!(c.server_count(), 4);
        c.verify_consistency();
        assert!(matches!(
            c.fail_servers(&ids),
            Err(ClashError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn depth_probe_counts_match_paper_bound() {
        // After heavy splitting, locates converge within ~log2(N) probes.
        let mut c = cluster(16);
        for i in 0..200 {
            c.attach_source(i, key(i % 256), 2.0).unwrap();
        }
        for _ in 0..3 {
            c.run_load_check().unwrap();
        }
        let mut max_probes = 0;
        for bits in (0..256u64).step_by(3) {
            let p = c.locate(key(bits)).unwrap();
            max_probes = max_probes.max(p.probes);
        }
        // log2(8+1) + 1 ≈ 4.2 → allow 5.
        assert!(max_probes <= 5, "max probes {max_probes}");
    }

    /// Runtime mirror of the clash-lint static rules, pinned: the batched
    /// route phase (snapshot freeze → last route) must never draw from
    /// the cluster RNG — the in-phase assertion fails the flush if it
    /// does, and `route_draw_checks` proves the instrumented path really
    /// ran.
    #[cfg(debug_assertions)]
    #[test]
    fn route_phase_draws_zero_from_cluster_rng() {
        let config = ClashConfig::small_test().with_shards(1);
        let mut c = ClashCluster::new(config, 8, 1).unwrap();
        for i in 0..300u64 {
            c.attach_source(i, key(i % 256), 1.0).unwrap();
        }
        c.flush_batch().unwrap();
        assert!(c.route_draw_checks() > 0, "route phase was never checked");
        c.run_load_check().unwrap();
        c.verify_consistency();
    }
}
