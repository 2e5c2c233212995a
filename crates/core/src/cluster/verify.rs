//! The oracle and the consistency sweep: the ground-truth map of active
//! groups ([`Oracle`]), the accessors tests compare protocol results
//! against, and `verify_consistency`, which cross-checks the oracle, the
//! server tables, the ledgers and the replica bookkeeping.

use std::collections::BTreeMap;

use clash_keyspace::cover::{self, PrefixCover};
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_simkernel::collections::DetHashMap;

use super::ClashCluster;
use crate::server::ClashServer;
use crate::ServerId;

/// The global index of active groups and their owners, with the guard
/// that lets replica-based crash recovery *prove* it never consults it:
/// [`Oracle::owner`] reads are counted while recovery is active, and the
/// replication tests pin the counter at zero. The uncounted
/// [`Oracle::view`] is for verification, diagnostics and bookkeeping
/// outside recovery.
pub(super) struct Oracle {
    /// Every active group and its owner. The groups are prefix-free and
    /// change on every split and merge, so a plain ordered map serves:
    /// exact reads and writes in O(log n), and each prefix query a
    /// ground-truth accessor needs is one floor lookup.
    index: BTreeMap<Prefix, ServerId>,
    /// True while crash recovery runs — any [`Oracle::owner`] read in
    /// that window is counted below. With replication enabled the
    /// replica-promotion path must keep the counter at zero; tests and
    /// the availability experiment enforce it.
    pub(super) recovery_active: bool,
    /// Oracle reads observed during crash recovery (see above).
    reads_in_recovery: u64,
}

impl Oracle {
    pub(super) fn new() -> Self {
        Oracle {
            index: BTreeMap::new(),
            recovery_active: false,
            reads_in_recovery: 0,
        }
    }

    /// The owner of `group` (counted while recovery is active; see
    /// [`ClashCluster::recovery_oracle_reads`]).
    pub(super) fn owner(&mut self, group: Prefix) -> Option<ServerId> {
        if self.recovery_active {
            self.reads_in_recovery += 1;
        }
        self.index.get(&group).copied()
    }

    /// The whole index, uncounted — never for crash recovery.
    pub(super) fn view(&self) -> &BTreeMap<Prefix, ServerId> {
        debug_assert!(
            !self.recovery_active,
            "crash recovery read the oracle past its read counter"
        );
        &self.index
    }

    pub(super) fn insert(&mut self, group: Prefix, owner: ServerId) {
        self.index.insert(group, owner);
    }

    pub(super) fn remove(&mut self, group: Prefix) {
        self.index.remove(&group);
    }

    pub(super) fn reads_in_recovery(&self) -> u64 {
        self.reads_in_recovery
    }
}

impl ClashCluster {
    /// The global set of active groups as a prefix cover (the oracle).
    pub fn global_cover(&self) -> PrefixCover {
        let mut cover = PrefixCover::new(self.config.key_width);
        for &p in self.oracle.view().keys() {
            cover.insert(p).expect("global index must be prefix-free");
        }
        cover
    }

    /// Global depth statistics `(min, mean, max)` over active groups.
    pub fn depth_stats(&self) -> Option<(u32, f64, u32)> {
        cover::depth_stats(self.oracle.view().keys().copied())
    }

    /// Ground-truth owner of a key (oracle; no messages). The groups are
    /// prefix-free, so the only one that can contain the key is the last
    /// at or before the key's full-depth group.
    pub fn oracle_locate(&self, key: Key) -> Option<(ServerId, Prefix)> {
        let leaf = Prefix::of_key(key, self.config.key_width.get());
        let (&group, &owner) = self.oracle.view().range(..=leaf).next_back()?;
        group.contains(key).then_some((owner, group))
    }

    /// Ground-truth range scan: every active group intersecting `range`
    /// and its owner, in key order (no messages). With prefix-free groups
    /// that is the one strict ancestor, which would be the last group
    /// before `range`, or else the run of groups inside `range`.
    pub fn oracle_range(&self, range: Prefix) -> Vec<(Prefix, ServerId)> {
        let index = self.oracle.view();
        let ancestor = index
            .range(..range)
            .next_back()
            .filter(|(g, _)| g.is_prefix_of(range));
        let inside = index
            .range(range..)
            .take_while(|(g, _)| range.is_prefix_of(**g));
        ancestor
            .into_iter()
            .chain(inside)
            .map(|(&g, &s)| (g, s))
            .collect()
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
        for (&group, &owner) in self.oracle.view() {
            if self.replica_work.dirty.contains(&group)
                || self.recovery.pending.contains_key(&group)
            {
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

    /// Verifies cluster-wide consistency between the oracle, the server
    /// tables and the ledgers. Cheap enough for tests; called after every
    /// load check in debug builds.
    ///
    /// On failure, the flight recorder's tail is dumped to stderr first
    /// (when a recorder is installed), so the panic arrives with the protocol
    /// decisions that led to it.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency (these are bugs, not runtime errors).
    /// Debug builds also panic on an open locate window.
    pub fn verify_consistency(&self) {
        self.debug_assert_window_closed();
        self.run_with_trace_dump(|c| c.verify_consistency_inner());
    }

    /// Runs `f`; if it panics, dumps the flight-recorder tail to stderr
    /// and re-raises the original panic payload. Pure observation — the
    /// panic (message and all) continues exactly as it would have.
    fn run_with_trace_dump(&self, f: impl FnOnce(&Self)) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        if let Err(payload) = result {
            self.obs.dump_trace_tail();
            std::panic::resume_unwind(payload);
        }
    }

    fn verify_consistency_inner(&self) {
        // 0. The arena holds exactly the ring's alive ids, one server per
        // alive node: the ordered walks below (and `server_ids`,
        // `server_loads`, the full replica sync) read the ring's list and
        // look each id up in the arena.
        let ring = self.net.node_ids();
        assert_eq!(
            self.servers.len(),
            ring.len(),
            "the arena and the ring disagree on how many servers are alive"
        );
        let servers: Vec<&ClashServer> = ring
            .iter()
            .map(|&id| {
                self.servers
                    .get(id.value())
                    .unwrap_or_else(|| panic!("alive ring node {id} has no server"))
            })
            .collect();
        // 1. Global index entries are active on their owners.
        for (&group, &owner) in self.oracle.view() {
            let server = self.server(owner).expect("owner exists");
            let entry = server
                .table()
                .entry(group)
                .unwrap_or_else(|| panic!("{owner} lacks entry for {group}"));
            assert!(entry.active, "{group} on {owner} is not active");
        }
        // 2. Every active entry is in the global index.
        let mut total_active = 0;
        for &server in &servers {
            server.table().check_invariants().expect("table invariants");
            for e in server.table().active_groups() {
                total_active += 1;
                assert_eq!(
                    self.oracle.view().get(&e.group),
                    Some(&server.id()),
                    "active {} on {} missing from oracle",
                    e.group,
                    server.id()
                );
            }
        }
        assert_eq!(total_active, self.oracle.view().len());
        // 3. In CLASH mode the active groups — together with any groups
        // whose crash recovery is deferred behind a partition — partition
        // the key space.
        if self.config.splitting_enabled {
            let mut cover = self.global_cover();
            for &g in self.recovery.pending.keys() {
                cover
                    .insert(g)
                    .expect("deferred groups must be disjoint from the active cover");
            }
            assert!(
                cover.is_partition(),
                "active groups (plus deferred recoveries) do not partition the key space"
            );
        }
        // 4. Ledger membership matches member records both ways: every
        // record sits on its group's ledger at its slot, and each ledger
        // holds as many live members as records name its group — so no
        // ledger lists a member twice or one whose record points elsewhere.
        let data = &self.data;
        let mut records: DetHashMap<Prefix, (usize, usize)> = DetHashMap::default();
        for (&sid, rec) in data.sources.iter() {
            let (group, slot) = (rec.seat.group(), rec.seat.slot);
            assert!(
                group.contains(rec.seat.key()),
                "source {sid}'s key is off {group}"
            );
            let at = data.ledger(group).and_then(|l| l.sources.at(slot));
            assert_eq!(at, Some(sid), "source {sid} is not on {group}");
            records.entry(group).or_default().0 += 1;
        }
        for (&qid, rec) in data.queries.iter() {
            let group = rec.group();
            assert!(
                group.contains(rec.key()),
                "query {qid}'s key is off {group}"
            );
            let at = data.ledger(group).and_then(|l| l.queries.at(rec.slot));
            assert_eq!(at, Some(qid), "query {qid} is not on {group}");
            records.entry(group).or_default().1 += 1;
        }
        for (group, ledger) in &data.ledgers {
            assert_eq!(
                (ledger.sources.len(), ledger.queries.len()),
                records.get(group).copied().unwrap_or_default(),
                "{group}'s ledger and its member records disagree"
            );
        }
        // 5. Every table entry sits on its group's current Map() owner —
        // the placement invariant that membership handoffs (join/leave)
        // and crash recovery must all preserve.
        for &server in &servers {
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
            for (&group, &owner) in self.oracle.view() {
                let owner_server = self.server(owner).expect("owner exists");
                assert!(
                    owner_server.replica_store().held(group).is_none(),
                    "{owner} owns {group} and also holds a replica of it"
                );
                if !self.replica_work.dirty.contains(&group) && !self.chaos_skip_merge_reseed {
                    assert_eq!(
                        owner_server.replica_store().placed(group),
                        self.net
                            .alive_successors(owner, self.config.replication_factor),
                        "{group} is off the sync worklist but not placed on {owner}'s successors"
                    );
                }
                let ledger = self.data.ledger(group);
                for &holder in owner_server.replica_store().placed(group) {
                    let Some(holder_server) = self.server(holder) else {
                        continue; // crashed holder, pruned at next sync
                    };
                    let rec = holder_server
                        .replica_store()
                        .held(group)
                        .unwrap_or_else(|| panic!("{holder} lost its replica of {group}"));
                    assert_eq!(rec.owner, owner, "replica of {group} names a stale owner");
                    let (sources, queries): (Vec<u64>, Vec<u64>) = ledger
                        .map(|l| (l.sources.iter().collect(), l.queries.iter().collect()))
                        .unwrap_or_default();
                    assert_eq!(*rec.sources, sources, "stale replica ledger for {group}");
                    assert_eq!(*rec.queries, queries, "stale replica ledger for {group}");
                }
            }
            for &server in &servers {
                for (group, owner) in server.replica_store().held_owners() {
                    assert!(
                        self.net.is_alive(owner) || self.recovery.pending.contains_key(&group),
                        "{} holds a lease on {group} from departed {owner}",
                        server.id()
                    );
                }
            }
        }
    }

    /// Debug-build consistency sweep, run on every call.
    #[cfg(debug_assertions)]
    pub(super) fn debug_verify(&mut self) {
        self.verify_consistency();
        self.run_with_trace_dump(|c| c.verify_candidate_indices());
    }

    #[cfg(not(debug_assertions))]
    pub(super) fn debug_verify(&mut self) {}
}
