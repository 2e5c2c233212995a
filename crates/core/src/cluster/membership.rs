//! Live membership: a server joins the running cluster or drains out of
//! it, and the table entries whose `Map()` owner changed migrate with
//! their tree state intact.

use std::collections::{BTreeMap, BTreeSet};

use clash_keyspace::prefix::Prefix;
use clash_obs::TraceEventKind;
use clash_transport::MessageClass;

use super::ClashCluster;
use crate::error::ClashError;
use crate::latency::ms;
use crate::server::ClashServer;
use crate::table::TableEntry;
use crate::ServerId;

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
}

/// Internal tally of one entry-migration batch.
struct MigrationTally {
    active_groups: usize,
    entries: usize,
    parents_repointed: usize,
    right_children_repointed: usize,
}

impl ClashCluster {
    /// Adds a new server to the *running* cluster: the node joins the
    /// Chord ring through a random bootstrap (its fingers seeded by
    /// lookups routed from its successor), and every table
    /// entry whose `Map()` owner is now the new node — its slice of the
    /// successor's arc — is handed off with an `ACCEPT_KEYGROUP` carrying
    /// full tree state. Ledgers stay keyed by group; migrated queries are
    /// charged as state transfer and migrated sources as redirects, and
    /// every parent/right-child pointer naming a migrated entry's old
    /// holder is re-pointed. Left-child spines move wholesale (they share
    /// the parent entry's virtual key, hence its hash), so merge-ability
    /// is fully preserved — the membership contrast to
    /// [`ClashCluster::fail_server`]'s orphaning recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the identifier is from
    /// another hash space than the cluster's, or is already present in
    /// the ring (alive or crashed).
    pub fn join_server(&mut self, new_id: ServerId) -> Result<JoinReport, ClashError> {
        if new_id.space() != self.config.hash_space {
            return Err(ClashError::InvalidConfig {
                reason: "server id is from another hash space",
            });
        }
        // Barrier: planned probes are charged on the ring they were planned on.
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
        self.wire.msgs.handoff_messages += u64::from(join_msgs) + 1;
        self.servers.insert(ClashServer::new(new_id));
        self.candidates.mark_dirty(new_id.value());
        self.wire.msgs.joins += 1;
        self.obs.trace(|| TraceEventKind::ServerJoined {
            server: new_id.value(),
        });
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
                .live(sid)
                .table()
                .entries()
                .filter(|e| self.map_group(e.group) == new_id)
                .map(|e| e.group)
                .collect();
            for g in groups {
                let entry = self
                    .servers
                    .live_mut(sid)
                    .table_mut()
                    .extract_entry(g)
                    .expect("snapshotted entry");
                to_move.push(entry);
            }
            self.candidates.mark_dirty(sid);
        }
        let tally = self.migrate_entries(successor, to_move)?;
        // Membership changed every successor set around the new node:
        // re-replicate immediately (the join announcement triggers it),
        // like any DHT store would.
        self.replica_work.resync_at.push(new_id);
        self.sync_replicas();
        self.debug_verify();
        Ok(JoinReport {
            joined: new_id,
            groups_received: tally.active_groups,
            entries_received: tally.entries,
            parents_repointed: tally.parents_repointed,
            right_children_repointed: tally.right_children_repointed,
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
        // Barrier: planned probes are charged on the ring they were planned on.
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
        self.candidates.forget(victim.value());
        let entries: Vec<TableEntry> = server.table().entries().cloned().collect();
        // The departure announcement to the ring successor.
        self.wire.msgs.handoff_messages += 1;
        self.wire.msgs.leaves += 1;
        self.obs.trace(|| TraceEventKind::ServerLeft {
            server: victim.value(),
        });
        self.net.remove_node(victim);
        let tally = self.migrate_entries(victim, entries)?;
        // The leaver's held replicas vanished with it: re-replicate
        // immediately so no group waits out a load-check period
        // under-protected.
        self.replica_work.resync_at.push(victim);
        self.sync_replicas();
        self.debug_verify();
        Ok(LeaveReport {
            left: victim,
            groups_transferred: tally.active_groups,
            entries_transferred: tally.entries,
            parents_repointed: tally.parents_repointed,
            right_children_repointed: tally.right_children_repointed,
        })
    }

    /// The servers whose tables can hold a pointer at the holder of one
    /// of `groups`' entries. A parent pointer names the holder of the
    /// entry one level up and a right-child pointer the holder of the
    /// right child, and every entry sits on its group's `Map()` owner
    /// (`verify_consistency` step 5) — so only the `Map()` owners of a
    /// group's parent and two children qualify. Ascending id order.
    pub(super) fn pointer_holders(&self, groups: impl Iterator<Item = Prefix>) -> BTreeSet<u64> {
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
            self.wire.msgs.handoff_messages += 1;
            let handoff = [(from, dest, MessageClass::Handoff)];
            if let Some(latency) = self.wire.send_chain(&handoff) {
                self.wire.latency.handoff.observe(ms(latency));
            }
            let active = entry.active;
            if active {
                if let Some(ledger) = self.data.ledgers.get(&group) {
                    self.wire.count_group_move(ledger);
                }
                self.oracle.insert(group, dest);
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
            self.candidates.mark_dirty(dest.value());
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
                .live_mut(sid)
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
        self.wire.msgs.handoff_messages += (parents_repointed + right_children_repointed) as u64;
        Ok(MigrationTally {
            active_groups,
            entries: entries_n,
            parents_repointed,
            right_children_repointed,
        })
    }
}
