//! Successor-list replication (beyond the paper).
//!
//! With `replication_factor` r > 0, every active key group's entry and
//! ledger is mirrored on the owner's first r alive ring successors
//! (the owner's own successor list — the classic Chord placement).
//! Placement changes are explicit, charged `REPLICATE_KEYGROUP` /
//! `ACK_REPLICA` exchanges; payload freshness piggybacks on the
//! data-plane traffic the harness already aggregates analytically
//! (every ledger mutation refreshes reachable holders for free, the
//! way a real store ships write deltas with the stream itself).
//! Partitions defer placement work exactly like load reports: an
//! unreachable holder is simply skipped and re-seeded by the periodic
//! sync after healing.

use std::collections::BTreeSet;

use clash_keyspace::prefix::Prefix;
use clash_transport::MessageClass;

use super::ClashCluster;
use crate::ServerId;

/// What the next [`ClashCluster::sync_replicas`] has to look at.
#[derive(Debug, Default)]
pub(super) struct ReplicaWork {
    /// Groups whose replica placement needs (re-)ensuring: payload
    /// under-replicated after a partition skip, or holders dropped by a
    /// failed write-through. The next sync re-ensures every group of
    /// these groups' owners; for a complete placement that is a no-op.
    pub(super) dirty: BTreeSet<Prefix>,
    /// Ring positions that joined, left or crashed since the last
    /// `sync_replicas`: the successor sets of their `r` alive ring
    /// predecessors changed, so the next sync re-ensures those owners'
    /// groups (and expires leases if a position is now empty).
    pub(super) resync_at: Vec<ServerId>,
    /// A deferred-recovery retry changed the pending set (or a test
    /// asked for the from-scratch reference): the next `sync_replicas`
    /// runs the whole lease-expiry + placement sweep over every server.
    pub(super) full_sync: bool,
}

impl ClashCluster {
    pub(super) fn replication_enabled(&self) -> bool {
        self.config.replication_factor > 0
    }

    /// Brings `group`'s replica set up to the owner's current successor
    /// list: seeds missing holders (one charged `REPLICATE_KEYGROUP` +
    /// `ACK_REPLICA` round trip each) and invalidates holders that fell
    /// out of the set. Holders already seeded are left alone — their
    /// payloads are kept fresh by the write-through refresh. Unreachable
    /// holders are skipped (soft state; retried next period).
    pub(super) fn ensure_replicas(&mut self, group: Prefix, owner: ServerId) {
        if !self.replication_enabled() {
            return;
        }
        // Owning the primary supersedes any copy this server once held as
        // a ring successor of a previous owner.
        let owner_store = self.servers.live_mut(owner.value()).replica_store_mut();
        owner_store.drop_held(group);
        let previous: Vec<ServerId> = owner_store.placed(group).to_vec();
        let desired = self
            .net
            .alive_successors(owner, self.config.replication_factor);
        let desired_len = desired.len();
        // Built at the first seed: most calls seed nobody, and nothing in
        // the loop touches the ledger, so every holder gets the same copy.
        let mut payload = None;
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
            if self.wire.replica_round_trip(owner, holder) {
                let record = payload
                    .get_or_insert_with(|| self.data.replica_payload(group, owner))
                    .clone();
                self.servers
                    .live_mut(holder.value())
                    .replica_store_mut()
                    .store(group, record);
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
            if fully_placed {
                self.invalidate_holder(group, owner, stale);
            } else {
                placed.push(stale); // retained: still a live replica
            }
        }
        if !fully_placed {
            // A partition deferred part of the set: keep the group on the
            // periodic sync's worklist until placement completes (the
            // historical full sweep retried every group every period).
            self.replica_work.dirty.insert(group);
        }
        self.servers
            .live_mut(owner.value())
            .replica_store_mut()
            .set_placed(group, placed);
    }

    /// One charged invalidation from `owner` to the live `holder`. An
    /// unreachable holder keeps its record.
    fn invalidate_holder(&mut self, group: Prefix, owner: ServerId, holder: ServerId) {
        let invalidation = [(owner, holder, MessageClass::ReplicateKeygroup)];
        if self.wire.send_chain(&invalidation).is_some() {
            self.wire.msgs.replication_messages += 1;
            self.servers
                .live_mut(holder.value())
                .replica_store_mut()
                .drop_held(group);
        }
    }

    /// Invalidates every replica of `group` (the group was split, merged
    /// away, handed off, or dematerialized). One charged invalidation per
    /// reachable holder; unreachable holders keep a stale record that the
    /// periodic lease sweep expires — and that recovery can never promote,
    /// because promotion requires the record's owner to be the crashed
    /// server that actively held the group.
    pub(super) fn invalidate_replicas(&mut self, group: Prefix, owner: ServerId) {
        if !self.replication_enabled() {
            return;
        }
        let Some(owner_server) = self.servers.get_mut(owner.value()) else {
            return;
        };
        let holders = owner_server.replica_store_mut().take_placed(group);
        for holder in holders {
            // Dead holders' copies died with them.
            if self.servers.contains(holder.value()) {
                self.invalidate_holder(group, owner, holder);
            }
        }
        // The group is gone from this owner; whatever retry state it had
        // is obsolete.
        self.replica_work.dirty.remove(&group);
    }

    /// Write-through refresh: pushes the current ledger of `group` to the
    /// holders in the owner's registry. Free of messages — the deltas
    /// piggyback on the data-plane stream the harness aggregates
    /// analytically — but honest about partitions: an unreachable holder
    /// is dropped from the registry (its copy goes stale) and re-seeded
    /// by the periodic sync after healing.
    pub(super) fn refresh_replica_payloads(&mut self, group: Prefix, owner: ServerId) {
        let holders: Vec<ServerId> = self
            .servers
            .live(owner.value())
            .replica_store()
            .placed(group)
            .to_vec();
        if holders.is_empty() {
            return;
        }
        let payload = self.data.replica_payload(group, owner);
        let mut kept = Vec::with_capacity(holders.len());
        for &holder in &holders {
            if self.wire.transport.reachable(owner.value(), holder.value()) {
                if let Some(s) = self.servers.get_mut(holder.value()) {
                    s.replica_store_mut().store(group, payload.clone());
                    kept.push(holder);
                }
            }
        }
        if kept.len() != holders.len() {
            // A holder went unreachable (or died): its copy goes stale and
            // the group needs re-seeding once the periodic sync can reach
            // a replacement.
            self.replica_work.dirty.insert(group);
        }
        self.servers
            .live_mut(owner.value())
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
    /// Which sets: a group outside `ReplicaWork::dirty` has exactly its
    /// owner's `alive_successors` placed (checked by
    /// `verify_consistency`), so its `ensure_replicas` sends nothing
    /// and changes nothing. That leaves the owners of dirty groups, and
    /// after a membership event additionally the `r` alive ring
    /// predecessors of each changed position — the only owners whose
    /// successor set moved. Transport loss and jitter are keyed by each
    /// chain's ordinal, so the sync issues its calls in the whole sweep's
    /// own order (owner id, then table order): it is that sweep minus
    /// provable no-ops.
    pub(super) fn sync_replicas(&mut self) {
        if !self.replication_enabled() {
            return;
        }
        let changed = std::mem::take(&mut self.replica_work.resync_at);
        let whole = std::mem::take(&mut self.replica_work.full_sync);
        let dirty = std::mem::take(&mut self.replica_work.dirty);
        let owners: BTreeSet<u64> = if whole {
            self.net.node_ids().iter().map(|id| id.value()).collect()
        } else {
            let mut owners: BTreeSet<u64> = dirty
                .iter()
                .filter_map(|g| self.oracle.view().get(g))
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
            for server in self.servers.iter_mut() {
                server.replica_store_mut().expire_held(|group, owner| {
                    self.recovery.pending.contains_key(&group) || self.net.is_alive(owner)
                });
            }
        }
        let mut work: Vec<(Prefix, ServerId)> = Vec::new();
        for sid in owners {
            let server = self.servers.live(sid);
            let owner = server.id();
            work.extend(server.table().active_groups().map(|e| (e.group, owner)));
        }
        for (group, owner) in work {
            self.ensure_replicas(group, owner);
        }
    }
}
