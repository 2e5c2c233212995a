//! Successor-list replication state (beyond the paper's evaluation).
//!
//! The paper delegates fault tolerance to "the DHT's replication" and
//! never specifies it; this module supplies the missing mechanism. With
//! [`crate::config::ClashConfig::replication_factor`] `r > 0`, every
//! *active* key-group entry — together with its ledger (which sources and
//! queries live in the group, at what rate) — is replicated on the first
//! `r` alive ring successors of its owner, the classic Chord/DHash
//! placement. A server therefore keeps two pieces of replication state:
//!
//! * **held replicas** — key-group state this server stores on behalf of
//!   ring predecessors. These are what crash recovery promotes: when an
//!   owner dies, the new ring owner of the group's hash fetches the state
//!   from the first live replica instead of consulting any global oracle.
//! * **placement registry** — for each group this server *owns*, the set
//!   of holders it has successfully seeded. The owner uses it to refresh
//!   payloads, to invalidate replicas when a split/merge/handoff retires
//!   a group, and to know which holders still need seeding after a
//!   partition deferred a `REPLICATE_KEYGROUP`.
//!
//! Both structures are plain data; all message movement (and its
//! accounting) lives in `ClashCluster`, keeping the server I/O-free like
//! the rest of the protocol state.

use std::sync::Arc;

use clash_keyspace::cover::PrefixMap;
use clash_keyspace::key::KeyWidth;
use clash_keyspace::prefix::Prefix;

use crate::ServerId;

/// One replicated key-group: the owner it was seeded by plus the ledger
/// membership needed to resume service (stream clients reconnect to
/// exactly this state after a promotion; rates and loads are recomputed
/// from the surviving client registry at promotion time, so they are
/// deliberately not carried).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    /// The server that owned the group when this replica was last
    /// refreshed. Recovery only ever promotes records whose owner is the
    /// crashed server that actively held the group — a stale record left
    /// behind by a deferred invalidation can never be promoted.
    pub owner: ServerId,
    /// Source ids attached to the group. Shared-snapshot semantics: the
    /// owner's write-through hands every holder the same `Arc`, so
    /// seeding `r` replicas never deep-clones the ledger (the ledger
    /// copies-on-write at its next mutation instead).
    pub sources: Arc<Vec<u64>>,
    /// Continuous-query ids attached to the group (same sharing).
    pub queries: Arc<Vec<u64>>,
}

/// A server's replication state: replicas held for peers, plus the
/// placement registry for its own groups (see the module docs).
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    held: PrefixMap<ReplicaRecord>,
    placed: PrefixMap<Vec<ServerId>>,
}

impl ReplicaStore {
    /// Creates an empty store for groups of `width`-bit keys.
    pub fn new(width: KeyWidth) -> Self {
        ReplicaStore {
            held: PrefixMap::new(width),
            placed: PrefixMap::new(width),
        }
    }

    // ----- held replicas (this server as a successor holder) -----------

    /// The replica held for `group`, if any.
    pub fn held(&self, group: Prefix) -> Option<&ReplicaRecord> {
        self.held.get(group)
    }

    /// Stores (or refreshes) a replica for `group`.
    pub fn store(&mut self, group: Prefix, record: ReplicaRecord) {
        self.held.insert(group, record);
    }

    /// Drops the replica held for `group`. Returns it if present.
    pub fn drop_held(&mut self, group: Prefix) -> Option<ReplicaRecord> {
        self.held.remove(group)
    }

    /// Number of replicas held for peers.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Groups whose held replica names `owner` as its owner.
    pub fn held_owned_by(&self, owner: ServerId) -> Vec<Prefix> {
        self.held
            .iter()
            .filter(|(_, r)| r.owner == owner)
            .map(|(g, _)| g)
            .collect()
    }

    /// Every held replica's group and the owner it names.
    pub(crate) fn held_owners(&self) -> impl Iterator<Item = (Prefix, ServerId)> + '_ {
        self.held.iter().map(|(g, r)| (g, r.owner))
    }

    /// Drops held replicas failing `keep(group, owner)` — the local lease
    /// expiry run during periodic maintenance. Returns how many expired.
    pub fn expire_held<F: Fn(Prefix, ServerId) -> bool>(&mut self, keep: F) -> usize {
        if self.held.is_empty() {
            return 0;
        }
        let stale: Vec<Prefix> = self
            .held
            .iter()
            .filter(|(g, r)| !keep(*g, r.owner))
            .map(|(g, _)| g)
            .collect();
        for g in &stale {
            self.held.remove(*g);
        }
        stale.len()
    }

    // ----- placement registry (this server as an owner) ----------------

    /// The holders this owner has successfully seeded for `group`.
    pub fn placed(&self, group: Prefix) -> &[ServerId] {
        self.placed.get(group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Replaces the seeded-holder set of `group` (empty clears it).
    pub fn set_placed(&mut self, group: Prefix, holders: Vec<ServerId>) {
        if holders.is_empty() {
            self.placed.remove(group);
        } else {
            self.placed.insert(group, holders);
        }
    }

    /// Removes and returns the seeded-holder set of `group`.
    pub fn take_placed(&mut self, group: Prefix) -> Vec<ServerId> {
        self.placed.remove(group).unwrap_or_default()
    }

    /// Groups this owner currently has replicas placed for.
    pub fn placed_groups(&self) -> Vec<Prefix> {
        self.placed.prefixes().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::hash::HashSpace;

    fn sid(v: u64) -> ServerId {
        ServerId::new(v, HashSpace::new(16).unwrap())
    }

    fn p(s: &str) -> Prefix {
        Prefix::parse(s, 8).unwrap()
    }

    fn rec(owner: u64) -> ReplicaRecord {
        ReplicaRecord {
            owner: sid(owner),
            sources: Arc::new(vec![1, 2]),
            queries: Arc::new(vec![9]),
        }
    }

    #[test]
    fn held_replica_roundtrip() {
        let mut store = ReplicaStore::new(KeyWidth::new(8).unwrap());
        assert_eq!(store.held_count(), 0);
        store.store(p("01*"), rec(5));
        store.store(p("10*"), rec(7));
        assert_eq!(store.held_count(), 2);
        assert_eq!(store.held(p("01*")).unwrap().owner, sid(5));
        assert_eq!(store.held_owned_by(sid(7)), vec![p("10*")]);
        assert_eq!(store.held_owned_by(sid(99)), Vec::<Prefix>::new());
        // A refresh overwrites in place.
        store.store(p("01*"), rec(6));
        assert_eq!(store.held(p("01*")).unwrap().owner, sid(6));
        assert_eq!(store.held_count(), 2);
        assert!(store.drop_held(p("01*")).is_some());
        assert!(store.drop_held(p("01*")).is_none());
    }

    #[test]
    fn expire_held_applies_lease_predicate() {
        let mut store = ReplicaStore::new(KeyWidth::new(8).unwrap());
        store.store(p("01*"), rec(5));
        store.store(p("10*"), rec(7));
        store.store(p("11*"), rec(5));
        let expired = store.expire_held(|_, owner| owner == sid(7));
        assert_eq!(expired, 2);
        assert_eq!(store.held_count(), 1);
        assert!(store.held(p("10*")).is_some());
    }

    #[test]
    fn placement_registry_roundtrip() {
        let mut store = ReplicaStore::new(KeyWidth::new(8).unwrap());
        assert!(store.placed(p("01*")).is_empty());
        store.set_placed(p("01*"), vec![sid(3), sid(4)]);
        assert_eq!(store.placed(p("01*")), &[sid(3), sid(4)]);
        assert_eq!(store.placed_groups(), vec![p("01*")]);
        assert_eq!(store.take_placed(p("01*")), vec![sid(3), sid(4)]);
        assert!(store.placed_groups().is_empty());
        // Setting an empty holder set clears the entry.
        store.set_placed(p("01*"), vec![sid(3)]);
        store.set_placed(p("01*"), Vec::new());
        assert!(store.placed_groups().is_empty());
    }
}
