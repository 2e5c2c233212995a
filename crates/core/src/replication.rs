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
//!
//! **Layout.** Each structure is a [`PrefixMap`]: one vector kept sorted
//! by [`Prefix`]'s `Ord`, so every iteration visits groups in
//! binary-string order. Nothing here needs a prefix operation: a lookup is a binary search over a few contiguous
//! entries, and the lease-expiry walk that every departure runs over
//! every server is one `retain` per store. A store holds about `r ×
//! groups / servers` groups, so the shifts an insert or remove costs
//! stay within a line or two.

use std::sync::Arc;

use clash_keyspace::cover::PrefixMap;
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
    /// Source ids attached to the group, live members in ledger order.
    /// While the group's member list holds no tombstone this is the
    /// list's own shared `Arc`, so seeding `r` holders never deep-clones
    /// the ledger (the ledger copies-on-write at its next mutation); a
    /// payload taken while the list holds a tombstone is a fresh copy of
    /// the live members, shared by every holder seeded from it.
    pub sources: Arc<Vec<u64>>,
    /// Continuous-query ids attached to the group (same sharing rule).
    pub queries: Arc<Vec<u64>>,
}

/// A server's replication state: replicas held for peers, plus the
/// placement registry for its own groups (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReplicaStore {
    held: PrefixMap<ReplicaRecord>,
    placed: PrefixMap<Vec<ServerId>>,
}

impl ReplicaStore {
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
        let before = self.held.len();
        self.held.retain(|g, r| keep(g, r.owner));
        before - self.held.len()
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
        self.placed.iter().map(|(g, _)| g).collect()
    }
}

/// A model of the store, correct by definition and sharing no code with
/// the sorted vectors: one `BTreeMap` per structure.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    #[derive(Default)]
    pub(super) struct ModelReplicaStore {
        held: BTreeMap<Prefix, ReplicaRecord>,
        placed: BTreeMap<Prefix, Vec<ServerId>>,
    }

    impl ModelReplicaStore {
        pub(super) fn held(&self, group: Prefix) -> Option<&ReplicaRecord> {
            self.held.get(&group)
        }

        pub(super) fn store(&mut self, group: Prefix, record: ReplicaRecord) {
            self.held.insert(group, record);
        }

        pub(super) fn drop_held(&mut self, group: Prefix) -> Option<ReplicaRecord> {
            self.held.remove(&group)
        }

        pub(super) fn held_count(&self) -> usize {
            self.held.len()
        }

        pub(super) fn held_owned_by(&self, owner: ServerId) -> Vec<Prefix> {
            self.held
                .iter()
                .filter(|(_, r)| r.owner == owner)
                .map(|(&g, _)| g)
                .collect()
        }

        pub(super) fn held_owners(&self) -> Vec<(Prefix, ServerId)> {
            self.held.iter().map(|(&g, r)| (g, r.owner)).collect()
        }

        pub(super) fn expire_held<F: Fn(Prefix, ServerId) -> bool>(&mut self, keep: F) -> usize {
            let before = self.held.len();
            self.held.retain(|&g, r| keep(g, r.owner));
            before - self.held.len()
        }

        pub(super) fn placed(&self, group: Prefix) -> &[ServerId] {
            self.placed.get(&group).map(Vec::as_slice).unwrap_or(&[])
        }

        pub(super) fn set_placed(&mut self, group: Prefix, holders: Vec<ServerId>) {
            if holders.is_empty() {
                self.placed.remove(&group);
            } else {
                self.placed.insert(group, holders);
            }
        }

        pub(super) fn take_placed(&mut self, group: Prefix) -> Vec<ServerId> {
            self.placed.remove(&group).unwrap_or_default()
        }

        pub(super) fn placed_groups(&self) -> Vec<Prefix> {
            self.placed.keys().copied().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ModelReplicaStore;
    use super::*;
    use clash_keyspace::hash::HashSpace;
    use clash_keyspace::key::KeyWidth;
    use proptest::prelude::*;

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
        let mut store = ReplicaStore::default();
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
        let mut store = ReplicaStore::default();
        store.store(p("01*"), rec(5));
        store.store(p("10*"), rec(7));
        store.store(p("11*"), rec(5));
        let expired = store.expire_held(|_, owner| owner == sid(7));
        assert_eq!(expired, 2);
        assert_eq!(store.held_count(), 1);
        assert!(store.held(p("10*")).is_some());
    }

    #[test]
    fn expire_held_keeps_ancestor_and_descendant_in_trie_order() {
        // A split parent's deferred stale copy (`01*`) beside its child
        // (`0110*`), stored out of order.
        let mut store = ReplicaStore::default();
        store.store(p("1*"), rec(7));
        store.store(p("0110*"), rec(7));
        store.store(p("0111*"), rec(5));
        store.store(p("01*"), rec(7));
        store.store(p("00*"), rec(5));
        assert_eq!(store.expire_held(|_, owner| owner == sid(7)), 2);
        let survivors: Vec<(Prefix, ServerId)> = store.held_owners().collect();
        assert_eq!(
            survivors,
            vec![(p("01*"), sid(7)), (p("0110*"), sid(7)), (p("1*"), sid(7))]
        );
        assert_eq!(store.held_owned_by(sid(5)), Vec::<Prefix>::new());
    }

    #[test]
    fn placement_registry_roundtrip() {
        let mut store = ReplicaStore::default();
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

    /// Every group of depth ≤ 4 plus two full-width keys under `0110*`:
    /// ancestors and descendants of one another at every depth.
    fn groups() -> Vec<Prefix> {
        let mut all: Vec<Prefix> = (0..=4u32)
            .flat_map(|d| (0..1u64 << d).map(move |bits| (bits, d)))
            .map(|(bits, d)| Prefix::new(bits, d, KeyWidth::new(8).unwrap()).unwrap())
            .collect();
        all.push(p("01100101"));
        all.push(p("01101110"));
        all
    }

    fn assert_same(store: &ReplicaStore, model: &ModelReplicaStore, groups: &[Prefix]) {
        assert_eq!(store.held_count(), model.held_count(), "held count");
        let owners: Vec<(Prefix, ServerId)> = store.held_owners().collect();
        assert_eq!(owners, model.held_owners(), "held order");
        for owner in 0..4 {
            assert_eq!(
                store.held_owned_by(sid(owner)),
                model.held_owned_by(sid(owner))
            );
        }
        assert_eq!(store.placed_groups(), model.placed_groups(), "placed order");
        for &g in groups {
            assert_eq!(store.held(g), model.held(g), "held {g}");
            assert_eq!(store.placed(g), model.placed(g), "placed {g}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn replica_store_matches_model(
            ops in prop::collection::vec((0u8..7, 0u64..u64::MAX, 0u64..u64::MAX), 1..200),
        ) {
            let groups = groups();
            let mut store = ReplicaStore::default();
            let mut model = ModelReplicaStore::default();
            for (op, a, b) in ops {
                let group = groups[a as usize % groups.len()];
                match op {
                    0 | 1 => {
                        // A fresh or refreshed copy; four owners so the
                        // per-owner filters and the lease predicate bite.
                        let record = ReplicaRecord {
                            owner: sid(b % 4),
                            sources: Arc::new(vec![b, a]),
                            queries: Arc::new(vec![b >> 8]),
                        };
                        store.store(group, record.clone());
                        model.store(group, record);
                    }
                    2 => prop_assert_eq!(store.drop_held(group), model.drop_held(group)),
                    3 => {
                        // Expire by owner (a departed server) and by group
                        // bits (a pending recovery keeps its lease).
                        let keep = |g: Prefix, owner: ServerId| {
                            owner.value() != b % 4 || (g.pattern() ^ (b >> 2)) & 1 == 0
                        };
                        prop_assert_eq!(store.expire_held(keep), model.expire_held(keep));
                    }
                    4 | 5 => {
                        // One in three sets clear the entry.
                        let holders: Vec<ServerId> = (0..b % 3).map(|h| sid(h + a % 5)).collect();
                        store.set_placed(group, holders.clone());
                        model.set_placed(group, holders);
                    }
                    _ => prop_assert_eq!(store.take_placed(group), model.take_placed(group)),
                }
                assert_same(&store, &model, &groups);
            }
        }
    }
}
