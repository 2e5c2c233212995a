//! The data plane: which streaming sources and continuous queries sit in
//! which key group (the per-group *ledgers*), and the member records
//! that point back at them. Splits, merges and recoveries repartition it
//! without touching a server, the ring or the transport.
//!
//! Every client op looks a record and a ledger up by key, so both are
//! hashed ([`DetHashMap`] / [`ShardedMap`]) — an ordered map's tree walk
//! was a third of a key change's wall. Order survives only where it
//! reaches a result: a ledger's member order (it feeds `split`'s rate
//! sums, replica payloads and recovered ledgers), the ascending id
//! lists [`DataPlane::membership`] sorts, and the ascending push order
//! [`DataPlane::unqueue`] sorts.
//!
//! A member leaves its list in O(1) and the order holds: each record
//! keeps its `slot` in its ledger's [`Members`], a departure overwrites
//! that slot with a tombstone, and once tombstones outnumber the live
//! members the list is compacted in order and the survivors' slots are
//! rewritten. Live iteration sees exactly what an order-preserving
//! `Vec::remove` would have left — never `swap_remove`'s order.
//! Tombstones never leave this module: `verify_consistency`,
//! `count_group_move` and replica payloads see live members only.
//!
//! The `BTreeMap` layout the hashed maps replaced, and the scan-and-shift
//! exit the tombstones replaced, are kept below as differential
//! references.

use std::sync::Arc;

use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;
use clash_simkernel::collections::{DetHashMap, ShardedMap};

use crate::load::GroupLoad;
use crate::replication::ReplicaRecord;
use crate::ServerId;

/// What a member list writes over a departed member's slot. No record
/// ever carries it: [`DataPlane::source_refusal`] and
/// [`DataPlane::query_refusal`] refuse it as a new id, so every other
/// `u64` stays attachable.
const TOMBSTONE: u64 = u64::MAX;

/// A member list compacts once it holds at least this many tombstones
/// *and* more tombstones than live members, so it never holds more than
/// `max(2 × live, live + 15)` slots. The floor spares small groups a
/// compaction every few exits. Measured against the bare `dead > live`
/// rule on the benchmark's default seed: on `fig4_static` (a departed
/// group holds 765 members on average) it never binds, and on
/// `storm_lossy` (77) it cuts compactions from 447 to 151.
const COMPACT_MIN_DEAD: usize = 16;

/// A ledger's member ids in attach order, with O(1) exits (see the
/// module docs). The slots live behind an `Arc` so a tombstone-free list
/// is a replica payload as it stands: seeding `r` holders shares one
/// allocation, and a later mutation copies-on-write only if a replica
/// still holds the old snapshot (at `r = 0` the `Arc` is never shared,
/// so `make_mut` never copies).
#[derive(Debug, Clone, Default)]
pub(super) struct Members {
    slots: Arc<Vec<u64>>,
    dead: usize,
}

impl Members {
    /// The number of live members.
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live members, in order.
    pub(super) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&id| id != TOMBSTONE)
    }

    /// The live member at `slot`, if there is one.
    pub(super) fn at(&self, slot: u32) -> Option<u64> {
        let id = *self.slots.get(slot as usize)?;
        (id != TOMBSTONE).then_some(id)
    }

    /// Appends `id`. Returns its slot.
    fn push(&mut self, id: u64) -> u32 {
        debug_assert_ne!(id, TOMBSTONE, "the tombstone is never attached");
        let slots = Arc::make_mut(&mut self.slots);
        let slot = u32::try_from(slots.len()).expect("a member list holds under 2^32 slots");
        slots.push(id);
        slot
    }

    /// Takes `id` out of its `slot`. If that leaves the list due for
    /// compaction, `moved(id, slot)` hears of every survivor whose slot
    /// changed.
    fn remove(&mut self, slot: u32, id: u64, moved: impl FnMut(u64, u32)) {
        let slots = Arc::make_mut(&mut self.slots);
        debug_assert_eq!(
            slots.get(slot as usize),
            Some(&id),
            "{id} is not at its slot"
        );
        slots[slot as usize] = TOMBSTONE;
        self.dead += 1;
        if self.dead >= COMPACT_MIN_DEAD && self.dead > self.len() {
            self.compact(moved);
        }
    }

    /// Drops the tombstones, keeping the survivors' order.
    fn compact(&mut self, mut moved: impl FnMut(u64, u32)) {
        let slots = Arc::make_mut(&mut self.slots);
        let first_dead = slots
            .iter()
            .position(|&id| id == TOMBSTONE)
            .unwrap_or(slots.len());
        slots.retain(|&id| id != TOMBSTONE);
        for (slot, &id) in slots.iter().enumerate().skip(first_dead) {
            moved(id, slot as u32);
        }
        self.dead = 0;
    }

    /// The live members as a replica payload: the shared slots themselves
    /// while they hold no tombstone (O(1)), otherwise a copy in order.
    fn snapshot(&self) -> Arc<Vec<u64>> {
        if self.dead == 0 {
            Arc::clone(&self.slots)
        } else {
            let mut live = Vec::with_capacity(self.len());
            live.extend(self.iter());
            Arc::new(live)
        }
    }
}

/// Per-group data-plane state.
#[derive(Debug, Clone, Default)]
pub(super) struct GroupLedger {
    pub(super) sources: Members,
    pub(super) queries: Members,
    rate: f64,
    /// The group sits in the locate window's deferred-push list
    /// ([`DataPlane::queue_push`]): a second op on it adds nothing.
    queued: bool,
}

impl GroupLedger {
    pub(super) fn load(&self) -> GroupLoad {
        GroupLoad {
            data_rate: self.rate,
            queries: self.queries.len() as u64,
        }
    }
}

/// Where a member sits: its key and its group, in 16 bytes. A member's
/// group always holds its key — an attach puts the key on the group its
/// locate found, and a split, merge or restore moves it only to the
/// child, parent or group that holds it too — so the group is
/// `Prefix::of_key(key, depth)` and the seat keeps the depth alone,
/// where a 16-byte `Prefix` would repeat the key's bits and width.
#[derive(Debug, Clone, Copy)]
pub(super) struct Seat {
    key_bits: u64,
    /// Where the member sits in its group's member list.
    pub(super) slot: u32,
    /// The group's depth and the key's width.
    depth: u8,
    width: u8,
}

impl Seat {
    fn new(key: Key, group: Prefix, slot: u32) -> Self {
        let mut seat = Seat {
            key_bits: key.bits(),
            slot,
            depth: 0,
            width: key.width().get() as u8,
        };
        seat.move_to(group);
        seat
    }

    pub(super) fn key(&self) -> Key {
        let width = KeyWidth::new(u32::from(self.width)).expect("a seat holds a valid width");
        Key::from_bits_truncated(self.key_bits, width)
    }

    /// The member's group.
    pub(super) fn group(&self) -> Prefix {
        Prefix::of_key(self.key(), u32::from(self.depth))
    }

    /// Moves the member to `group`, which must hold its key.
    fn move_to(&mut self, group: Prefix) {
        debug_assert!(group.contains(self.key()), "{group} does not hold the key");
        self.depth = group.depth() as u8;
    }
}

/// A source's record: its seat and its rate, 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct SourceRec {
    pub(super) seat: Seat,
    rate: f64,
}

/// A query's record: its seat alone.
pub(super) type QueryRec = Seat;

/// The surviving client registry for a set of groups: per group, the
/// source ids and query ids still pointing at it, each list ascending.
pub(super) type ClientMembership = DetHashMap<Prefix, (Vec<u64>, Vec<u64>)>;

/// The ledgers and member records (see the module docs).
#[derive(Debug, Default)]
pub(super) struct DataPlane {
    pub(super) ledgers: DetHashMap<Prefix, GroupLedger>,
    pub(super) sources: ShardedMap<u64, SourceRec>,
    pub(super) queries: ShardedMap<u64, QueryRec>,
}

impl DataPlane {
    /// The ledger of `group`, if it has one.
    pub(super) fn ledger(&self, group: Prefix) -> Option<&GroupLedger> {
        self.ledgers.get(&group)
    }

    /// Gives `group` a fresh, empty ledger (a bootstrapped or
    /// materialized group).
    pub(super) fn open_group(&mut self, group: Prefix) {
        self.ledgers.insert(group, GroupLedger::default());
    }

    /// The ledger of `group`, created empty if missing.
    pub(super) fn ledger_or_default(&mut self, group: Prefix) -> &GroupLedger {
        self.ledgers.entry(group).or_default()
    }

    /// Drops `group`'s ledger if it has no members left. True if it did.
    pub(super) fn close_group_if_empty(&mut self, group: Prefix) -> bool {
        let empty = self
            .ledgers
            .get(&group)
            .is_some_and(|l| l.sources.is_empty() && l.queries.is_empty());
        if empty {
            self.ledgers.remove(&group);
        }
        empty
    }

    /// Why `id` cannot be attached as a new source, if it cannot.
    pub(super) fn source_refusal(&self, id: u64) -> Option<&'static str> {
        if id == TOMBSTONE {
            Some("source id u64::MAX is reserved")
        } else if self.sources.contains_key(id) {
            Some("source id already attached")
        } else {
            None
        }
    }

    /// Why `id` cannot be attached as a new query, if it cannot.
    pub(super) fn query_refusal(&self, id: u64) -> Option<&'static str> {
        if id == TOMBSTONE {
            Some("query id u64::MAX is reserved")
        } else if self.queries.contains_key(id) {
            Some("query id already attached")
        } else {
            None
        }
    }

    /// Adds source `id` to `group` at `rate`.
    pub(super) fn attach_source(&mut self, id: u64, key: Key, rate: f64, group: Prefix) {
        let slot = self.link_source(id, rate, group);
        let rec = SourceRec {
            seat: Seat::new(key, group, slot),
            rate,
        };
        self.sources.insert(id, rec);
    }

    /// Removes source `id`. Returns the group it left.
    pub(super) fn detach_source(&mut self, id: u64) -> Option<Prefix> {
        let rec = self.sources.remove(id)?;
        self.unlink(id, rec);
        Some(rec.seat.group())
    }

    /// The first half of a key change: takes source `id` off its group's
    /// ledger but keeps its record for [`DataPlane::relink_source`] (or
    /// [`DataPlane::forget_source`] if the re-locate fails). Returns the
    /// group it left and its rate.
    pub(super) fn unlink_source(&mut self, id: u64) -> Option<(Prefix, f64)> {
        let rec = *self.sources.get(id)?;
        self.unlink(id, rec);
        Some((rec.seat.group(), rec.rate))
    }

    /// Puts an unlinked source on `group`'s ledger, rewriting its record
    /// in place.
    pub(super) fn relink_source(&mut self, id: u64, key: Key, rate: f64, group: Prefix) {
        let slot = self.link_source(id, rate, group);
        *self
            .sources
            .get_mut(id)
            .expect("an unlinked source keeps its record") = SourceRec {
            seat: Seat::new(key, group, slot),
            rate,
        };
    }

    /// Drops the record of an unlinked source.
    pub(super) fn forget_source(&mut self, id: u64) {
        self.sources.remove(id);
    }

    fn link_source(&mut self, id: u64, rate: f64, group: Prefix) -> u32 {
        let ledger = self.ledgers.entry(group).or_default();
        ledger.rate += rate;
        ledger.sources.push(id)
    }

    /// Takes source `id`, recorded as `rec`, off its group's ledger.
    fn unlink(&mut self, id: u64, rec: SourceRec) {
        let ledger = self
            .ledgers
            .get_mut(&rec.seat.group())
            .expect("attached source has a ledger");
        let sources = &mut self.sources;
        ledger.sources.remove(rec.seat.slot, id, |moved, slot| {
            sources
                .get_mut(moved)
                .expect("ledger member exists")
                .seat
                .slot = slot;
        });
        ledger.rate = (ledger.rate - rec.rate).max(0.0);
    }

    /// Adds query `id` to `group`.
    pub(super) fn attach_query(&mut self, id: u64, key: Key, group: Prefix) {
        let slot = self.ledgers.entry(group).or_default().queries.push(id);
        self.queries.insert(id, Seat::new(key, group, slot));
    }

    /// Removes query `id`. Returns the group it left.
    pub(super) fn detach_query(&mut self, id: u64) -> Option<Prefix> {
        let rec = self.queries.remove(id)?;
        let group = rec.group();
        let ledger = self
            .ledgers
            .get_mut(&group)
            .expect("attached query has a ledger");
        let queries = &mut self.queries;
        ledger.queries.remove(rec.slot, id, |moved, slot| {
            queries.get_mut(moved).expect("ledger member exists").slot = slot;
        });
        Some(group)
    }

    /// Queues `group`'s deferred load push on `touched` unless it is
    /// already there.
    pub(super) fn queue_push(&mut self, group: Prefix, touched: &mut Vec<Prefix>) {
        let ledger = self
            .ledgers
            .get_mut(&group)
            .expect("a client op's group has a ledger");
        if !ledger.queued {
            ledger.queued = true;
            touched.push(group);
        }
    }

    /// Puts the deferred pushes in ascending group order (the order they
    /// are pushed in) and clears their flags.
    pub(super) fn unqueue(&mut self, touched: &mut [Prefix]) {
        touched.sort_unstable();
        for group in touched.iter() {
            if let Some(ledger) = self.ledgers.get_mut(group) {
                ledger.queued = false;
            }
        }
    }

    /// The current ledger of `group` as a replica payload, live members
    /// only. O(1) while the member lists hold no tombstone: they are
    /// shared `Arc` snapshots, cloned per holder by reference count only
    /// — the write-through path copies-on-write at the *next* ledger
    /// mutation instead of deep-cloning per seed.
    pub(super) fn replica_payload(&self, group: Prefix, owner: ServerId) -> ReplicaRecord {
        let ledger = self.ledgers.get(&group);
        ReplicaRecord {
            owner,
            sources: ledger.map(|l| l.sources.snapshot()).unwrap_or_default(),
            queries: ledger.map(|l| l.queries.snapshot()).unwrap_or_default(),
        }
    }

    /// Repartitions the ledger of `group` between its two children by the
    /// key bit at the split depth, updating member records. Returns the
    /// children's loads.
    pub(super) fn split(
        &mut self,
        group: Prefix,
        left: Prefix,
        right: Prefix,
    ) -> (GroupLoad, GroupLoad) {
        let ledger = self.ledgers.remove(&group).unwrap_or_default();
        let bit_index = group.depth();
        let mut children = [GroupLedger::default(), GroupLedger::default()];
        for sid in ledger.sources.iter() {
            let rec = self.sources.get_mut(sid).expect("ledger member exists");
            let side = usize::from(rec.seat.key().bit(bit_index));
            rec.seat.move_to([left, right][side]);
            children[side].rate += rec.rate;
            rec.seat.slot = children[side].sources.push(sid);
        }
        for qid in ledger.queries.iter() {
            let rec = self.queries.get_mut(qid).expect("ledger member exists");
            let side = usize::from(rec.key().bit(bit_index));
            rec.move_to([left, right][side]);
            rec.slot = children[side].queries.push(qid);
        }
        let [left_ledger, right_ledger] = children;
        let loads = (left_ledger.load(), right_ledger.load());
        self.ledgers.insert(left, left_ledger);
        self.ledgers.insert(right, right_ledger);
        loads
    }

    /// Folds the ledgers of `left` and `right` back into `parent`'s,
    /// left members first: the left list stays as it is, and the right
    /// child's members append after it at new slots.
    pub(super) fn merge(&mut self, left: Prefix, right: Prefix, parent: Prefix) {
        let mut merged = self.ledgers.remove(&left).unwrap_or_default();
        let right_ledger = self.ledgers.remove(&right).unwrap_or_default();
        merged.rate += right_ledger.rate;
        for sid in merged.sources.iter() {
            self.sources
                .get_mut(sid)
                .expect("ledger member exists")
                .seat
                .move_to(parent);
        }
        for qid in merged.queries.iter() {
            self.queries
                .get_mut(qid)
                .expect("ledger member exists")
                .move_to(parent);
        }
        for sid in right_ledger.sources.iter() {
            let rec = self.sources.get_mut(sid).expect("ledger member exists");
            rec.seat.move_to(parent);
            rec.seat.slot = merged.sources.push(sid);
        }
        for qid in right_ledger.queries.iter() {
            let rec = self.queries.get_mut(qid).expect("ledger member exists");
            rec.move_to(parent);
            rec.slot = merged.queries.push(qid);
        }
        self.ledgers.insert(parent, merged);
    }

    /// The surviving client registry for `groups`: which sources and
    /// queries still point at each (clients outlive their servers; their
    /// attachments may not). One scan per recovery event; the registry
    /// is hashed, so each list is sorted after.
    pub(super) fn membership(&self, groups: impl Iterator<Item = Prefix>) -> ClientMembership {
        let mut map: ClientMembership = groups.map(|g| (g, (Vec::new(), Vec::new()))).collect();
        if map.is_empty() {
            return map;
        }
        for (&sid, rec) in self.sources.iter() {
            if let Some(slot) = map.get_mut(&rec.seat.group()) {
                slot.0.push(sid);
            }
        }
        for (&qid, rec) in self.queries.iter() {
            if let Some(slot) = map.get_mut(&rec.group()) {
                slot.1.push(qid);
            }
        }
        for (sources, queries) in map.values_mut() {
            sources.sort_unstable();
            queries.sort_unstable();
        }
        map
    }

    /// Re-installs `group`'s ledger after its owner crashed, from the
    /// promoted `replica`'s member lists (`None`: every copy died)
    /// reconciled against `live`, the group's surviving client registry
    /// as [`DataPlane::membership`] returns it: attachments the replica
    /// never saw (a partition starved its write-through) died with the
    /// owner and are dropped from the registry, and replica members that
    /// detached meanwhile drop out. Returns the sources and queries
    /// dropped.
    pub(super) fn restore(
        &mut self,
        group: Prefix,
        replica: Option<&ReplicaRecord>,
        live: &(Vec<u64>, Vec<u64>),
    ) -> (usize, usize) {
        let (live_sources, live_queries) = live;
        let survivors = |members: Option<&Arc<Vec<u64>>>, live: &[u64]| -> Vec<u64> {
            members.map_or_else(Vec::new, |m| {
                m.iter()
                    .copied()
                    .filter(|id| live.binary_search(id).is_ok())
                    .collect()
            })
        };
        let sources = survivors(replica.map(|r| &r.sources), live_sources);
        let queries = survivors(replica.map(|r| &r.queries), live_queries);
        let mut lost = (0, 0);
        for &s in live_sources {
            if !sources.contains(&s) {
                self.sources.remove(s);
                lost.0 += 1;
            }
        }
        for &q in live_queries {
            if !queries.contains(&q) {
                self.queries.remove(q);
                lost.1 += 1;
            }
        }
        let rate = match replica {
            Some(_) => sources
                .iter()
                .map(|&s| self.sources.get(s).expect("survivors are attached").rate)
                .sum(),
            None => 0.0,
        };
        let mut ledger = GroupLedger {
            rate,
            ..GroupLedger::default()
        };
        for s in sources {
            let rec = self.sources.get_mut(s).expect("survivors are attached");
            rec.seat.slot = ledger.sources.push(s);
        }
        for q in queries {
            let rec = self.queries.get_mut(q).expect("survivors are attached");
            rec.slot = ledger.queries.push(q);
        }
        self.ledgers.insert(group, ledger);
        lost
    }
}

/// The ordered layout the hashed one replaced, kept as the differential
/// reference: `BTreeMap` registry and ledger map, plain `Vec` member
/// lists that members leave by [`reference::remove_member`], deferred
/// pushes in a `BTreeSet`.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    /// The exit [`Members`] replaced, kept as its differential target:
    /// find the id, then shift every later member down over it.
    pub(super) fn remove_member(members: &mut Vec<u64>, id: u64) {
        if let Some(at) = members.iter().position(|&m| m == id) {
            members.remove(at);
        }
    }

    #[derive(Debug, Clone, Default)]
    pub(super) struct RefLedger {
        pub(super) sources: Vec<u64>,
        pub(super) queries: Vec<u64>,
        pub(super) rate: f64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct RefSource {
        pub(super) key: Key,
        pub(super) rate: f64,
        pub(super) group: Prefix,
    }

    #[derive(Debug, Clone)]
    pub(super) struct RefQuery {
        pub(super) key: Key,
        pub(super) group: Prefix,
    }

    #[derive(Debug, Default)]
    pub(super) struct RefDataPlane {
        pub(super) ledgers: BTreeMap<Prefix, RefLedger>,
        pub(super) sources: BTreeMap<u64, RefSource>,
        pub(super) queries: BTreeMap<u64, RefQuery>,
        pub(super) touched: BTreeSet<Prefix>,
    }

    impl RefDataPlane {
        pub(super) fn open_group(&mut self, group: Prefix) {
            self.ledgers.insert(group, RefLedger::default());
        }

        pub(super) fn attach_source(&mut self, id: u64, key: Key, rate: f64, group: Prefix) {
            let ledger = self.ledgers.entry(group).or_default();
            ledger.sources.push(id);
            ledger.rate += rate;
            self.sources.insert(id, RefSource { key, rate, group });
        }

        pub(super) fn detach_source(&mut self, id: u64) -> Option<Prefix> {
            let rec = self.sources.remove(&id)?;
            let ledger = self.ledgers.get_mut(&rec.group).unwrap();
            remove_member(&mut ledger.sources, id);
            ledger.rate = (ledger.rate - rec.rate).max(0.0);
            Some(rec.group)
        }

        pub(super) fn attach_query(&mut self, id: u64, key: Key, group: Prefix) {
            self.ledgers.entry(group).or_default().queries.push(id);
            self.queries.insert(id, RefQuery { key, group });
        }

        pub(super) fn detach_query(&mut self, id: u64) -> Option<Prefix> {
            let rec = self.queries.remove(&id)?;
            let ledger = self.ledgers.get_mut(&rec.group).unwrap();
            remove_member(&mut ledger.queries, id);
            Some(rec.group)
        }

        pub(super) fn split(&mut self, group: Prefix, left: Prefix, right: Prefix) {
            let ledger = self.ledgers.remove(&group).unwrap_or_default();
            let bit_index = group.depth();
            let (mut l, mut r) = (RefLedger::default(), RefLedger::default());
            for &sid in &ledger.sources {
                let rec = self.sources.get_mut(&sid).unwrap();
                let side = if rec.key.bit(bit_index) == 0 {
                    rec.group = left;
                    &mut l
                } else {
                    rec.group = right;
                    &mut r
                };
                side.rate += rec.rate;
                side.sources.push(sid);
            }
            for &qid in &ledger.queries {
                let rec = self.queries.get_mut(&qid).unwrap();
                if rec.key.bit(bit_index) == 0 {
                    rec.group = left;
                    l.queries.push(qid);
                } else {
                    rec.group = right;
                    r.queries.push(qid);
                }
            }
            self.ledgers.insert(left, l);
            self.ledgers.insert(right, r);
        }

        pub(super) fn merge(&mut self, left: Prefix, right: Prefix, parent: Prefix) {
            let mut merged = self.ledgers.remove(&left).unwrap_or_default();
            let right_ledger = self.ledgers.remove(&right).unwrap_or_default();
            merged.sources.extend_from_slice(&right_ledger.sources);
            merged.queries.extend_from_slice(&right_ledger.queries);
            merged.rate += right_ledger.rate;
            for sid in &merged.sources {
                self.sources.get_mut(sid).unwrap().group = parent;
            }
            for qid in &merged.queries {
                self.queries.get_mut(qid).unwrap().group = parent;
            }
            self.ledgers.insert(parent, merged);
        }

        pub(super) fn membership(
            &self,
            groups: impl Iterator<Item = Prefix>,
        ) -> BTreeMap<Prefix, (Vec<u64>, Vec<u64>)> {
            let mut map: BTreeMap<_, _> = groups.map(|g| (g, (Vec::new(), Vec::new()))).collect();
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

        /// `promote_or_defer`'s reconcile as it stood, linear `contains`
        /// and all.
        pub(super) fn restore(
            &mut self,
            group: Prefix,
            replica: Option<&ReplicaRecord>,
            live: &(Vec<u64>, Vec<u64>),
        ) -> (usize, usize) {
            let (live_sources, live_queries) = live;
            let ledger = match replica {
                Some(rec) => {
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
                    let mut lost = (0, 0);
                    for s in live_sources {
                        if !sources.contains(s) {
                            self.sources.remove(s);
                            lost.0 += 1;
                        }
                    }
                    for q in live_queries {
                        if !queries.contains(q) {
                            self.queries.remove(q);
                            lost.1 += 1;
                        }
                    }
                    let rate: f64 = sources.iter().map(|s| self.sources[s].rate).sum();
                    self.ledgers.insert(
                        group,
                        RefLedger {
                            sources,
                            queries,
                            rate,
                        },
                    );
                    return lost;
                }
                None => {
                    for s in live_sources {
                        self.sources.remove(s);
                    }
                    for q in live_queries {
                        self.queries.remove(q);
                    }
                    RefLedger::default()
                }
            };
            self.ledgers.insert(group, ledger);
            (live_sources.len(), live_queries.len())
        }
    }
}

/// Drives [`DataPlane`] and the ordered reference through the same random
/// op sequences over a live split/merge cover, comparing everything a
/// caller can observe after every op; and [`Members`] against the
/// scan-and-shift exit it replaced.
#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use clash_keyspace::key::KeyWidth;
    use proptest::prelude::*;

    use super::reference::{remove_member, RefDataPlane};
    use super::*;

    const WIDTH: u32 = 8;

    fn width() -> KeyWidth {
        KeyWidth::new(WIDTH).unwrap()
    }

    fn owner() -> ServerId {
        ServerId::new(1, crate::config::ClashConfig::small_test().hash_space)
    }

    /// The cover group holding `key`.
    fn group_of(cover: &BTreeSet<Prefix>, key: Key) -> Prefix {
        (0..=WIDTH)
            .map(|d| Prefix::of_key(key, d))
            .find(|g| cover.contains(g))
            .expect("the cover partitions the key space")
    }

    /// A key inside `group`, its free low bits taken from `bits`.
    fn key_in(group: Prefix, bits: u64) -> Key {
        let free = (1u64 << (WIDTH - group.depth())) - 1;
        Key::from_bits_truncated(group.virtual_key().bits() | (bits & free), width())
    }

    fn pick<T: Copy>(items: impl ExactSizeIterator<Item = T>, arg: u64) -> Option<T> {
        let mut items = items;
        let n = items.len();
        (n > 0).then(|| items.nth(arg as usize % n).unwrap())
    }

    /// A list's live members, its slack within the compaction bound.
    fn live(members: &Members) -> Vec<u64> {
        assert!(
            members.dead < COMPACT_MIN_DEAD || members.dead <= members.len(),
            "{} tombstones beside {} live members",
            members.dead,
            members.len()
        );
        members.iter().collect()
    }

    fn assert_same(dp: &DataPlane, reference: &RefDataPlane) {
        assert_eq!(dp.ledgers.len(), reference.ledgers.len(), "ledger count");
        for (group, r) in &reference.ledgers {
            let l = dp.ledger(*group).unwrap_or_else(|| panic!("{group} lost"));
            assert_eq!(live(&l.sources), r.sources, "{group} sources");
            assert_eq!(live(&l.queries), r.queries, "{group} queries");
            assert_eq!(l.sources.len(), r.sources.len(), "{group} source count");
            assert_eq!(l.queries.len(), r.queries.len(), "{group} query count");
            let payload = dp.replica_payload(*group, owner());
            assert_eq!(*payload.sources, r.sources, "{group} replica sources");
            assert_eq!(*payload.queries, r.queries, "{group} replica queries");
            assert_eq!(l.rate.to_bits(), r.rate.to_bits(), "{group} rate");
        }
        assert_eq!(dp.sources.len(), reference.sources.len(), "source count");
        for (&id, r) in &reference.sources {
            let s = dp
                .sources
                .get(id)
                .unwrap_or_else(|| panic!("source {id} lost"));
            let seat = &s.seat;
            assert_eq!((seat.key(), seat.group()), (r.key, r.group), "source {id}");
            assert_eq!(s.rate.to_bits(), r.rate.to_bits(), "source {id} rate");
            let at = dp.ledgers[&seat.group()].sources.at(seat.slot);
            assert_eq!(at, Some(id), "source {id} is not at its slot {}", seat.slot);
        }
        assert_eq!(dp.queries.len(), reference.queries.len(), "query count");
        for (&id, r) in &reference.queries {
            let q = dp
                .queries
                .get(id)
                .unwrap_or_else(|| panic!("query {id} lost"));
            assert_eq!((q.key(), q.group()), (r.key, r.group), "query {id}");
            let at = dp.ledgers[&q.group()].queries.at(q.slot);
            assert_eq!(at, Some(id), "query {id} is not at its slot {}", q.slot);
        }
    }

    /// Both memberships of `groups`, compared list by list.
    fn assert_same_membership(dp: &DataPlane, reference: &RefDataPlane, groups: &[Prefix]) {
        let hashed = dp.membership(groups.iter().copied());
        let ordered = reference.membership(groups.iter().copied());
        assert_eq!(hashed.len(), ordered.len());
        for (group, lists) in &ordered {
            assert_eq!(hashed.get(group), Some(lists), "membership of {group}");
        }
    }

    /// Closes the locate window: the pushes go out ascending, once each.
    fn close_window(dp: &mut DataPlane, reference: &mut RefDataPlane, touched: &mut Vec<Prefix>) {
        dp.unqueue(touched);
        let expected: Vec<Prefix> = std::mem::take(&mut reference.touched).into_iter().collect();
        assert_eq!(std::mem::take(touched), expected, "deferred push order");
    }

    #[test]
    fn member_records_keep_their_size() {
        // A seat keeps its group as a depth, not a 16-byte `Prefix`.
        assert_eq!(std::mem::size_of::<SourceRec>(), 24);
        assert_eq!(std::mem::size_of::<QueryRec>(), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn members_match_order_preserving_remove(
            ops in prop::collection::vec((0u8..3, 0u64..u64::MAX), 1..400),
        ) {
            let mut members = Members::default();
            let mut expected: Vec<u64> = Vec::new();
            let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
            let mut next_id = 0u64;
            for (op, arg) in ops {
                if op == 0 || expected.is_empty() {
                    slots.insert(next_id, members.push(next_id));
                    expected.push(next_id);
                    next_id += 1;
                } else {
                    // Two exits per entry: the list keeps crossing the
                    // compaction threshold.
                    let id = expected[arg as usize % expected.len()];
                    remove_member(&mut expected, id);
                    let slot = slots.remove(&id).unwrap();
                    members.remove(slot, id, |moved, slot| {
                        *slots.get_mut(&moved).expect("a survivor has a slot") = slot;
                    });
                }
                prop_assert_eq!(live(&members), expected.clone());
                prop_assert_eq!(members.len(), expected.len());
                prop_assert_eq!(&*members.snapshot(), &expected);
                for (&id, &slot) in &slots {
                    prop_assert_eq!(members.at(slot), Some(id));
                }
            }
        }

        #[test]
        fn hashed_data_plane_matches_ordered_reference(
            ops in prop::collection::vec((0u8..13, 0u64..u64::MAX, 0u64..u64::MAX), 1..160),
        ) {
            let mut dp = DataPlane::default();
            let mut reference = RefDataPlane::default();
            let mut cover: BTreeSet<Prefix> = BTreeSet::new();
            for pattern in 0..4 {
                let root = Prefix::new(pattern, 2, width()).unwrap();
                cover.insert(root);
                dp.open_group(root);
                reference.open_group(root);
            }
            let mut touched = Vec::new();
            let mut next_id = 0u64;
            for (op, a, b) in ops {
                let key = Key::from_bits_truncated(a, width());
                let rate = (b % 1000) as f64 / 7.0;
                if matches!(op, 6 | 7 | 9) {
                    // Splits, merges and recoveries run at barriers.
                    close_window(&mut dp, &mut reference, &mut touched);
                }
                match op {
                    0 | 1 => {
                        let group = group_of(&cover, key);
                        dp.attach_source(next_id, key, rate, group);
                        reference.attach_source(next_id, key, rate, group);
                        next_id += 1;
                    }
                    2 => {
                        let group = group_of(&cover, key);
                        dp.attach_query(next_id, key, group);
                        reference.attach_query(next_id, key, group);
                        next_id += 1;
                    }
                    3 => {
                        // Unknown ids included: both must refuse alike.
                        let id = pick(reference.sources.keys().copied(), a).unwrap_or(next_id);
                        prop_assert_eq!(dp.detach_source(id), reference.detach_source(id));
                    }
                    4 => {
                        let id = pick(reference.queries.keys().copied(), a).unwrap_or(next_id);
                        prop_assert_eq!(dp.detach_query(id), reference.detach_query(id));
                    }
                    5 => {
                        // A key change; one in four re-locates fail and
                        // leave the source detached.
                        let Some(id) = pick(reference.sources.keys().copied(), b) else {
                            continue;
                        };
                        let old_rate = reference.sources[&id].rate;
                        let (left, kept_rate) = dp.unlink_source(id).unwrap();
                        prop_assert_eq!(kept_rate.to_bits(), old_rate.to_bits());
                        prop_assert_eq!(Some(left), reference.detach_source(id));
                        if b % 4 == 0 {
                            dp.forget_source(id);
                        } else {
                            let group = group_of(&cover, key);
                            dp.relink_source(id, key, rate, group);
                            reference.attach_source(id, key, rate, group);
                        }
                    }
                    6 => {
                        let splittable = cover.iter().copied().filter(|g| g.depth() < WIDTH);
                        let Some(group) = pick(splittable.collect::<Vec<_>>().into_iter(), a)
                        else {
                            continue;
                        };
                        let (left, right) = group.split().unwrap();
                        dp.split(group, left, right);
                        reference.split(group, left, right);
                        cover.remove(&group);
                        cover.extend([left, right]);
                    }
                    7 => {
                        let mergeable: Vec<Prefix> = cover
                            .iter()
                            .copied()
                            .filter(|g| g.depth() > 2 && g.last_bit() == Some(0))
                            .filter(|g| cover.contains(&g.sibling().unwrap()))
                            .collect();
                        let Some(left) = pick(mergeable.into_iter(), a) else {
                            continue;
                        };
                        let (right, parent) = (left.sibling().unwrap(), left.parent().unwrap());
                        dp.merge(left, right, parent);
                        reference.merge(left, right, parent);
                        cover.remove(&left);
                        cover.remove(&right);
                        cover.insert(parent);
                    }
                    8 => {
                        // A random subset of the cover (plus a group no
                        // client points at).
                        let groups: Vec<Prefix> = cover
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| (a >> (i % 64)) & 1 == 1)
                            .map(|(_, &g)| g)
                            .chain([Prefix::root(width())])
                            .collect();
                        assert_same_membership(&dp, &reference, &groups);
                    }
                    9 => {
                        // Recovery: a replica that missed one attach (the
                        // member at `b`) and carries one long-gone id, or
                        // no replica at all.
                        let Some(group) = pick(cover.iter().copied(), a) else {
                            continue;
                        };
                        let live = reference.membership(std::iter::once(group)).remove(&group).unwrap();
                        prop_assert_eq!(dp.membership(std::iter::once(group)).remove(&group), Some(live.clone()));
                        let replica = (b % 3 != 0).then(|| {
                            let l = &reference.ledgers[&group];
                            let drop_one = |v: &[u64]| -> Vec<u64> {
                                let skip = (!v.is_empty()).then(|| b as usize % v.len());
                                v.iter().enumerate().filter(|&(i, _)| Some(i) != skip).map(|(_, &x)| x).chain([u64::MAX]).collect()
                            };
                            ReplicaRecord {
                                owner: owner(),
                                sources: Arc::new(drop_one(&l.sources)),
                                queries: Arc::new(drop_one(&l.queries)),
                            }
                        });
                        prop_assert_eq!(
                            dp.restore(group, replica.as_ref(), &live),
                            reference.restore(group, replica.as_ref(), &live)
                        );
                    }
                    10 => {
                        // A client op's deferred push, on up to three groups.
                        for shift in [0, 21, 42] {
                            let group = pick(cover.iter().copied(), a >> shift).unwrap();
                            dp.queue_push(group, &mut touched);
                            reference.touched.insert(group);
                        }
                    }
                    12 => {
                        // Churns one group past the compaction threshold:
                        // a burst of attaches, then each of the group's
                        // sources stays, leaves, or changes key within the
                        // group (re-joining at the end), as `b` draws.
                        let group = pick(cover.iter().copied(), a).unwrap();
                        let burst = 2 * COMPACT_MIN_DEAD as u64 + a % 32;
                        for i in 0..burst {
                            let key = key_in(group, b.rotate_left(i as u32));
                            dp.attach_source(next_id, key, rate, group);
                            reference.attach_source(next_id, key, rate, group);
                            next_id += 1;
                        }
                        let members = reference.ledgers[&group].sources.clone();
                        for (i, id) in members.into_iter().enumerate() {
                            let draw = (b ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                            match draw % 8 {
                                0 | 1 => {}
                                2 => {
                                    let key = key_in(group, draw >> 3);
                                    let (left, _) = dp.unlink_source(id).unwrap();
                                    prop_assert_eq!(Some(left), reference.detach_source(id));
                                    dp.relink_source(id, key, rate, group);
                                    reference.attach_source(id, key, rate, group);
                                }
                                _ => prop_assert_eq!(dp.detach_source(id), reference.detach_source(id)),
                            }
                        }
                    }
                    _ => close_window(&mut dp, &mut reference, &mut touched),
                }
                assert_same(&dp, &reference);
            }
        }
    }
}
