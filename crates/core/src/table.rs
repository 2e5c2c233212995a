//! The CLASH `ServerTable` (§5, Figure 2 of the paper).
//!
//! Each server keeps one entry per key group it manages or has split:
//!
//! | field | paper name | meaning |
//! |---|---|---|
//! | `group` | VirtualKeyGroup + depth | the key group |
//! | `parent` | ParentID | who holds the parent entry (`Root` = -1) |
//! | `right_child` | RightChildID | who received the right child on split |
//! | `active` | Active | leaf of the logical tree (currently managed) |
//!
//! Active entries are the leaves: they carry load and answer
//! `ACCEPT_OBJECT`. Inactive entries are interior nodes this server split;
//! their left child is always local (same virtual key ⇒ same hash ⇒ same
//! server), and they remember the last load report from the right child so
//! the server can decide when to consolidate.

use std::fmt;

use clash_keyspace::cover::PrefixMap;
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;

use crate::error::ClashError;
use crate::load::GroupLoad;
use crate::messages::AcceptObjectResponse;
use crate::ServerId;

/// Who holds the parent entry of a key group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentRef {
    /// This group is a bootstrap root (`ParentID = -1`); consolidation
    /// never collapses above it.
    Root,
    /// The parent entry lives on this server (possibly ourselves).
    Server(ServerId),
}

/// The last load report received about a remote right child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildReport {
    /// Reported load of the child group.
    pub load: GroupLoad,
    /// Whether the child entry was still a leaf when it reported.
    pub is_leaf: bool,
}

/// One row of the server table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// The key group (virtual key + depth).
    pub group: Prefix,
    /// Who holds the parent entry.
    pub parent: ParentRef,
    /// Server that accepted the right child when this entry was split
    /// (`None` while active).
    pub right_child: Option<ServerId>,
    /// True if this entry is a leaf of the logical tree.
    pub active: bool,
    /// Current load (meaningful for active entries).
    pub load: GroupLoad,
    /// Last report from the remote right child (inactive entries only).
    pub last_child_report: Option<ChildReport>,
}

impl TableEntry {
    fn new_active(group: Prefix, parent: ParentRef, load: GroupLoad) -> Self {
        TableEntry {
            group,
            parent,
            right_child: None,
            active: true,
            load,
            last_child_report: None,
        }
    }
}

/// A CLASH server's view of the key groups it manages.
///
/// # Example (reproducing Figure 2)
///
/// ```
/// use clash_core::table::ServerTable;
/// use clash_core::load::GroupLoad;
/// use clash_chord::id::ChordId;
/// use clash_keyspace::hash::HashSpace;
/// use clash_keyspace::key::Key;
/// use clash_keyspace::prefix::Prefix;
///
/// let space = HashSpace::new(16)?;
/// let s25 = ChordId::new(25, space);
/// let s22 = ChordId::new(22, space);
/// let mut table = ServerTable::new(s25);
///
/// // s25 is the root for "011*" and accepted "01011*" from s22.
/// table.insert_root(Prefix::parse("011*", 7)?)?;
/// table.accept_group(Prefix::parse("01011*", 7)?, s22, GroupLoad::zero())?;
///
/// // The §5 case (c) example: key "0101010" at depth 6 → d_min = 4.
/// let resp = table.classify_object(Key::parse("0101010", 7)?, 6);
/// assert_eq!(
///     resp,
///     clash_core::messages::AcceptObjectResponse::IncorrectDepth { d_min: Some(4) }
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct ServerTable {
    owner: ServerId,
    map: PrefixMap<TableEntry>,
}

impl ServerTable {
    /// Creates an empty table owned by `owner`.
    pub fn new(owner: ServerId) -> Self {
        ServerTable {
            owner,
            map: PrefixMap::new(),
        }
    }

    /// The owning server.
    pub fn owner(&self) -> ServerId {
        self.owner
    }

    /// Number of entries (active + inactive).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of active (leaf) entries.
    pub fn active_count(&self) -> usize {
        self.entries().filter(|e| e.active).count()
    }

    /// True if the table holds at least one inactive (split) entry —
    /// the precondition for this server having any merge candidate at
    /// all. The cluster's load check uses this to skip underloaded
    /// servers that trivially cannot consolidate.
    pub fn has_split_entries(&self) -> bool {
        self.entries().any(|e| !e.active)
    }

    /// Iterates over all entries in binary-string order.
    pub fn entries(&self) -> impl Iterator<Item = &TableEntry> {
        self.map.values()
    }

    /// Iterates over the active groups.
    pub fn active_groups(&self) -> impl Iterator<Item = &TableEntry> {
        self.entries().filter(|e| e.active)
    }

    /// Returns the entry for `group`, if present.
    pub fn entry(&self, group: Prefix) -> Option<&TableEntry> {
        self.map.get(group)
    }

    /// Inserts a bootstrap root group (active, `ParentID = -1`).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::WrongActivity`] if the group already exists.
    pub fn insert_root(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.map.contains(group) {
            return Err(ClashError::WrongActivity {
                group,
                expected_active: false,
            });
        }
        self.map.insert(
            group,
            TableEntry::new_active(group, ParentRef::Root, GroupLoad::zero()),
        );
        Ok(())
    }

    /// Accepts responsibility for a key group (the receiving side of
    /// `ACCEPT_KEYGROUP`). Per §5 the receiver must always accept.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::WrongActivity`] if an entry for the group
    /// already exists (a protocol invariant violation).
    pub fn accept_group(
        &mut self,
        group: Prefix,
        parent: ServerId,
        load: GroupLoad,
    ) -> Result<(), ClashError> {
        if self.map.contains(group) {
            return Err(ClashError::WrongActivity {
                group,
                expected_active: false,
            });
        }
        self.map.insert(
            group,
            TableEntry::new_active(group, ParentRef::Server(parent), load),
        );
        Ok(())
    }

    /// The active group containing `key`, if this server manages it.
    pub fn owning_group(&self, key: Key) -> Option<&TableEntry> {
        self.map
            .longest_prefix_match(key)
            .map(|(_, e)| e)
            .filter(|e| e.active)
    }

    /// Handles an `ACCEPT_OBJECT` probe: the three cases of §5.
    pub fn classify_object(&self, key: Key, estimated_depth: u32) -> AcceptObjectResponse {
        match self.owning_group(key) {
            Some(e) if e.group.depth() == estimated_depth => AcceptObjectResponse::Ok {
                depth: estimated_depth,
            },
            Some(e) => AcceptObjectResponse::OkCorrected {
                depth: e.group.depth(),
            },
            None => AcceptObjectResponse::IncorrectDepth {
                d_min: (!self.map.is_empty()).then(|| self.map.max_common_prefix_len(key)),
            },
        }
    }

    /// Splits an active group: the entry becomes inactive, the left child
    /// is created locally (active, parent = self), and the right child is
    /// returned for the caller to place via the DHT.
    ///
    /// The parent's load moves to the left child; the caller re-partitions
    /// loads via [`ServerTable::set_load`] once it knows the split.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownGroup`] if the group is not held,
    /// [`ClashError::WrongActivity`] if it is not active, or
    /// [`ClashError::AtMaxDepth`] at full depth.
    pub fn split(&mut self, group: Prefix) -> Result<(Prefix, Prefix), ClashError> {
        let entry = self
            .map
            .get_mut(group)
            .ok_or(ClashError::UnknownGroup { group })?;
        if !entry.active {
            return Err(ClashError::WrongActivity {
                group,
                expected_active: true,
            });
        }
        if group.depth() >= group.width().get() {
            return Err(ClashError::AtMaxDepth { group });
        }
        let load = entry.load;
        let (left, right) = group.split().expect("depth checked above");
        entry.active = false;
        entry.load = GroupLoad::zero();
        entry.last_child_report = None;
        self.map.insert(
            left,
            TableEntry::new_active(left, ParentRef::Server(self.owner), load),
        );
        Ok((left, right))
    }

    /// Records which server accepted the right child of a split `group`.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownGroup`] / [`ClashError::WrongActivity`]
    /// if `group` is not a split (inactive) entry.
    pub fn set_right_child(&mut self, group: Prefix, server: ServerId) -> Result<(), ClashError> {
        let entry = self
            .map
            .get_mut(group)
            .ok_or(ClashError::UnknownGroup { group })?;
        if entry.active {
            return Err(ClashError::WrongActivity {
                group,
                expected_active: false,
            });
        }
        entry.right_child = Some(server);
        Ok(())
    }

    /// Records a load report about the right child of `parent_group`.
    /// Reports for unknown or active entries are ignored (they can arrive
    /// after a merge, like any stale message).
    pub fn record_child_report(&mut self, parent_group: Prefix, report: ChildReport) {
        if let Some(entry) = self.map.get_mut(parent_group) {
            if !entry.active {
                entry.last_child_report = Some(report);
            }
        }
    }

    /// Forgets the last child report for `parent_group`. Called when the
    /// right child refuses a `RELEASE_KEYGROUP`, which proves the report
    /// stale: a live child re-reports next period, while a child orphaned
    /// by a peer failure (re-homed as a root) never reports again and must
    /// not be asked to release forever.
    pub fn clear_child_report(&mut self, parent_group: Prefix) {
        if let Some(entry) = self.map.get_mut(parent_group) {
            entry.last_child_report = None;
        }
    }

    /// Consolidates `parent_group`: removes the local left child and
    /// re-activates the parent with the combined load. The caller must
    /// have reclaimed the right child first (via `RELEASE_KEYGROUP`),
    /// passing back its load.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::NotMergeable`] unless the parent entry is
    /// inactive and its left child is a local active leaf; and, when the
    /// right child is also local, unless it too is an active leaf.
    pub fn merge(&mut self, parent_group: Prefix, right_load: GroupLoad) -> Result<(), ClashError> {
        let entry = self.map.get(parent_group).ok_or(ClashError::UnknownGroup {
            group: parent_group,
        })?;
        if entry.active {
            return Err(ClashError::NotMergeable {
                parent: parent_group,
                reason: "parent entry is already active",
            });
        }
        let right_holder = entry.right_child;
        let (left, right) = parent_group.split().expect("inactive entries were split");
        let left_entry = self.map.get(left).ok_or(ClashError::NotMergeable {
            parent: parent_group,
            reason: "left child entry is missing",
        })?;
        if !left_entry.active {
            return Err(ClashError::NotMergeable {
                parent: parent_group,
                reason: "left child is not a leaf",
            });
        }
        let left_load = left_entry.load;
        // A right child that mapped back to this very server is removed
        // locally as part of the merge.
        let combined_right = if right_holder == Some(self.owner) {
            let right_entry = self.map.get(right).ok_or(ClashError::NotMergeable {
                parent: parent_group,
                reason: "local right child entry is missing",
            })?;
            if !right_entry.active {
                return Err(ClashError::NotMergeable {
                    parent: parent_group,
                    reason: "local right child is not a leaf",
                });
            }
            let load = right_entry.load;
            self.map.remove(right);
            load
        } else {
            right_load
        };
        self.map.remove(left);
        let entry = self.map.get_mut(parent_group).expect("entry exists");
        entry.active = true;
        entry.right_child = None;
        entry.last_child_report = None;
        entry.load = left_load.combined(combined_right);
        Ok(())
    }

    /// Releases an active leaf group back to its parent (the receiving
    /// side of `RELEASE_KEYGROUP`). Returns its load, or `None` if the
    /// group is no longer an active leaf here (the paper's refusal case:
    /// the child split it since the last report).
    pub fn release_group(&mut self, group: Prefix) -> Option<GroupLoad> {
        match self.map.get(group) {
            Some(e) if e.active => {
                let load = e.load;
                self.map.remove(group);
                Some(load)
            }
            _ => None,
        }
    }

    /// Sets the load of an active group (data-plane accounting).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownGroup`] / [`ClashError::WrongActivity`]
    /// if the group is not an active entry.
    pub fn set_load(&mut self, group: Prefix, load: GroupLoad) -> Result<(), ClashError> {
        let entry = self
            .map
            .get_mut(group)
            .ok_or(ClashError::UnknownGroup { group })?;
        if !entry.active {
            return Err(ClashError::WrongActivity {
                group,
                expected_active: true,
            });
        }
        entry.load = load;
        Ok(())
    }

    /// Adjusts the data rate of the active group containing `key`.
    /// Returns the group adjusted, or `None` if this server does not own
    /// the key.
    pub fn adjust_rate_for_key(&mut self, key: Key, delta: f64) -> Option<Prefix> {
        let entry = self.owning_group_mut(key)?;
        entry.load.data_rate = (entry.load.data_rate + delta).max(0.0);
        Some(entry.group)
    }

    /// Adjusts the query count of the active group containing `key`.
    pub fn adjust_queries_for_key(&mut self, key: Key, delta: i64) -> Option<Prefix> {
        let entry = self.owning_group_mut(key)?;
        entry.load.queries = if delta >= 0 {
            entry.load.queries.saturating_add(delta as u64)
        } else {
            entry.load.queries.saturating_sub(delta.unsigned_abs())
        };
        Some(entry.group)
    }

    fn owning_group_mut(&mut self, key: Key) -> Option<&mut TableEntry> {
        self.map
            .longest_prefix_match_mut(key)
            .map(|(_, e)| e)
            .filter(|e| e.active)
    }

    /// Loads of all active groups (for the server-level load computation).
    pub fn active_loads(&self) -> impl Iterator<Item = GroupLoad> + '_ {
        self.active_groups().map(|e| e.load)
    }

    /// Removes and returns the full entry for `group` — the sending side
    /// of a live-membership handoff. Unlike [`ServerTable::release_group`]
    /// this works on interior (inactive) entries too and preserves every
    /// field, so the logical split tree survives the move. The caller must
    /// move the co-located left-child spine in the same batch (left
    /// children share their parent's virtual key, hence its hash, hence
    /// its `Map()` owner), or invariant 2 breaks.
    pub fn extract_entry(&mut self, group: Prefix) -> Option<TableEntry> {
        self.map.remove(group)
    }

    /// Installs an entry transferred from another server — the receiving
    /// side of a membership handoff (`ACCEPT_KEYGROUP` carrying full
    /// tree state). Parent / right-child pointers, activity and load are
    /// preserved verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::WrongActivity`] if an entry for the group is
    /// already present (a protocol invariant violation).
    pub fn install_entry(&mut self, entry: TableEntry) -> Result<(), ClashError> {
        if self.map.contains(entry.group) {
            return Err(ClashError::WrongActivity {
                group: entry.group,
                expected_active: false,
            });
        }
        self.map.insert(entry.group, entry);
        Ok(())
    }

    /// Re-points parent and right-child pointers after key groups migrated
    /// to new holders (server join/leave): `moved_to(g)` returns the new
    /// holder of `g` if that group's entry moved. Returns
    /// `(parents re-pointed, right children re-pointed)`.
    pub fn repoint_moved_entries(
        &mut self,
        moved_to: impl Fn(Prefix) -> Option<ServerId>,
    ) -> (usize, usize) {
        let mut parents = 0;
        let mut rights = 0;
        for (group, entry) in self.map.iter_mut() {
            if let ParentRef::Server(cur) = entry.parent {
                if let Some(new_holder) = group.parent().and_then(&moved_to) {
                    if cur != new_holder {
                        entry.parent = ParentRef::Server(new_holder);
                        parents += 1;
                    }
                }
            }
            if let Some(cur) = entry.right_child {
                let (_, right) = group.split().expect("split entries have children");
                if let Some(new_holder) = moved_to(right) {
                    if cur != new_holder {
                        entry.right_child = Some(new_holder);
                        rights += 1;
                    }
                }
            }
        }
        (parents, rights)
    }

    /// True if some entry's parent or right-child pointer names `server`
    /// — what [`ServerTable::repair_after_peer_failure`] would act on.
    pub(crate) fn names_server(&self, server: ServerId) -> bool {
        self.entries()
            .any(|e| e.parent == ParentRef::Server(server) || e.right_child == Some(server))
    }

    /// Repairs this table after a peer server failed: entries whose
    /// parent pointer named the dead server become roots (their parent
    /// entry died with it), and split entries whose right child lived on
    /// the dead server are re-pointed via `resolve` (the current owner of
    /// that group after reassignment) or have their stale child report
    /// cleared. Returns `(orphaned parents, repaired right children)`.
    pub fn repair_after_peer_failure(
        &mut self,
        dead: ServerId,
        mut resolve: impl FnMut(Prefix) -> Option<ServerId>,
    ) -> (usize, usize) {
        let mut orphaned = 0;
        let mut repaired = 0;
        for (group, entry) in self.map.iter_mut() {
            if entry.parent == ParentRef::Server(dead) {
                entry.parent = ParentRef::Root;
                orphaned += 1;
            }
            if entry.right_child == Some(dead) {
                let (_, right) = group.split().expect("split entries have children");
                match resolve(right) {
                    Some(new_owner) => {
                        entry.right_child = Some(new_owner);
                        repaired += 1;
                    }
                    None => {
                        // The right child no longer exists as-is (it was
                        // itself split before the failure). Clear both the
                        // pointer and the stale report: this subtree can
                        // never merge above this entry again, and a dangling
                        // pointer would otherwise resurface as a merge
                        // target for a dead server once fresh reports flow.
                        entry.right_child = None;
                        entry.last_child_report = None;
                    }
                }
            }
        }
        (orphaned, repaired)
    }

    /// Checks the structural invariants of the table. Used liberally in
    /// tests; cheap enough for debug assertions.
    ///
    /// Invariants:
    /// 1. active entries are prefix-free;
    /// 2. every inactive entry has its left child present locally;
    /// 3. active entries have no `right_child`.
    pub fn check_invariants(&self) -> Result<(), ClashError> {
        // In binary-string order an entry's descendants directly follow
        // it, so if any active entry contains another, some active entry
        // contains the next active one.
        let mut prefix_free = true;
        let mut last_active: Option<Prefix> = None;
        for (p, e) in self.map.iter() {
            if e.active {
                prefix_free &= !last_active.is_some_and(|prev| prev.is_prefix_of(p));
                last_active = Some(p);
                if e.right_child.is_some() {
                    return Err(ClashError::WrongActivity {
                        group: p,
                        expected_active: false,
                    });
                }
            } else {
                let (left, _right) = p.split().expect("inactive entries were split");
                if !self.map.contains(left) {
                    return Err(ClashError::UnknownGroup { group: left });
                }
            }
        }
        if !prefix_free {
            return Err(ClashError::InvalidConfig {
                reason: "active entries are not prefix-free",
            });
        }
        Ok(())
    }
}

impl fmt::Debug for ServerTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ServerTable(owner={}, {} entries)",
            self.owner,
            self.map.len()
        )?;
        for (i, (p, e)) in self.map.iter().enumerate() {
            let parent = match e.parent {
                ParentRef::Root => "-1".to_owned(),
                ParentRef::Server(s) if s == self.owner => "self".to_owned(),
                ParentRef::Server(s) => s.to_string(),
            };
            let right = e
                .right_child
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_owned());
            writeln!(
                f,
                "  {:>2}. {:<12} depth={:<2} parent={:<6} right={:<6} active={}",
                i + 1,
                p.to_string(),
                p.depth(),
                parent,
                right,
                if e.active { "Y" } else { "N" }
            )?;
        }
        Ok(())
    }
}

/// A model of the table's storage and prefix queries, correct by
/// definition and sharing no code with the sorted-vector search: a
/// `BTreeMap` for the entries, brute-force scans for both prefix queries.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    #[derive(Default)]
    pub(super) struct ModelTable {
        map: BTreeMap<Prefix, TableEntry>,
    }

    impl ModelTable {
        pub(super) fn entries(&self) -> Vec<TableEntry> {
            self.map.values().cloned().collect()
        }

        pub(super) fn entry(&self, group: Prefix) -> Option<&TableEntry> {
            self.map.get(&group)
        }

        pub(super) fn install_entry(&mut self, entry: TableEntry) -> bool {
            if self.map.contains_key(&entry.group) {
                return false;
            }
            self.map.insert(entry.group, entry);
            true
        }

        pub(super) fn extract_entry(&mut self, group: Prefix) -> Option<TableEntry> {
            self.map.remove(&group)
        }

        pub(super) fn set_load(&mut self, group: Prefix, load: GroupLoad) -> bool {
            match self.map.get_mut(&group) {
                Some(entry) if entry.active => {
                    entry.load = load;
                    true
                }
                _ => false,
            }
        }

        /// The deepest entry containing `key`, if it is active.
        pub(super) fn owning_group(&self, key: Key) -> Option<&TableEntry> {
            self.map
                .values()
                .filter(|e| e.group.contains(key))
                .max_by_key(|e| e.group.depth())
                .filter(|e| e.active)
        }

        pub(super) fn adjust_rate_for_key(&mut self, key: Key, delta: f64) -> Option<Prefix> {
            let group = self.owning_group(key)?.group;
            let entry = self.map.get_mut(&group).expect("entry exists");
            entry.load.data_rate = (entry.load.data_rate + delta).max(0.0);
            Some(group)
        }

        /// `d_min` by its definition: the most bits any entry shares with
        /// the key.
        pub(super) fn classify_object(
            &self,
            key: Key,
            estimated_depth: u32,
        ) -> AcceptObjectResponse {
            match self.owning_group(key) {
                Some(e) if e.group.depth() == estimated_depth => AcceptObjectResponse::Ok {
                    depth: estimated_depth,
                },
                Some(e) => AcceptObjectResponse::OkCorrected {
                    depth: e.group.depth(),
                },
                None => AcceptObjectResponse::IncorrectDepth {
                    d_min: self
                        .map
                        .keys()
                        .map(|g| g.common_prefix_len_with_key(key))
                        .max(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ModelTable;
    use super::*;
    use clash_keyspace::hash::HashSpace;
    use clash_keyspace::key::KeyWidth;
    use proptest::prelude::*;

    fn sid(v: u64) -> ServerId {
        ServerId::new(v, HashSpace::new(16).unwrap())
    }

    fn p(s: &str) -> Prefix {
        Prefix::parse(s, 7).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::parse(s, 7).unwrap()
    }

    fn rate(r: f64) -> GroupLoad {
        GroupLoad {
            data_rate: r,
            queries: 0,
        }
    }

    /// Builds the exact table of Figure 2 (server s25).
    fn figure2_table() -> ServerTable {
        let s25 = sid(25);
        let mut t = ServerTable::new(s25);
        // Entry 1: 011* root, split → right child 45.
        t.insert_root(p("011*")).unwrap();
        // Entry 2: 01011* accepted from s22, split → right child 26.
        t.accept_group(p("01011*"), sid(22), GroupLoad::zero())
            .unwrap();
        // Split 011* → 0110* local (entry 4) + 0111* shipped to s45.
        let (l1, _r1) = t.split(p("011*")).unwrap();
        assert_eq!(l1, p("0110*"));
        t.set_right_child(p("011*"), sid(45)).unwrap();
        // Split 01011* → 010110* local (entry 3) + 010111* to s26.
        let (l2, _r2) = t.split(p("01011*")).unwrap();
        assert_eq!(l2, p("010110*"));
        t.set_right_child(p("01011*"), sid(26)).unwrap();
        // Split 0110* → 01100* local (entry 5) + 01101* to s11.
        let (l3, _r3) = t.split(p("0110*")).unwrap();
        assert_eq!(l3, p("01100*"));
        t.set_right_child(p("0110*"), sid(11)).unwrap();
        t
    }

    #[test]
    fn figure2_shape_matches_paper() {
        let t = figure2_table();
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.active_count(), 2);
        // Active leaves: 010110* and 01100* (rows 3 and 5, Active=Y).
        let actives: Vec<String> = t.active_groups().map(|e| e.group.to_string()).collect();
        assert_eq!(actives, vec!["010110*", "01100*"]);
        // Parent/right-child fields as in the figure.
        let row1 = t.entry(p("011*")).unwrap();
        assert_eq!(row1.parent, ParentRef::Root);
        assert_eq!(row1.right_child, Some(sid(45)));
        let row2 = t.entry(p("01011*")).unwrap();
        assert_eq!(row2.parent, ParentRef::Server(sid(22)));
        assert_eq!(row2.right_child, Some(sid(26)));
        let row4 = t.entry(p("0110*")).unwrap();
        assert_eq!(row4.parent, ParentRef::Server(sid(25)));
        assert_eq!(row4.right_child, Some(sid(11)));
    }

    #[test]
    fn classify_case_a_right_depth() {
        // §5 (a): key "0110001" with d=5 → OK.
        let t = figure2_table();
        assert_eq!(
            t.classify_object(k("0110001"), 5),
            AcceptObjectResponse::Ok { depth: 5 }
        );
    }

    #[test]
    fn classify_case_b_wrong_depth_right_server() {
        // §5 (b): key "0110001" with d=7 → OK corrected to 5.
        let t = figure2_table();
        assert_eq!(
            t.classify_object(k("0110001"), 7),
            AcceptObjectResponse::OkCorrected { depth: 5 }
        );
    }

    #[test]
    fn classify_case_c_wrong_server() {
        // §5 (c): key "0101010" with d=6 → INCORRECT_DEPTH(4).
        let t = figure2_table();
        assert_eq!(
            t.classify_object(k("0101010"), 6),
            AcceptObjectResponse::IncorrectDepth { d_min: Some(4) }
        );
    }

    #[test]
    fn split_moves_load_to_left_child() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        t.set_load(p("01*"), rate(10.0)).unwrap();
        let (l, r) = t.split(p("01*")).unwrap();
        assert_eq!((l, r), (p("010*"), p("011*")));
        assert_eq!(t.entry(l).unwrap().load, rate(10.0));
        assert!(!t.entry(p("01*")).unwrap().active);
        assert!(t.entry(r).is_none(), "right child is not local");
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_requires_active_entry() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        t.split(p("01*")).unwrap();
        assert!(matches!(
            t.split(p("01*")),
            Err(ClashError::WrongActivity { .. })
        ));
        assert!(matches!(
            t.split(p("10*")),
            Err(ClashError::UnknownGroup { .. })
        ));
    }

    #[test]
    fn split_at_max_depth_fails() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("0101010")).unwrap();
        assert!(matches!(
            t.split(p("0101010")),
            Err(ClashError::AtMaxDepth { .. })
        ));
    }

    #[test]
    fn merge_restores_parent_with_combined_load() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        t.set_load(p("01*"), rate(10.0)).unwrap();
        let (l, _r) = t.split(p("01*")).unwrap();
        t.set_right_child(p("01*"), sid(9)).unwrap();
        t.set_load(l, rate(6.0)).unwrap();
        // Right child released remotely with rate 4.
        t.merge(p("01*"), rate(4.0)).unwrap();
        let e = t.entry(p("01*")).unwrap();
        assert!(e.active);
        assert_eq!(e.load, rate(10.0));
        assert_eq!(e.right_child, None);
        assert!(t.entry(l).is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn merge_with_local_right_child() {
        // Self-mapped right child: both children live here.
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        let (l, r) = t.split(p("01*")).unwrap();
        t.set_right_child(p("01*"), sid(1)).unwrap(); // maps back to self
        t.accept_group(r, sid(1), rate(3.0)).unwrap();
        t.set_load(l, rate(5.0)).unwrap();
        t.check_invariants().unwrap();
        t.merge(p("01*"), GroupLoad::zero()).unwrap();
        let e = t.entry(p("01*")).unwrap();
        assert!(e.active);
        assert_eq!(e.load, rate(8.0));
        assert!(t.entry(r).is_none());
    }

    #[test]
    fn merge_refuses_when_left_child_split_further() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        let (l, _r) = t.split(p("01*")).unwrap();
        t.set_right_child(p("01*"), sid(9)).unwrap();
        t.split(l).unwrap();
        t.set_right_child(l, sid(10)).unwrap();
        assert!(matches!(
            t.merge(p("01*"), GroupLoad::zero()),
            Err(ClashError::NotMergeable { .. })
        ));
    }

    #[test]
    fn release_group_returns_load_or_refuses() {
        let mut t = ServerTable::new(sid(2));
        t.accept_group(p("0111*"), sid(1), rate(7.0)).unwrap();
        assert_eq!(t.release_group(p("0111*")), Some(rate(7.0)));
        assert!(t.is_empty());
        // Releasing something we no longer hold → refusal (None).
        assert_eq!(t.release_group(p("0111*")), None);
        // A split (inactive) entry refuses release too.
        t.accept_group(p("0110*"), sid(1), rate(1.0)).unwrap();
        t.split(p("0110*")).unwrap();
        assert_eq!(t.release_group(p("0110*")), None);
    }

    #[test]
    fn child_reports_recorded_on_inactive_entries_only() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        let report = ChildReport {
            load: rate(2.0),
            is_leaf: true,
        };
        // Active entry: ignored.
        t.record_child_report(p("01*"), report);
        assert_eq!(t.entry(p("01*")).unwrap().last_child_report, None);
        // After a split: recorded.
        t.split(p("01*")).unwrap();
        t.set_right_child(p("01*"), sid(9)).unwrap();
        t.record_child_report(p("01*"), report);
        assert_eq!(t.entry(p("01*")).unwrap().last_child_report, Some(report));
        // Unknown group: silently ignored (stale message).
        t.record_child_report(p("11*"), report);
    }

    #[test]
    fn clear_child_report_forgets_stale_state() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        t.split(p("01*")).unwrap();
        t.set_right_child(p("01*"), sid(9)).unwrap();
        let report = ChildReport {
            load: rate(2.0),
            is_leaf: true,
        };
        t.record_child_report(p("01*"), report);
        assert_eq!(t.entry(p("01*")).unwrap().last_child_report, Some(report));
        t.clear_child_report(p("01*"));
        assert_eq!(t.entry(p("01*")).unwrap().last_child_report, None);
        // Unknown groups are ignored (stale RELEASE exchanges can race
        // with merges, like any other stale message).
        t.clear_child_report(p("11*"));
    }

    #[test]
    fn adjust_rate_for_key_targets_owning_group() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        assert_eq!(t.adjust_rate_for_key(k("0101010"), 2.5), Some(p("01*")));
        assert_eq!(t.entry(p("01*")).unwrap().load.data_rate, 2.5);
        // Keys we do not own return None.
        assert_eq!(t.adjust_rate_for_key(k("1101010"), 1.0), None);
        // Rates clamp at zero.
        t.adjust_rate_for_key(k("0101010"), -100.0);
        assert_eq!(t.entry(p("01*")).unwrap().load.data_rate, 0.0);
    }

    #[test]
    fn adjust_queries_for_key() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        t.adjust_queries_for_key(k("0101010"), 3);
        assert_eq!(t.entry(p("01*")).unwrap().load.queries, 3);
        t.adjust_queries_for_key(k("0101010"), -1);
        assert_eq!(t.entry(p("01*")).unwrap().load.queries, 2);
        t.adjust_queries_for_key(k("0101010"), -10);
        assert_eq!(t.entry(p("01*")).unwrap().load.queries, 0);
    }

    #[test]
    fn duplicate_root_or_accept_rejected() {
        let mut t = ServerTable::new(sid(1));
        t.insert_root(p("01*")).unwrap();
        assert!(t.insert_root(p("01*")).is_err());
        assert!(t.accept_group(p("01*"), sid(2), GroupLoad::zero()).is_err());
    }

    #[test]
    fn extract_install_roundtrip_preserves_tree_state() {
        let mut src = figure2_table();
        let mut dst = ServerTable::new(sid(99));
        // Move the whole 011* left spine (shared virtual key) wholesale.
        for g in ["011*", "0110*", "01100*"] {
            let entry = src.extract_entry(p(g)).unwrap();
            dst.install_entry(entry).unwrap();
        }
        src.check_invariants().unwrap();
        dst.check_invariants().unwrap();
        // Pointers survived the move verbatim.
        let row = dst.entry(p("011*")).unwrap();
        assert_eq!(row.parent, ParentRef::Root);
        assert_eq!(row.right_child, Some(sid(45)));
        assert!(!row.active);
        assert!(dst.entry(p("01100*")).unwrap().active);
        // Duplicates are protocol violations.
        let dup = dst.entry(p("011*")).unwrap().clone();
        assert!(dst.install_entry(dup).is_err());
        assert_eq!(src.extract_entry(p("011*")), None);
    }

    #[test]
    fn check_invariants_rejects_nested_active_entries() {
        let active = |g: &str| TableEntry::new_active(p(g), ParentRef::Root, GroupLoad::zero());
        let inactive = |g: &str| TableEntry {
            active: false,
            ..active(g)
        };
        let mut t = ServerTable::new(sid(1));
        // 01* contains 0110*; the inactive 011* between them and the
        // unrelated 00* before them do not hide it.
        for e in [active("00*"), active("01*"), inactive("011*")] {
            t.install_entry(e).unwrap();
        }
        t.install_entry(active("0110*")).unwrap();
        assert!(matches!(
            t.check_invariants(),
            Err(ClashError::InvalidConfig { .. })
        ));
        // Siblings and cousins are prefix-free.
        t.extract_entry(p("01*")).unwrap();
        t.install_entry(active("0111*")).unwrap();
        t.check_invariants().unwrap();
    }

    #[test]
    fn repoint_moved_entries_updates_both_pointer_kinds() {
        let mut t = figure2_table();
        // Pretend 0111* (right child of 011*, held by s45) and 01011*'s
        // parent entry (held by s22) both migrated to s77.
        let new_holder = sid(77);
        let (parents, rights) =
            t.repoint_moved_entries(|g| (g == p("0111*") || g == p("0101*")).then_some(new_holder));
        assert_eq!(rights, 1);
        assert_eq!(t.entry(p("011*")).unwrap().right_child, Some(new_holder));
        // 01011*'s parent prefix is 0101*; its pointer moves to s77.
        assert_eq!(parents, 1);
        assert_eq!(
            t.entry(p("01011*")).unwrap().parent,
            ParentRef::Server(new_holder)
        );
        // Re-pointing to the current holder is a no-op.
        let (parents, rights) =
            t.repoint_moved_entries(|g| (g == p("0111*")).then_some(new_holder));
        assert_eq!((parents, rights), (0, 0));
    }

    #[test]
    fn debug_output_resembles_figure2() {
        let t = figure2_table();
        let out = format!("{t:?}");
        assert!(out.contains("011*"));
        assert!(out.contains("parent=-1"));
        assert!(out.contains("parent=self"));
        assert!(out.contains("active=Y"));
        assert!(out.contains("active=N"));
    }

    /// Nested groups over `width`-bit keys: the prefixes of three keys at
    /// a spread of depths, plus each one's sibling.
    fn nested_groups(width: KeyWidth, seeds: [u64; 3]) -> Vec<Prefix> {
        let mut groups = Vec::new();
        for seed in seeds {
            let key = Key::from_bits_truncated(seed, width);
            let w = width.get();
            for depth in [0, 1, 2, 3, 5, w / 2, w - 1, w] {
                let g = Prefix::of_key(key, depth);
                groups.push(g);
                groups.extend(g.sibling());
            }
        }
        groups.sort();
        groups.dedup();
        groups
    }

    /// Keys on and just past every group's boundary, plus `extra`.
    fn boundary_keys(groups: &[Prefix], extra: u64) -> Vec<Key> {
        let width = groups[0].width();
        let mask = (1u64 << width.get()) - 1;
        let mut keys = vec![Key::from_bits_truncated(extra & mask, width)];
        for g in groups {
            let (lo, hi) = (g.min_key().bits(), g.max_key().bits());
            for bits in [lo, hi, lo.wrapping_sub(1) & mask, hi.wrapping_add(1) & mask] {
                keys.push(Key::from_bits_truncated(bits, width));
            }
        }
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flat table against the model table at widths 7 and 24, over
        /// nested active and inactive entries: random installs, extracts
        /// and in-place updates (`set_load`, `adjust_rate_for_key`), then
        /// iteration order, exact lookups, the owning group and the
        /// `ACCEPT_OBJECT` answer with its `d_min` on every boundary key.
        #[test]
        fn flat_table_matches_model(
            wide in 0u8..2,
            seeds in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            ops in prop::collection::vec((0u8..5, 0u64..u64::MAX), 0..48),
        ) {
            let width = KeyWidth::new(if wide == 1 { 24 } else { 7 }).unwrap();
            let groups = nested_groups(width, [seeds.0, seeds.1, seeds.2]);
            let mut table = ServerTable::new(sid(1));
            let mut model = ModelTable::default();
            for (op, a) in ops {
                let group = groups[a as usize % groups.len()];
                let keys = boundary_keys(&groups, a);
                match op {
                    0 | 1 => {
                        let entry = TableEntry {
                            group,
                            parent: if a & 1 == 0 { ParentRef::Root } else { ParentRef::Server(sid(a >> 60)) },
                            right_child: (a & 2 != 0).then(|| sid(a >> 56)),
                            active: a & 4 == 0,
                            load: rate((a >> 8) as f64 % 97.0),
                            last_child_report: None,
                        };
                        prop_assert_eq!(table.install_entry(entry.clone()).is_ok(), model.install_entry(entry));
                    }
                    2 => prop_assert_eq!(table.extract_entry(group), model.extract_entry(group)),
                    3 => prop_assert_eq!(
                        table.set_load(group, rate((a >> 4) as f64 % 13.0)).is_ok(),
                        model.set_load(group, rate((a >> 4) as f64 % 13.0))
                    ),
                    _ => {
                        let key = keys[(a >> 32) as usize % keys.len()];
                        let delta = (a >> 12) as f64 % 7.0 - 3.0;
                        prop_assert_eq!(table.adjust_rate_for_key(key, delta), model.adjust_rate_for_key(key, delta));
                    }
                }
                let entries: Vec<TableEntry> = table.entries().cloned().collect();
                prop_assert_eq!(entries, model.entries());
                for &g in &groups {
                    prop_assert_eq!(table.entry(g), model.entry(g));
                }
                for key in keys {
                    prop_assert_eq!(table.owning_group(key), model.owning_group(key));
                    let depth = (a % u64::from(width.get() + 1)) as u32;
                    prop_assert_eq!(table.classify_object(key, depth), model.classify_object(key, depth));
                }
            }
        }
    }
}
