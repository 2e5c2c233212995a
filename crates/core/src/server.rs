//! The CLASH server: a pure protocol state machine around a
//! [`ServerTable`].
//!
//! The server owns no I/O — the cluster harness (or the full simulator)
//! delivers [`crate::messages::ClashRequest`]s and routes the responses.
//! This keeps every
//! protocol decision unit-testable: overload detection, the choice of the
//! group to shed ("hottest"), the choice to consolidate ("coldest eligible
//! parent"), and the three-way `ACCEPT_OBJECT` case analysis.

use clash_keyspace::cover;
use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;

use crate::config::{ClashConfig, SplitPolicy};
use crate::error::ClashError;
use crate::load::{GroupLoad, LoadLevel};
use crate::messages::{AcceptObjectResponse, ReleaseResponse};
use crate::replication::ReplicaStore;
use crate::table::{ChildReport, ParentRef, ServerTable, TableEntry};
use crate::ServerId;

/// Counters for one server's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// `ACCEPT_OBJECT` probes answered.
    pub probes_answered: u64,
    /// Splits performed.
    pub splits: u64,
    /// Merges performed.
    pub merges: u64,
    /// Key groups accepted from peers.
    pub groups_accepted: u64,
    /// Key groups released back to parents.
    pub groups_released: u64,
}

/// A CLASH server.
///
/// # Example
///
/// ```
/// use clash_core::config::ClashConfig;
/// use clash_core::server::ClashServer;
/// use clash_core::ServerId;
/// use clash_keyspace::prefix::Prefix;
///
/// let cfg = ClashConfig::small_test();
/// let id = ServerId::new(5, cfg.hash_space);
/// let mut server = ClashServer::new(id, cfg);
/// server.bootstrap_root(Prefix::parse("01*", 8)?)?;
/// assert_eq!(server.table().active_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClashServer {
    id: ServerId,
    config: ClashConfig,
    table: ServerTable,
    stats: ServerStats,
    /// Successor-list replication state: replicas held for ring
    /// predecessors plus the placement registry for this server's own
    /// groups. Unused (and empty) when the replication factor is 0.
    replicas: ReplicaStore,
}

impl ClashServer {
    /// Creates a server with an empty table.
    pub fn new(id: ServerId, config: ClashConfig) -> Self {
        ClashServer {
            id,
            table: ServerTable::new(id, config.key_width),
            replicas: ReplicaStore::new(config.key_width),
            config,
            stats: ServerStats::default(),
        }
    }

    /// This server's DHT identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &ClashConfig {
        &self.config
    }

    /// Read access to the server table.
    pub fn table(&self) -> &ServerTable {
        &self.table
    }

    /// Mutable table access for cluster-level recovery procedures.
    pub(crate) fn table_mut(&mut self) -> &mut ServerTable {
        &mut self.table
    }

    /// Read access to the replication state.
    pub fn replica_store(&self) -> &ReplicaStore {
        &self.replicas
    }

    /// Mutable replication state for the cluster's replication engine.
    pub(crate) fn replica_store_mut(&mut self) -> &mut ReplicaStore {
        &mut self.replicas
    }

    /// Protocol activity counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The key width in use.
    pub fn key_width(&self) -> KeyWidth {
        self.config.key_width
    }

    /// Installs a bootstrap root group (`ParentID = -1`).
    ///
    /// # Errors
    ///
    /// Propagates [`ClashError::WrongActivity`] on duplicates.
    pub fn bootstrap_root(&mut self, group: Prefix) -> Result<(), ClashError> {
        self.table.insert_root(group)
    }

    // ----- request handlers (§5) -------------------------------------

    /// Handles an `ACCEPT_OBJECT` probe.
    pub fn handle_accept_object(&mut self, key: Key, depth: u32) -> AcceptObjectResponse {
        self.count_probe_answered();
        self.table.classify_object(key, depth)
    }

    /// Counts an `ACCEPT_OBJECT` probe the cluster answered off the table.
    pub(crate) fn count_probe_answered(&mut self) {
        self.stats.probes_answered += 1;
    }

    /// Handles `ACCEPT_KEYGROUP`: per §5 the receiver must always accept
    /// (it can shed again by splitting further).
    ///
    /// # Errors
    ///
    /// Returns an error only on a protocol invariant violation (the group
    /// is already held).
    pub fn handle_accept_keygroup(
        &mut self,
        group: Prefix,
        parent: ServerId,
        load: GroupLoad,
    ) -> Result<(), ClashError> {
        self.table.accept_group(group, parent, load)?;
        self.stats.groups_accepted += 1;
        Ok(())
    }

    /// Handles `RELEASE_KEYGROUP`: returns the group's load if it is still
    /// an active leaf here, otherwise refuses (the paper's stale-report
    /// case).
    pub fn handle_release_keygroup(&mut self, group: Prefix) -> ReleaseResponse {
        match self.table.release_group(group) {
            Some(load) => {
                self.stats.groups_released += 1;
                ReleaseResponse::Released { load }
            }
            None => ReleaseResponse::Refused,
        }
    }

    /// Handles a leaf-to-parent `LOAD_REPORT`.
    ///
    /// Only reports from the *right* child are recorded: `last_child_report`
    /// describes the remote right child, while the left child always lives
    /// on the parent-entry holder itself (same virtual key ⇒ same server)
    /// and is read from the table directly. Left-child reports would
    /// otherwise overwrite the right child's state.
    pub fn handle_load_report(&mut self, group: Prefix, load: GroupLoad, is_leaf: bool) {
        let parent = match group.parent() {
            Some(p) => p,
            None => return, // root groups have no parent entry anywhere
        };
        if group.last_bit() != Some(1) {
            return;
        }
        self.table
            .record_child_report(parent, ChildReport { load, is_leaf });
    }

    // ----- load accounting --------------------------------------------

    /// Total load across active groups under the configured model.
    pub fn current_load(&self) -> f64 {
        self.config
            .load_model
            .server_load(self.table.active_loads())
    }

    /// Position of the current load relative to the thresholds.
    pub fn load_level(&self) -> LoadLevel {
        LoadLevel::classify(
            self.current_load(),
            self.config.underload_threshold(),
            self.config.overload_threshold(),
        )
    }

    /// Replaces the load of an active group (data-plane accounting,
    /// normally driven by the cluster's per-group ledgers).
    ///
    /// # Errors
    ///
    /// Propagates table errors for unknown/inactive groups.
    pub fn set_group_load(&mut self, group: Prefix, load: GroupLoad) -> Result<(), ClashError> {
        self.table.set_load(group, load)
    }

    // ----- split/merge policy -----------------------------------------

    /// The group this server would split first under the configured
    /// [`SplitPolicy`] (paper §6: "we selected the 'hottest' key group ...
    /// for splitting during overload"). Groups with zero load are never
    /// candidates — splitting them can shed nothing, and an overloaded
    /// server whose hot groups are all at maximum depth simply cannot
    /// shed (the paper's key-granularity limit).
    pub fn hottest_splittable(&self) -> Option<Prefix> {
        let model = &self.config.load_model;
        let mut candidates = self
            .table
            .active_groups()
            .filter(|e| e.group.depth() < self.config.max_depth)
            .filter(|e| model.group_load(e.load) > 0.0);
        match self.config.split_policy {
            SplitPolicy::Hottest => candidates
                .max_by(|a, b| {
                    model
                        .group_load(a.load)
                        .total_cmp(&model.group_load(b.load))
                })
                .map(|e| e.group),
            SplitPolicy::FirstLoaded => candidates.next().map(|e| e.group),
        }
    }

    /// Splits `group` locally: the entry goes inactive, the left child
    /// becomes a local active leaf carrying the parent's load, and the
    /// right child group is returned for DHT placement.
    ///
    /// # Errors
    ///
    /// Propagates table errors (unknown group, not active, at max depth).
    pub fn split_group(&mut self, group: Prefix) -> Result<(Prefix, Prefix), ClashError> {
        let result = self.table.split(group)?;
        self.stats.splits += 1;
        Ok(result)
    }

    /// Records the server that accepted the right child of a split.
    ///
    /// # Errors
    ///
    /// Propagates table errors.
    pub fn set_right_child(&mut self, group: Prefix, server: ServerId) -> Result<(), ClashError> {
        self.table.set_right_child(group, server)
    }

    /// The best consolidation candidate: the inactive parent entry whose
    /// two children are leaves with the smallest combined load, subject to
    /// the merge headroom (paper §6: "the 'coldest' active key-group for
    /// possible consolidation during underload").
    ///
    /// Returns the parent group, the holder of the right child, and the
    /// children's combined load.
    pub fn merge_candidate(&self) -> Option<(Prefix, ServerId, GroupLoad)> {
        let model = &self.config.load_model;
        let mut best: Option<(Prefix, ServerId, GroupLoad, f64)> = None;
        for entry in self.table.entries().filter(|e| !e.active) {
            let Some((parent, right_holder, combined)) = self.mergeable_children(entry) else {
                continue;
            };
            let combined_load = model.group_load(combined);
            if combined_load > self.config.merge_headroom() {
                continue;
            }
            match &best {
                Some((_, _, _, l)) if *l <= combined_load => {}
                _ => best = Some((parent, right_holder, combined, combined_load)),
            }
        }
        best.map(|(p, s, c, _)| (p, s, c))
    }

    /// If `entry`'s two children are currently mergeable leaves, returns
    /// `(parent group, right-child holder, combined child load)`.
    fn mergeable_children(&self, entry: &TableEntry) -> Option<(Prefix, ServerId, GroupLoad)> {
        let parent = entry.group;
        let right_holder = entry.right_child?;
        let (left, right) = parent.split().ok()?;
        let left_entry = self.table.entry(left)?;
        if !left_entry.active {
            return None;
        }
        let right_load = if right_holder == self.id {
            // Self-mapped right child: inspect it directly.
            let right_entry = self.table.entry(right)?;
            if !right_entry.active {
                return None;
            }
            right_entry.load
        } else {
            let report = entry.last_child_report?;
            if !report.is_leaf {
                return None;
            }
            report.load
        };
        Some((parent, right_holder, left_entry.load.combined(right_load)))
    }

    /// Completes a merge after the right child has been reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates table errors when the children stopped being leaves.
    pub fn merge_group(&mut self, parent: Prefix, right_load: GroupLoad) -> Result<(), ClashError> {
        self.table.merge(parent, right_load)?;
        self.stats.merges += 1;
        Ok(())
    }

    /// The load reports this server's entries owe their parents this
    /// period: `(destination server, child group, load, is_leaf)`.
    ///
    /// Only *right* children report: the left child always lives on the
    /// same server as its parent entry and is read from the table directly
    /// (see [`ClashServer::handle_load_report`], which enforces the same
    /// rule on the receiving side). Active entries report `is_leaf =
    /// true`; *inactive* entries report `is_leaf = false` so that a parent
    /// holding a stale "leaf" report cannot attempt a merge the child
    /// would refuse. Reports to ourselves (self-mapped right children)
    /// are included; root groups report to nobody.
    pub fn pending_reports(&self) -> Vec<(ServerId, Prefix, GroupLoad, bool)> {
        let mut reports = Vec::new();
        self.for_each_pending_report(|dest, group, load, is_leaf| {
            reports.push((dest, group, load, is_leaf));
        });
        reports
    }

    /// Visits every pending report in table order without allocating —
    /// the cluster's report-delivery path appends into a reused scratch
    /// buffer through this.
    pub fn for_each_pending_report(
        &self,
        mut visit: impl FnMut(ServerId, Prefix, GroupLoad, bool),
    ) {
        for entry in self.table.entries() {
            if let ParentRef::Server(parent_server) = entry.parent {
                if entry.group.last_bit() == Some(1) {
                    visit(parent_server, entry.group, entry.load, entry.active);
                }
            }
        }
    }

    /// True if [`ClashServer::pending_reports`] would be non-empty. The
    /// cluster maintains its reporter candidate set from this, so the
    /// per-period delivery sweep touches only servers that actually owe
    /// reports.
    pub fn owes_reports(&self) -> bool {
        self.table
            .entries()
            .any(|e| matches!(e.parent, ParentRef::Server(_)) && e.group.last_bit() == Some(1))
    }

    /// Depth statistics over this server's active groups:
    /// `(min, mean, max)`.
    pub fn depth_stats(&self) -> Option<(u32, f64, u32)> {
        cover::depth_stats(self.table.active_groups().map(|e| e.group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::key::Key;

    fn cfg() -> ClashConfig {
        ClashConfig::small_test() // 8-bit keys, capacity 100
    }

    fn sid(v: u64) -> ServerId {
        ServerId::new(v, cfg().hash_space)
    }

    fn server() -> ClashServer {
        ClashServer::new(sid(1), cfg())
    }

    fn p(s: &str) -> Prefix {
        Prefix::parse(s, 8).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::parse(s, 8).unwrap()
    }

    fn rate(r: f64) -> GroupLoad {
        GroupLoad {
            data_rate: r,
            queries: 0,
        }
    }

    #[test]
    fn load_levels_follow_thresholds() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        assert_eq!(s.load_level(), LoadLevel::Underloaded);
        s.set_group_load(p("01*"), rate(70.0)).unwrap();
        assert_eq!(s.load_level(), LoadLevel::Nominal);
        s.set_group_load(p("01*"), rate(95.0)).unwrap();
        assert_eq!(s.load_level(), LoadLevel::Overloaded);
        assert!((s.current_load() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_splittable_picks_max_load() {
        let mut s = server();
        s.bootstrap_root(p("00*")).unwrap();
        s.bootstrap_root(p("01*")).unwrap();
        s.bootstrap_root(p("10*")).unwrap();
        s.set_group_load(p("00*"), rate(10.0)).unwrap();
        s.set_group_load(p("01*"), rate(50.0)).unwrap();
        s.set_group_load(p("10*"), rate(30.0)).unwrap();
        assert_eq!(s.hottest_splittable(), Some(p("01*")));
    }

    #[test]
    fn first_loaded_policy_ignores_heat() {
        let mut config = cfg();
        config.split_policy = SplitPolicy::FirstLoaded;
        let mut s = ClashServer::new(sid(1), config);
        s.bootstrap_root(p("00*")).unwrap();
        s.bootstrap_root(p("01*")).unwrap();
        s.set_group_load(p("00*"), rate(10.0)).unwrap();
        s.set_group_load(p("01*"), rate(50.0)).unwrap();
        assert_eq!(s.hottest_splittable(), Some(p("00*")));
    }

    #[test]
    fn hottest_skips_groups_at_max_depth() {
        let mut config = cfg();
        config.max_depth = 3;
        let mut s = ClashServer::new(sid(1), config);
        s.bootstrap_root(p("010*")).unwrap(); // at max depth
        s.bootstrap_root(p("00*")).unwrap();
        s.set_group_load(p("010*"), rate(99.0)).unwrap();
        s.set_group_load(p("00*"), rate(1.0)).unwrap();
        assert_eq!(s.hottest_splittable(), Some(p("00*")));
    }

    #[test]
    fn accept_object_routes_through_table() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        assert_eq!(
            s.handle_accept_object(k("01010101"), 2),
            AcceptObjectResponse::Ok { depth: 2 }
        );
        assert_eq!(
            s.handle_accept_object(k("01010101"), 5),
            AcceptObjectResponse::OkCorrected { depth: 2 }
        );
        assert_eq!(
            s.handle_accept_object(k("11010101"), 5),
            AcceptObjectResponse::IncorrectDepth { d_min: Some(0) }
        );
        assert_eq!(s.stats().probes_answered, 3);
    }

    #[test]
    fn split_and_report_flow() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        s.set_group_load(p("01*"), rate(95.0)).unwrap();
        let (left, right) = s.split_group(p("01*")).unwrap();
        assert_eq!((left, right), (p("010*"), p("011*")));
        s.set_right_child(p("01*"), sid(9)).unwrap();
        // Left child carries the load until the data plane repartitions.
        assert!((s.current_load() - 95.0).abs() < 1e-9);
        assert_eq!(s.stats().splits, 1);
        // The left child does NOT report: it is co-located with its parent
        // entry, whose holder reads it from the table directly. Only right
        // children send load reports.
        assert!(s.pending_reports().is_empty());
        // A self-mapped right child, by contrast, does report (locally).
        s.handle_accept_keygroup(p("011*"), s.id(), rate(40.0))
            .unwrap();
        let reports = s.pending_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, sid(1));
        assert_eq!(reports[0].1, p("011*"));
        assert!(reports[0].3);
    }

    #[test]
    fn non_leaf_entries_report_not_leaf() {
        let mut s = server();
        // Accept a group from a remote parent, then split it: the now
        // inactive entry must report is_leaf = false to sid(2).
        s.handle_accept_keygroup(p("011*"), sid(2), rate(10.0))
            .unwrap();
        s.split_group(p("011*")).unwrap();
        s.set_right_child(p("011*"), sid(7)).unwrap();
        let reports = s.pending_reports();
        let to_remote: Vec<_> = reports.iter().filter(|r| r.0 == sid(2)).collect();
        assert_eq!(to_remote.len(), 1);
        assert_eq!(to_remote[0].1, p("011*"));
        assert!(!to_remote[0].3, "split entry must report non-leaf");
    }

    #[test]
    fn root_groups_send_no_reports() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        assert!(s.pending_reports().is_empty());
    }

    #[test]
    fn merge_candidate_requires_leaf_children_and_headroom() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        s.set_group_load(p("01*"), rate(40.0)).unwrap();
        let (left, _right) = s.split_group(p("01*")).unwrap();
        s.set_right_child(p("01*"), sid(9)).unwrap();
        s.set_group_load(left, rate(20.0)).unwrap();
        // No report from the right child yet → not mergeable.
        assert_eq!(s.merge_candidate(), None);
        // A non-leaf report → still not mergeable.
        s.handle_load_report(p("011*"), rate(10.0), false);
        assert_eq!(s.merge_candidate(), None);
        // A leaf report within headroom (merge headroom = 54) → mergeable.
        s.handle_load_report(p("011*"), rate(10.0), true);
        let (parent, holder, combined) = s.merge_candidate().unwrap();
        assert_eq!(parent, p("01*"));
        assert_eq!(holder, sid(9));
        assert!((combined.data_rate - 30.0).abs() < 1e-9);
        // A hot report blows the headroom → not mergeable again.
        s.handle_load_report(p("011*"), rate(90.0), true);
        assert_eq!(s.merge_candidate(), None);
    }

    #[test]
    fn merge_candidate_with_local_right_child() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        let (left, right) = s.split_group(p("01*")).unwrap();
        s.set_right_child(p("01*"), s.id()).unwrap(); // self-mapped
        s.handle_accept_keygroup(right, s.id(), rate(5.0)).unwrap();
        s.set_group_load(left, rate(3.0)).unwrap();
        let (parent, holder, combined) = s.merge_candidate().unwrap();
        assert_eq!(parent, p("01*"));
        assert_eq!(holder, s.id());
        assert!((combined.data_rate - 8.0).abs() < 1e-9);
        s.merge_group(parent, GroupLoad::zero()).unwrap();
        assert_eq!(s.table().active_count(), 1);
        assert_eq!(s.stats().merges, 1);
        s.table().check_invariants().unwrap();
    }

    #[test]
    fn merge_candidate_picks_coldest() {
        let mut s = server();
        s.bootstrap_root(p("00*")).unwrap();
        s.bootstrap_root(p("01*")).unwrap();
        for g in ["00*", "01*"] {
            s.split_group(p(g)).unwrap();
            s.set_right_child(p(g), sid(9)).unwrap();
        }
        s.set_group_load(p("000*"), rate(10.0)).unwrap();
        s.set_group_load(p("010*"), rate(2.0)).unwrap();
        s.handle_load_report(p("001*"), rate(10.0), true);
        s.handle_load_report(p("011*"), rate(2.0), true);
        let (parent, _, _) = s.merge_candidate().unwrap();
        assert_eq!(parent, p("01*"), "colder pair should win");
    }

    #[test]
    fn release_keygroup_responses() {
        let mut s = server();
        s.handle_accept_keygroup(p("011*"), sid(2), rate(4.0))
            .unwrap();
        assert_eq!(
            s.handle_release_keygroup(p("011*")),
            ReleaseResponse::Released { load: rate(4.0) }
        );
        assert_eq!(
            s.handle_release_keygroup(p("011*")),
            ReleaseResponse::Refused
        );
        assert_eq!(s.stats().groups_released, 1);
    }

    #[test]
    fn depth_stats_cover_active_groups() {
        let mut s = server();
        s.bootstrap_root(p("01*")).unwrap();
        s.bootstrap_root(p("1*")).unwrap();
        let (_l, _r) = s.split_group(p("01*")).unwrap();
        s.set_right_child(p("01*"), sid(3)).unwrap();
        // Active: 010* (depth 3) and 1* (depth 1).
        let (min, mean, max) = s.depth_stats().unwrap();
        assert_eq!(min, 1);
        assert_eq!(max, 3);
        assert!((mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_server_has_no_stats() {
        let s = server();
        assert_eq!(s.depth_stats(), None);
        assert_eq!(s.hottest_splittable(), None);
        assert_eq!(s.merge_candidate(), None);
        assert_eq!(s.current_load(), 0.0);
    }
}
