//! The CLASH server: a pure protocol state machine around a
//! [`ServerTable`].
//!
//! The server owns no I/O — the cluster harness (or the full simulator)
//! calls its handlers and routes the responses. This keeps every
//! protocol decision unit-testable: overload detection, the choice of the
//! group to shed ("hottest"), the choice to consolidate ("coldest eligible
//! parent"), and the three-way `ACCEPT_OBJECT` case analysis (the
//! table's [`ServerTable::classify_object`]).
//!
//! A server holds only its own state: its table, its replicas and one
//! counter. The settings its decisions read are the cluster's one
//! [`ClashConfig`], passed in by the caller.

use clash_keyspace::cover;
use clash_keyspace::prefix::Prefix;

use crate::config::{ClashConfig, SplitPolicy};
use crate::load::{self, GroupLoad, LoadLevel};
use crate::messages::ReleaseResponse;
use crate::replication::ReplicaStore;
use crate::table::{ChildReport, ParentRef, ServerTable, TableEntry};
use crate::ServerId;

/// Counters for one server's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// `ACCEPT_OBJECT` probes answered.
    pub probes_answered: u64,
}

/// A CLASH server.
///
/// # Example
///
/// ```
/// use clash_core::config::ClashConfig;
/// use clash_core::server::ClashServer;
/// use clash_core::{LoadLevel, ServerId};
///
/// let cfg = ClashConfig::small_test();
/// let id = ServerId::new(5, cfg.hash_space);
/// let server = ClashServer::new(id);
/// assert_eq!(server.id(), id);
/// assert!(server.table().is_empty());
/// // An empty server carries no load, so it sits below the threshold.
/// assert_eq!(server.load_level(&cfg), LoadLevel::Underloaded);
/// assert_eq!(server.hottest_splittable(&cfg), None);
/// ```
#[derive(Debug, Clone)]
pub struct ClashServer {
    table: ServerTable,
    stats: ServerStats,
    /// Successor-list replication state: replicas held for ring
    /// predecessors plus the placement registry for this server's own
    /// groups. Unused (and empty) when the replication factor is 0.
    replicas: ReplicaStore,
}

impl ClashServer {
    /// Creates a server with an empty table.
    pub fn new(id: ServerId) -> Self {
        ClashServer {
            table: ServerTable::new(id),
            replicas: ReplicaStore::default(),
            stats: ServerStats::default(),
        }
    }

    /// This server's DHT identifier (its table's owner).
    pub fn id(&self) -> ServerId {
        self.table.owner()
    }

    /// Read access to the server table.
    pub fn table(&self) -> &ServerTable {
        &self.table
    }

    /// Mutable table access for the cluster's protocol and recovery
    /// procedures.
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

    // ----- request handlers (§5) -------------------------------------

    /// Counts an `ACCEPT_OBJECT` probe the cluster answered off the table.
    pub(crate) fn count_probe_answered(&mut self) {
        self.stats.probes_answered += 1;
    }

    /// Handles `RELEASE_KEYGROUP`: returns the group's load if it is still
    /// an active leaf here, otherwise refuses (the paper's stale-report
    /// case).
    pub fn handle_release_keygroup(&mut self, group: Prefix) -> ReleaseResponse {
        match self.table.release_group(group) {
            Some(load) => ReleaseResponse::Released { load },
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

    /// Total load across active groups (see [`load::QUERY_WEIGHT`]).
    pub fn current_load(&self) -> f64 {
        load::server_load(self.table.active_loads())
    }

    /// Position of the current load relative to `config`'s thresholds.
    pub fn load_level(&self, config: &ClashConfig) -> LoadLevel {
        LoadLevel::classify(
            self.current_load(),
            config.underload_threshold(),
            config.overload_threshold(),
        )
    }

    // ----- split/merge policy -----------------------------------------

    /// The group this server would split first under `config`'s
    /// [`SplitPolicy`] (paper §6: "we selected the 'hottest' key group ...
    /// for splitting during overload"). Groups with zero load are never
    /// candidates — splitting them can shed nothing, and an overloaded
    /// server whose hot groups are all single keys (depth = key width)
    /// simply cannot shed (the paper's key-granularity limit).
    pub fn hottest_splittable(&self, config: &ClashConfig) -> Option<Prefix> {
        let mut candidates = self
            .table
            .active_groups()
            .filter(|e| e.group.depth() < e.group.width().get())
            .filter(|e| e.load.value() > 0.0);
        match config.split_policy {
            SplitPolicy::Hottest => candidates
                .max_by(|a, b| a.load.value().total_cmp(&b.load.value()))
                .map(|e| e.group),
            SplitPolicy::FirstLoaded => candidates.next().map(|e| e.group),
        }
    }

    /// The best consolidation candidate: the inactive parent entry whose
    /// two children are leaves with the smallest combined load, subject to
    /// `config`'s merge headroom (paper §6: "the 'coldest' active key-group
    /// for possible consolidation during underload").
    ///
    /// Returns the parent group, the holder of the right child, and the
    /// children's combined load.
    pub fn merge_candidate(&self, config: &ClashConfig) -> Option<(Prefix, ServerId, GroupLoad)> {
        let mut best: Option<(Prefix, ServerId, GroupLoad, f64)> = None;
        for entry in self.table.entries().filter(|e| !e.active) {
            let Some((parent, right_holder, combined)) = self.mergeable_children(entry) else {
                continue;
            };
            let combined_load = combined.value();
            if combined_load > config.merge_headroom() {
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
        let right_load = if right_holder == self.id() {
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

    /// Visits the load reports this server's entries owe their parents
    /// this period, in table order: `(destination server, child group,
    /// load, is_leaf)`.
    ///
    /// Only *right* children report: the left child always lives on the
    /// same server as its parent entry and is read from the table directly
    /// (see [`ClashServer::handle_load_report`], which enforces the same
    /// rule on the receiving side). Active entries report `is_leaf =
    /// true`; *inactive* entries report `is_leaf = false` so that a parent
    /// holding a stale "leaf" report cannot attempt a merge the child
    /// would refuse. Reports to ourselves (self-mapped right children)
    /// are included; root groups report to nobody.
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

    /// True if [`ClashServer::for_each_pending_report`] would visit
    /// anything. The cluster maintains its reporter candidate set from
    /// this, so the per-period delivery sweep touches only servers that
    /// actually owe reports.
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
    use crate::messages::AcceptObjectResponse;
    use clash_keyspace::key::Key;

    fn cfg() -> ClashConfig {
        ClashConfig::small_test() // 8-bit keys, capacity 100
    }

    fn sid(v: u64) -> ServerId {
        ServerId::new(v, cfg().hash_space)
    }

    fn server() -> ClashServer {
        ClashServer::new(sid(1))
    }

    /// Every report `s` owes this period, collected.
    fn reports(s: &ClashServer) -> Vec<(ServerId, Prefix, GroupLoad, bool)> {
        let mut out = Vec::new();
        s.for_each_pending_report(|dest, group, load, is_leaf| {
            out.push((dest, group, load, is_leaf));
        });
        out
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
        s.table_mut().insert_root(p("01*")).unwrap();
        assert_eq!(s.load_level(&cfg()), LoadLevel::Underloaded);
        s.table_mut().set_load(p("01*"), rate(70.0)).unwrap();
        assert_eq!(s.load_level(&cfg()), LoadLevel::Nominal);
        s.table_mut().set_load(p("01*"), rate(95.0)).unwrap();
        assert_eq!(s.load_level(&cfg()), LoadLevel::Overloaded);
        assert!((s.current_load() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_splittable_picks_max_load() {
        let mut s = server();
        s.table_mut().insert_root(p("00*")).unwrap();
        s.table_mut().insert_root(p("01*")).unwrap();
        s.table_mut().insert_root(p("10*")).unwrap();
        s.table_mut().set_load(p("00*"), rate(10.0)).unwrap();
        s.table_mut().set_load(p("01*"), rate(50.0)).unwrap();
        s.table_mut().set_load(p("10*"), rate(30.0)).unwrap();
        assert_eq!(s.hottest_splittable(&cfg()), Some(p("01*")));
    }

    #[test]
    fn first_loaded_policy_ignores_heat() {
        let mut config = cfg();
        config.split_policy = SplitPolicy::FirstLoaded;
        let mut s = server();
        s.table_mut().insert_root(p("00*")).unwrap();
        s.table_mut().insert_root(p("01*")).unwrap();
        s.table_mut().set_load(p("00*"), rate(10.0)).unwrap();
        s.table_mut().set_load(p("01*"), rate(50.0)).unwrap();
        assert_eq!(s.hottest_splittable(&config), Some(p("00*")));
        assert_eq!(s.hottest_splittable(&cfg()), Some(p("01*")));
    }

    #[test]
    fn hottest_skips_groups_at_max_depth() {
        let mut s = server();
        s.table_mut().insert_root(p("01011010")).unwrap(); // a single key
        s.table_mut().insert_root(p("00*")).unwrap();
        s.table_mut().set_load(p("01011010"), rate(99.0)).unwrap();
        s.table_mut().set_load(p("00*"), rate(1.0)).unwrap();
        assert_eq!(s.hottest_splittable(&cfg()), Some(p("00*")));
        s.table_mut().set_load(p("00*"), GroupLoad::zero()).unwrap();
        assert_eq!(s.hottest_splittable(&cfg()), None);
    }

    #[test]
    fn accept_object_routes_through_table() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        // The cluster's answer to a probe: classify off the table, count it.
        let mut answer = |key: &str, depth: u32| {
            s.count_probe_answered();
            s.table().classify_object(k(key), depth)
        };
        assert_eq!(answer("01010101", 2), AcceptObjectResponse::Ok { depth: 2 });
        assert_eq!(
            answer("01010101", 5),
            AcceptObjectResponse::OkCorrected { depth: 2 }
        );
        assert_eq!(
            answer("11010101", 5),
            AcceptObjectResponse::IncorrectDepth { d_min: Some(0) }
        );
        assert_eq!(s.stats().probes_answered, 3);
    }

    #[test]
    fn split_and_report_flow() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        s.table_mut().set_load(p("01*"), rate(95.0)).unwrap();
        let (left, right) = s.table_mut().split(p("01*")).unwrap();
        assert_eq!((left, right), (p("010*"), p("011*")));
        s.table_mut().set_right_child(p("01*"), sid(9)).unwrap();
        // Left child carries the load until the data plane repartitions.
        assert!((s.current_load() - 95.0).abs() < 1e-9);
        // The left child does NOT report: it is co-located with its parent
        // entry, whose holder reads it from the table directly. Only right
        // children send load reports.
        assert!(reports(&s).is_empty());
        // A self-mapped right child, by contrast, does report (locally).
        let me = s.id();
        s.table_mut()
            .accept_group(p("011*"), me, rate(40.0))
            .unwrap();
        let reports = reports(&s);
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
        s.table_mut()
            .accept_group(p("011*"), sid(2), rate(10.0))
            .unwrap();
        s.table_mut().split(p("011*")).unwrap();
        s.table_mut().set_right_child(p("011*"), sid(7)).unwrap();
        let reports = reports(&s);
        let to_remote: Vec<_> = reports.iter().filter(|r| r.0 == sid(2)).collect();
        assert_eq!(to_remote.len(), 1);
        assert_eq!(to_remote[0].1, p("011*"));
        assert!(!to_remote[0].3, "split entry must report non-leaf");
    }

    #[test]
    fn root_groups_send_no_reports() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        assert!(reports(&s).is_empty());
    }

    #[test]
    fn merge_candidate_requires_leaf_children_and_headroom() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        s.table_mut().set_load(p("01*"), rate(40.0)).unwrap();
        let (left, _right) = s.table_mut().split(p("01*")).unwrap();
        s.table_mut().set_right_child(p("01*"), sid(9)).unwrap();
        s.table_mut().set_load(left, rate(20.0)).unwrap();
        // No report from the right child yet → not mergeable.
        assert_eq!(s.merge_candidate(&cfg()), None);
        // A non-leaf report → still not mergeable.
        s.handle_load_report(p("011*"), rate(10.0), false);
        assert_eq!(s.merge_candidate(&cfg()), None);
        // A leaf report within headroom (merge headroom = 54) → mergeable.
        s.handle_load_report(p("011*"), rate(10.0), true);
        let (parent, holder, combined) = s.merge_candidate(&cfg()).unwrap();
        assert_eq!(parent, p("01*"));
        assert_eq!(holder, sid(9));
        assert!((combined.data_rate - 30.0).abs() < 1e-9);
        // A hot report blows the headroom → not mergeable again.
        s.handle_load_report(p("011*"), rate(90.0), true);
        assert_eq!(s.merge_candidate(&cfg()), None);
    }

    #[test]
    fn merge_candidate_with_local_right_child() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        let (left, right) = s.table_mut().split(p("01*")).unwrap();
        let me = s.id();
        s.table_mut().set_right_child(p("01*"), me).unwrap(); // self-mapped
        s.table_mut().accept_group(right, me, rate(5.0)).unwrap();
        s.table_mut().set_load(left, rate(3.0)).unwrap();
        let (parent, holder, combined) = s.merge_candidate(&cfg()).unwrap();
        assert_eq!(parent, p("01*"));
        assert_eq!(holder, me);
        assert!((combined.data_rate - 8.0).abs() < 1e-9);
        s.table_mut().merge(parent, GroupLoad::zero()).unwrap();
        assert_eq!(s.table().active_count(), 1);
        s.table().check_invariants().unwrap();
    }

    #[test]
    fn merge_candidate_picks_coldest() {
        let mut s = server();
        s.table_mut().insert_root(p("00*")).unwrap();
        s.table_mut().insert_root(p("01*")).unwrap();
        for g in ["00*", "01*"] {
            s.table_mut().split(p(g)).unwrap();
            s.table_mut().set_right_child(p(g), sid(9)).unwrap();
        }
        s.table_mut().set_load(p("000*"), rate(10.0)).unwrap();
        s.table_mut().set_load(p("010*"), rate(2.0)).unwrap();
        s.handle_load_report(p("001*"), rate(10.0), true);
        s.handle_load_report(p("011*"), rate(2.0), true);
        let (parent, _, _) = s.merge_candidate(&cfg()).unwrap();
        assert_eq!(parent, p("01*"), "colder pair should win");
    }

    #[test]
    fn release_keygroup_responses() {
        let mut s = server();
        s.table_mut()
            .accept_group(p("011*"), sid(2), rate(4.0))
            .unwrap();
        assert_eq!(
            s.handle_release_keygroup(p("011*")),
            ReleaseResponse::Released { load: rate(4.0) }
        );
        assert_eq!(
            s.handle_release_keygroup(p("011*")),
            ReleaseResponse::Refused
        );
        assert!(s.table().is_empty());
    }

    #[test]
    fn depth_stats_cover_active_groups() {
        let mut s = server();
        s.table_mut().insert_root(p("01*")).unwrap();
        s.table_mut().insert_root(p("1*")).unwrap();
        let (_l, _r) = s.table_mut().split(p("01*")).unwrap();
        s.table_mut().set_right_child(p("01*"), sid(3)).unwrap();
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
        assert_eq!(s.hottest_splittable(&cfg()), None);
        assert_eq!(s.merge_candidate(&cfg()), None);
        assert_eq!(s.current_load(), 0.0);
    }
}
