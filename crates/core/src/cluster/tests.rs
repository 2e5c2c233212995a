use super::*;
use clash_keyspace::key::{Key, KeyWidth};
use clash_obs::{CheckPhase, PhaseProfile, PhaseProfiler, TraceEventKind, TraceMode};
use clash_simkernel::metrics::SummarySnapshot;
use clash_transport::TransportStats;

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, KeyWidth::new(8).unwrap())
}

/// A profiler that counts, per phase, spans begun and not yet ended.
#[derive(Default)]
struct OpenPhases(PhaseProfile);

impl PhaseProfiler for OpenPhases {
    fn begin(&mut self, phase: CheckPhase) {
        self.0.ms[phase.index()] += 1.0;
    }
    fn end(&mut self, phase: CheckPhase) {
        self.0.ms[phase.index()] -= 1.0;
    }
    fn profile(&self) -> PhaseProfile {
        self.0
    }
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
    c.flush_batch().unwrap();
    let owner = c.server(p.server).unwrap();
    assert!((owner.current_load() - 2.0).abs() < 1e-9);
    c.detach_source(1).unwrap();
    assert_eq!(c.source_count(), 0);
    c.flush_batch().unwrap();
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
fn reserved_client_id_rejected() {
    let mut c = cluster(8);
    let refused =
        |r: Result<Placement, ClashError>| matches!(r, Err(ClashError::InvalidConfig { .. }));
    assert!(refused(c.attach_source(u64::MAX, key(3), 1.0)));
    assert!(refused(c.attach_query(u64::MAX, key(3))));
    assert_eq!((c.source_count(), c.query_count()), (0, 0));
    c.attach_source(u64::MAX - 1, key(3), 1.0).unwrap();
    c.attach_query(u64::MAX - 1, key(3)).unwrap();
    c.detach_source(u64::MAX - 1).unwrap();
    c.flush_batch().unwrap();
    c.verify_consistency();
}

#[test]
fn group_moves_count_live_members_only() {
    let mut c = cluster(8);
    // One group, half of whose members have left (too few exits for the
    // member lists to compact).
    let p = c.attach_source(0, key(0), 0.1).unwrap();
    for i in 1..20 {
        c.attach_source(i, key(i), 0.1).unwrap();
    }
    for q in 0..4 {
        c.attach_query(100 + q, key(q)).unwrap();
    }
    for i in (0..20).step_by(2) {
        c.detach_source(i).unwrap();
    }
    c.detach_query(100).unwrap();
    c.flush_batch().unwrap();
    let before = c.message_stats();
    c.fail_server(p.server).unwrap();
    c.flush_batch().unwrap();
    let after = c.message_stats();
    assert_eq!(after.redirect_messages - before.redirect_messages, 10);
    assert_eq!(
        after.state_transfer_messages - before.state_transfer_messages,
        3
    );
    c.verify_consistency();
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
    c.flush_batch().unwrap();
    let owner = c.server(p.server).unwrap();
    assert!((owner.current_load() - 2.0).abs() < 1e-9);
}

#[test]
fn move_source_uses_hint_and_keeps_rate() {
    let mut c = cluster(8);
    c.attach_source(7, key(0b0000_0001), 2.0).unwrap();
    c.flush_batch().unwrap();
    let before = c.message_stats();
    let p = c.move_source(7, key(0b0000_0010)).unwrap();
    c.flush_batch().unwrap();
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
    c.flush_batch().unwrap();
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
    c.flush_batch().unwrap();
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
    c.flush_batch().unwrap();
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
    c.flush_batch().unwrap();
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
    // corrupts state, including load checks. Every probe closes its own
    // window, through the flush's error arm when it hits the cut: the
    // span and the phase that flush opened must close all the same, and
    // it must send nothing past the cut.
    c.set_trace_sink(TraceMode::Full.make_sink());
    c.set_profiler(Box::new(OpenPhases::default()));
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
    let events = c.take_trace_events();
    let count = |pred: fn(&TraceEventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let begun = count(|k| matches!(k, TraceEventKind::FlushBegin { probes: 1, .. }));
    assert!(begun >= 256, "one flush per probe, got {begun}");
    assert_eq!(
        begun,
        count(|k| matches!(k, TraceEventKind::FlushEnd { .. })),
        "a failed flush left its trace span open"
    );
    assert_eq!(
        c.phase_profile().ms,
        [0.0; 10],
        "a failed flush left a profiler phase open"
    );
    assert_eq!(
        c.transport_stats().unreachable,
        failed,
        "a probe stops at the cut: one refused send per failed locate"
    );
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
    c.flush_batch().unwrap();
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
        let islands: Vec<Vec<ServerId>> = c.server_ids().into_iter().map(|id| vec![id]).collect();
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
    // Four servers, one cut off: the hot server commits a self-mapped
    // split, then routes its next right child through a reachable hop
    // before the cut. The latency of that hop still reaches the split's
    // observation. Constants recorded from one-`send`-per-message code.
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        4,
        19,
        Box::new(LinkTransport::new(LinkPolicy::lan(), 19)),
    )
    .unwrap();
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    let ids = c.server_ids();
    c.partition_network(&[vec![], vec![ids[2]]]);
    let report = c.run_load_check().unwrap();
    assert_eq!(report.splits.len(), 1);
    assert_eq!(report.splits[0].right_child_server, report.splits[0].server);
    assert_eq!(c.message_stats().self_mapped_retries, 1);
    let partial = 2.573_000_000_000_000_4;
    assert_eq!(
        c.latency_metrics().split.summary().snapshot(),
        SummarySnapshot {
            count: 1,
            mean: partial,
            stddev: 0.0,
            min: partial,
            max: partial,
        }
    );
    assert_eq!(
        c.transport_stats(),
        TransportStats {
            messages: 446,
            retransmissions: 0,
            unreachable: 2,
            total_latency_us: 454_775,
            per_class: [298, 148, 0, 0, 0, 0, 0, 0],
        }
    );
}

#[test]
fn each_report_observes_its_own_delivery() {
    use clash_transport::{LinkPolicy, LinkTransport};
    // A check's reports leave in one dispatch and are read back in
    // order. A report read back with another link's delivery keeps the
    // latency multiset but reorders the observations, which moves the
    // summary's last bits. Constants recorded from one-`send`-per-message
    // code.
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        4,
        0,
        Box::new(LinkTransport::new(LinkPolicy::wan(), 0)),
    )
    .unwrap();
    for i in 0..1000 {
        c.attach_source(i, key(i % 256), 2.0).unwrap();
    }
    for _ in 0..6 {
        c.run_load_check().unwrap();
    }
    assert_eq!(c.message_stats().report_messages, 618);
    assert_eq!(
        c.latency_metrics().report.summary().snapshot(),
        SummarySnapshot {
            count: 618,
            mean: 100.172_103_559_870_5,
            stddev: 27.276_239_706_500_817,
            min: 25.697_000_000_000_003,
            max: 195.869,
        }
    );
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

/// Runtime mirror of the clash-lint static rules, pinned: the flush's
/// route phase (first route → last route) must never draw from
/// the cluster RNG — the in-phase assertion fails the flush if it
/// does, and `route_draw_checks` proves the instrumented path really
/// ran.
#[cfg(debug_assertions)]
#[test]
fn route_phase_draws_zero_from_cluster_rng() {
    let mut c = cluster(8);
    for i in 0..300u64 {
        c.attach_source(i, key(i % 256), 1.0).unwrap();
    }
    c.flush_batch().unwrap();
    assert!(c.route_draw_checks() > 0, "route phase was never checked");
    c.run_load_check().unwrap();
    c.verify_consistency();
}
