// Joins and graceful drains.

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

/// An id from another hash space can sit above the ring's mask: the
/// join is refused before it reaches the ring.
#[test]
fn join_rejects_id_from_another_hash_space() {
    let mut c = cluster(4);
    let bits = ClashConfig::small_test().hash_space.bits() + 8;
    let wider = clash_keyspace::hash::HashSpace::new(bits).unwrap();
    let foreign = ServerId::new(u64::MAX, wider);
    assert!(matches!(
        c.join_server(foreign),
        Err(ClashError::InvalidConfig { .. })
    ));
    assert_eq!(c.server_count(), 4);
    c.verify_consistency();
}

/// `mem.ring_bytes` is the ring's sorted ids, its directory and its
/// crashed ids: 6 ids and a 9-slot directory at construction, room for
/// 12 ids after the first join, and 4 crashed slots after a crash.
#[test]
fn ring_bytes_are_pinned() {
    let mut c = cluster(6);
    let bytes = |c: &ClashCluster| c.telemetry().counter_value("mem.ring_bytes");
    assert_eq!(bytes(&c), Some(8 * 6 + 4 * 9));
    c.join_random_server().unwrap();
    assert_eq!(bytes(&c), Some(8 * 12 + 4 * 9));
    c.fail_server(c.server_ids()[0]).unwrap();
    assert_eq!(bytes(&c), Some(8 * (12 + 4) + 4 * 9));
    assert_eq!(bytes(&c), Some(c.net().heap_bytes()));
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
    // After joins, drains and a crash burst the servers are still listed
    // in ascending ring order, one per alive ring node.
    let ids = c.server_ids();
    c.fail_servers(&[ids[0], ids[ids.len() / 2]]).unwrap();
    c.verify_consistency();
    let ids = c.server_ids();
    assert_eq!(ids, c.net().node_ids());
    assert!(ids.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(ids.len(), c.server_count());
    assert!(ids.iter().all(|&id| c.server(id).is_some()));
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
