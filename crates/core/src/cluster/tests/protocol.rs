// Data plane and load check: attach, locate, split, merge, baselines
// and crash re-homing on an instant transport.

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

/// Installing a recorder discards what the old one held, shed count
/// included: `Off` records and sheds nothing, and a new ring starts
/// empty and keeps at most its bound.
#[test]
fn set_trace_replaces_the_recorder_and_what_it_held() {
    fn ops(c: &mut ClashCluster, bits: std::ops::Range<u64>) {
        for b in bits {
            c.locate(key(b)).unwrap();
        }
        c.flush_batch().unwrap();
        c.run_load_check().unwrap();
    }
    let mut c = cluster(8);
    c.set_trace(TraceMode::Ring(4));
    ops(&mut c, 0..32);
    assert!(c.trace_dropped() > 0, "32 locates overflow a 4-event ring");

    c.set_trace(TraceMode::Off);
    ops(&mut c, 32..64);
    assert!(c.take_trace_events().is_empty());
    assert_eq!(c.trace_dropped(), 0);

    c.set_trace(TraceMode::Ring(8));
    assert!(c.take_trace_events().is_empty(), "a new ring starts empty");
    assert_eq!(c.trace_dropped(), 0);
    ops(&mut c, 64..96);
    let kept = c.take_trace_events();
    assert_eq!(kept.len(), 8, "the ring keeps its newest 8 events");
    assert!(c.trace_dropped() > 0);
    assert!(
        kept.windows(2).all(|w| w[0].seq < w[1].seq),
        "oldest first"
    );
}
