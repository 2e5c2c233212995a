//! Churn stress: membership changes *while* the workload runs and the
//! protocol keeps every invariant. (The paper fixes membership during
//! its experiments; this exercises the crash-recovery extension of
//! docs/ARCHITECTURE.md § Membership and the live join/drain subsystem
//! under sustained load.)

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_keyspace::key::Key;
use clash_simkernel::rng::DetRng;

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, ClashConfig::small_test().key_width)
}

/// Every scenario here must hold both with the oracle crutch (r = 0)
/// and with real successor-list replication (r = 2), so each runs once
/// per factor.
const REPLICATION_FACTORS: [usize; 2] = [0, 2];

fn test_config(r: usize) -> ClashConfig {
    ClashConfig::small_test().with_replication(r)
}

#[test]
fn interleaved_crashes_and_workload() {
    for r in REPLICATION_FACTORS {
        interleaved_crashes_and_workload_at(r);
    }
}

fn interleaved_crashes_and_workload_at(r: usize) {
    let mut cluster = ClashCluster::new(test_config(r), 20, 77).unwrap();
    let mut rng = DetRng::new(42);
    let mut next_source = 0u64;
    let mut live: Vec<u64> = Vec::new();

    for round in 0..12u32 {
        // Workload burst: attach skewed sources, churn some keys.
        for _ in 0..25 {
            let bits = if rng.chance(0.6) {
                0b1010_0000 | rng.uniform_u64(32)
            } else {
                rng.uniform_u64(256)
            };
            cluster.attach_source(next_source, key(bits), 2.0).unwrap();
            live.push(next_source);
            next_source += 1;
        }
        for _ in 0..10 {
            if !live.is_empty() {
                let idx = rng.uniform_index(live.len());
                cluster
                    .move_source(live[idx], key(rng.uniform_u64(256)))
                    .unwrap();
            }
        }
        cluster.run_load_check().unwrap();

        // Crash a random server every other round (down to a floor of 6).
        if round % 2 == 1 && cluster.server_count() > 6 {
            let ids = cluster.server_ids();
            let victim = ids[rng.uniform_index(ids.len())];
            let report = cluster.fail_server(victim).unwrap();
            // Recovery bookkeeping is internally consistent.
            assert!(report.groups_reassigned <= 64);
            cluster.verify_consistency();
            assert!(cluster.global_cover().is_partition());
        }

        // Spot-check lookups against the oracle every round.
        for _ in 0..20 {
            let k = key(rng.uniform_u64(256));
            let placement = cluster.locate(k).unwrap();
            let (oracle_server, oracle_group) = cluster.oracle_locate(k).unwrap();
            assert_eq!(placement.server, oracle_server);
            assert_eq!(placement.group, oracle_group);
            assert!(placement.probes <= 5);
        }
    }
    // Six crashes happened; the fleet shrank but kept serving.
    assert_eq!(cluster.server_count(), 14);
    assert_eq!(cluster.source_count(), 12 * 25);
    cluster.flush_batch().unwrap();
    cluster.verify_consistency();
}

#[test]
fn crash_during_deep_split_state() {
    for r in REPLICATION_FACTORS {
        crash_during_deep_split_state_at(r);
    }
}

fn crash_during_deep_split_state_at(r: usize) {
    // Crash the server holding the deepest group while the tree is deep,
    // then verify merges still work afterwards (pointers were repaired).
    let mut cluster = ClashCluster::new(
        ClashConfig {
            capacity: 60.0,
            ..test_config(r)
        },
        10,
        5,
    )
    .unwrap();
    for i in 0..120u64 {
        cluster
            .attach_source(i, key(0b0110_0000 | (i % 32)), 2.0)
            .unwrap();
    }
    for _ in 0..4 {
        cluster.run_load_check().unwrap();
    }
    let (_, _, deep) = cluster.depth_stats().unwrap();
    assert!(deep > 4);

    // Find the server owning the deepest group and kill it.
    let deepest_owner = cluster
        .server_ids()
        .into_iter()
        .max_by_key(|&id| {
            cluster
                .server(id)
                .unwrap()
                .depth_stats()
                .map_or(0, |(_, _, max)| max)
        })
        .unwrap();
    cluster.fail_server(deepest_owner).unwrap();
    cluster.verify_consistency();

    // Cool the system; consolidation must still make progress even though
    // some subtrees were orphaned into roots by the crash.
    for i in 0..120u64 {
        cluster.detach_source(i).unwrap();
    }
    let depth_before = cluster.depth_stats().unwrap().2;
    for _ in 0..10 {
        cluster.run_load_check().unwrap();
    }
    let depth_after = cluster.depth_stats().unwrap().2;
    assert!(
        depth_after <= depth_before,
        "consolidation regressed: {depth_before} -> {depth_after}"
    );
    assert!(cluster.global_cover().is_partition());
}

#[test]
fn elastic_capacity_under_sustained_load() {
    for r in REPLICATION_FACTORS {
        elastic_capacity_under_sustained_load_at(r);
    }
}

fn elastic_capacity_under_sustained_load_at(r: usize) {
    // The utility-computing loop: scale out under pressure (joins), scale
    // back in as demand fades (graceful drains), with crashes sprinkled
    // in — all while the workload keeps moving keys.
    let mut cluster = ClashCluster::new(test_config(r), 8, 99).unwrap();
    let mut rng = DetRng::new(7);
    let mut next_source = 0u64;

    // Scale-out phase: heat the cluster, then add capacity live.
    for _ in 0..80 {
        let bits = 0b0100_0000 | rng.uniform_u64(64);
        cluster.attach_source(next_source, key(bits), 2.0).unwrap();
        next_source += 1;
    }
    cluster.run_load_check().unwrap();
    for _ in 0..4 {
        let report = cluster.join_random_server().unwrap();
        assert!(report.stabilization_rounds > 0);
        cluster.verify_consistency();
    }
    assert_eq!(cluster.server_count(), 12);
    // One crash amid the growth; the fleet absorbs it.
    let ids = cluster.server_ids();
    cluster
        .fail_server(ids[rng.uniform_index(ids.len())])
        .unwrap();

    // Keys keep churning across the membership changes.
    for s in 0..next_source {
        if rng.chance(0.3) {
            cluster.move_source(s, key(rng.uniform_u64(256))).unwrap();
        }
    }
    cluster.run_load_check().unwrap();

    // Scale-in phase: demand fades, drain nodes back out.
    for s in 0..60 {
        cluster.detach_source(s).unwrap();
    }
    while cluster.server_count() > 6 {
        let ids = cluster.server_ids();
        let victim = ids[rng.uniform_index(ids.len())];
        cluster.leave_server(victim).unwrap();
        cluster.verify_consistency();
        assert!(cluster.global_cover().is_partition());
    }
    for _ in 0..8 {
        cluster.run_load_check().unwrap();
    }

    // Full service: every key resolves correctly and cheaply.
    for bits in 0..=255u64 {
        let k = key(bits);
        let placement = cluster.locate(k).unwrap();
        let (oracle_server, oracle_group) = cluster.oracle_locate(k).unwrap();
        assert_eq!(placement.server, oracle_server);
        assert_eq!(placement.group, oracle_group);
        assert!(placement.probes <= 5);
    }
    // Drains and crashes lost no attached state.
    assert_eq!(cluster.source_count() as u64, next_source - 60);
    cluster.flush_batch().unwrap();
    let stats = cluster.message_stats();
    assert_eq!(stats.joins, 4);
    assert!(stats.leaves >= 5);
    assert!(stats.handoff_messages > 0);
}

#[test]
fn sequential_crashes_preserve_all_data_plane_state() {
    for r in REPLICATION_FACTORS {
        sequential_crashes_preserve_all_data_plane_state_at(r);
    }
}

fn sequential_crashes_preserve_all_data_plane_state_at(r: usize) {
    let mut cluster = ClashCluster::new(test_config(r), 12, 123).unwrap();
    for i in 0..60u64 {
        cluster.attach_source(i, key(i * 4), 1.5).unwrap();
    }
    for q in 0..30u64 {
        cluster.attach_query(1000 + q, key(q * 8)).unwrap();
    }
    let total_rate = 60.0 * 1.5;
    for round in 0..5 {
        let ids = cluster.server_ids();
        cluster.fail_server(ids[round % ids.len()]).unwrap();
        // No rate and no query may be lost by a crash (state transfer is
        // synchronous in the harness; durability is the DHT layer's job).
        let rate: f64 = cluster.server_loads().iter().map(|&(_, l)| l).sum();
        let queries: u64 = cluster
            .server_ids()
            .iter()
            .flat_map(|&id| cluster.server(id).unwrap().table().active_loads())
            .map(|l| l.queries)
            .sum();
        // Load includes the query-count term; compare rates via ledger by
        // subtracting the query contribution is fiddly — instead assert
        // both components independently.
        assert_eq!(queries, 30, "queries lost in round {round}");
        assert!(
            rate >= total_rate,
            "rate lost in round {round}: {rate} < {total_rate}"
        );
        assert_eq!(cluster.query_count(), 30);
        assert_eq!(cluster.source_count(), 60);
    }
}
