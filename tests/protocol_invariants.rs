//! Long random-walk stress over the cluster protocol: after every batch
//! of arbitrary operations, the global invariants of §4–5 must hold.

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::messages::AcceptObjectResponse;
use clash_keyspace::key::Key;
use clash_simkernel::rng::DetRng;

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, ClashConfig::small_test().key_width)
}

#[test]
fn random_walk_preserves_all_invariants() {
    let mut cluster = ClashCluster::new(ClashConfig::small_test(), 12, 3).unwrap();
    let mut rng = DetRng::new(1234);
    let mut live_sources: Vec<u64> = Vec::new();
    let mut live_queries: Vec<u64> = Vec::new();
    let mut next_id = 0u64;

    for step in 0..2000u32 {
        match rng.uniform_u64(10) {
            // Attach a source (weighted toward hot region to force splits).
            0..=3 => {
                let bits = if rng.chance(0.7) {
                    0b1100_0000 | rng.uniform_u64(64)
                } else {
                    rng.uniform_u64(256)
                };
                cluster.attach_source(next_id, key(bits), 2.0).unwrap();
                live_sources.push(next_id);
                next_id += 1;
            }
            // Detach a source.
            4..=5 => {
                if !live_sources.is_empty() {
                    let idx = rng.uniform_index(live_sources.len());
                    let id = live_sources.swap_remove(idx);
                    cluster.detach_source(id).unwrap();
                }
            }
            // Move a source.
            6 => {
                if !live_sources.is_empty() {
                    let idx = rng.uniform_index(live_sources.len());
                    let id = live_sources[idx];
                    cluster.move_source(id, key(rng.uniform_u64(256))).unwrap();
                }
            }
            // Query churn.
            7 => {
                cluster
                    .attach_query(next_id, key(rng.uniform_u64(256)))
                    .unwrap();
                live_queries.push(next_id);
                next_id += 1;
            }
            8 => {
                if !live_queries.is_empty() {
                    let idx = rng.uniform_index(live_queries.len());
                    let id = live_queries.swap_remove(idx);
                    cluster.detach_query(id).unwrap();
                }
            }
            // Load check (splits + merges).
            _ => {
                cluster.run_load_check().unwrap();
            }
        }
        if step % 100 == 0 {
            cluster.flush_batch().unwrap();
            cluster.verify_consistency();
            assert!(cluster.global_cover().is_partition());
        }
    }
    cluster.flush_batch().unwrap();
    cluster.verify_consistency();

    // Final: every possible key locates to the oracle owner.
    for bits in 0..256u64 {
        let k = key(bits);
        let placement = cluster.locate(k).unwrap();
        let (oracle_server, oracle_group) = cluster.oracle_locate(k).unwrap();
        assert_eq!(placement.server, oracle_server, "key {k}");
        assert_eq!(placement.group, oracle_group, "key {k}");
    }
}

#[test]
fn every_server_respects_dmin_soundness_after_stress() {
    let mut cluster = ClashCluster::new(ClashConfig::small_test(), 10, 8).unwrap();
    let mut rng = DetRng::new(5678);
    for i in 0..150u64 {
        let bits = 0b0100_0000 | rng.uniform_u64(64);
        cluster.attach_source(i, key(bits), 2.5).unwrap();
    }
    for _ in 0..5 {
        cluster.run_load_check().unwrap();
    }
    // The d_min theorem, checked exhaustively over keys × servers.
    for bits in 0..256u64 {
        let k = key(bits);
        let (_, group) = cluster.oracle_locate(k).unwrap();
        let d_c = group.depth();
        for id in cluster.server_ids() {
            let resp = cluster.server(id).unwrap().table().classify_object(k, 4);
            match resp {
                AcceptObjectResponse::Ok { depth }
                | AcceptObjectResponse::OkCorrected { depth } => {
                    assert_eq!(depth, d_c, "owner must report the true depth");
                }
                AcceptObjectResponse::IncorrectDepth { d_min: Some(m) } => {
                    assert!(m < d_c, "d_min {m} must undershoot true depth {d_c}");
                }
                AcceptObjectResponse::IncorrectDepth { d_min: None } => {
                    assert_eq!(cluster.server(id).unwrap().table().len(), 0);
                }
            }
        }
    }
}

#[test]
fn probe_counts_stay_logarithmic_under_deep_trees() {
    let mut cluster = ClashCluster::new(
        ClashConfig {
            capacity: 50.0,
            ..ClashConfig::small_test()
        },
        16,
        21,
    )
    .unwrap();
    let mut rng = DetRng::new(99);
    for i in 0..200u64 {
        cluster
            .attach_source(i, key(0b1110_0000 | rng.uniform_u64(32)), 2.0)
            .unwrap();
    }
    for _ in 0..6 {
        cluster.run_load_check().unwrap();
    }
    let (_, _, max_depth) = cluster.depth_stats().unwrap();
    assert!(max_depth >= 7, "tree should be deep, got {max_depth}");
    // N = 8 → binary search bound ⌈log2(9)⌉ + 1 = 5.
    for bits in 0..256u64 {
        let placement = cluster.locate(key(bits)).unwrap();
        assert!(
            placement.probes <= 5,
            "key {bits:#b} took {} probes",
            placement.probes
        );
    }
}
