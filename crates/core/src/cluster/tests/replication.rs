// Successor-list replication and replica-based crash recovery.

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
fn a_split_cut_after_self_mapped_retries_keeps_its_right_child_replicated() {
    use clash_transport::{LinkPolicy, LinkTransport};
    // The four-server cut of `committed_splits_under_partition_are_always_reported`
    // with replication on: the hot server commits a self-mapped split,
    // then the partition cuts its next placement, so the last right
    // child stays active locally. It must still be seeded on its
    // successors, or sit on the sync worklist until it can be.
    for r in 1..=3 {
        let config = ClashConfig::small_test().with_replication(r);
        let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), 19));
        let mut c = ClashCluster::with_transport(config, 4, 19, transport).unwrap();
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        let ids = c.server_ids();
        c.partition_network(&[vec![], vec![ids[2]]]);
        let report = c.run_load_check().unwrap();
        assert_eq!(report.splits.len(), 1, "r={r}");
        assert_eq!(report.splits[0].right_child_server, report.splits[0].server);
        assert_eq!(c.message_stats().self_mapped_retries, 1, "r={r}");
        c.verify_consistency();
        c.heal_partition();
        c.run_load_check().unwrap();
        c.verify_consistency();
    }
}
