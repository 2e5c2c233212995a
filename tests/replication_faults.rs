//! Fault matrix for successor-list replication (PR: real crash recovery
//! without the oracle).
//!
//! Three adversarial corners beyond the happy path the unit and property
//! tests cover:
//!
//! 1. **Crash while partitioned** — every live replica of the victim's
//!    groups sits on the unreachable side: recovery *defers* (the groups
//!    leave the active cover) and completes at the first load check after
//!    healing, with 100% oracle agreement pinned afterwards.
//! 2. **Crash of the owner and every replica holder at once** — the
//!    state is genuinely lost: the `FailureReport` must say so truthfully
//!    (groups/sources/queries lost) instead of silently re-rooting
//!    populated groups from the oracle.
//! 3. **Crash immediately after a split** — the retired parent group's
//!    replica was invalidated at split time and must not be promoted;
//!    only the children come back.
//!
//! Plus the `range_query`-under-churn coverage gap: after a join, a
//! crash and a partition heal, `range_query` must still walk exactly the
//! oracle's cover.

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_core::ServerId;
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_transport::{LinkPolicy, LinkTransport};

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, ClashConfig::small_test().key_width)
}

/// An 8-server cluster over a LAN link transport with replication `r`,
/// heated so every server owns load-bearing groups.
fn lan_cluster(r: usize, seed: u64) -> ClashCluster {
    let config = ClashConfig::small_test().with_replication(r);
    let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), seed));
    let mut c = ClashCluster::with_transport(config, 8, seed, transport).unwrap();
    for i in 0..96 {
        c.attach_source(i, key((i * 7) % 256), 1.5).unwrap();
    }
    c.run_load_check().unwrap();
    c.verify_consistency();
    c
}

/// Puts every server on one island: nothing is severed, but the
/// transport reports a partition, so every probe is charged on its own
/// — the reference the barrier-closed locate window is pinned against.
fn close_every_window_per_probe(c: &mut ClashCluster) {
    let everyone = c.server_ids();
    c.partition_network(&[everyone]);
}

/// Sweeps every key against the oracle; panics on the first divergence.
fn assert_full_oracle_agreement(c: &mut ClashCluster) {
    for bits in 0..256u64 {
        let k = key(bits);
        let placement = c.locate(k).unwrap();
        let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
        assert_eq!(placement.server, oracle_server, "key {k}");
        assert_eq!(placement.group, oracle_group, "key {k}");
    }
}

/// Scenario 1: the victim's only replicas end up reachable solely from
/// the wrong side of a partition, so recovery must defer and then
/// complete after healing.
///
/// Construction (r = 1): the victim V's single replica of each group
/// lives on V's first successor S. A new server J with an id wedged
/// between V and S joins *while V's island is severed*: J becomes V's
/// first successor — and the new `Map()` owner of V's groups once V
/// dies — but the seed V → J cannot cross the partition, so the old
/// copies on S are retained (never invalidate the last replica). V then
/// crashes: the new owner J can reach no replica (S is on the other
/// island), recovery defers, and the healed cluster promotes at the next
/// load check.
#[test]
fn crash_while_partitioned_defers_and_heals_to_full_agreement() {
    let mut c = lan_cluster(1, 11);
    // Pick a victim that owns active groups and has a successor gap we
    // can wedge a joiner into.
    let (victim, join_id) = c
        .server_ids()
        .into_iter()
        .find_map(|id| {
            let owns = c.server(id).unwrap().table().active_count() > 0;
            let succ = c.net().alive_successors(id, 1);
            let gap = succ.first().is_some_and(|s| {
                s.value().wrapping_sub(id.value()) & c.config().hash_space.mask() > 1
            });
            (owns && gap).then(|| (id, ServerId::new(id.value() + 1, c.config().hash_space)))
        })
        .expect("some owner has a successor gap");
    let victim_groups: Vec<Prefix> = c
        .server(victim)
        .unwrap()
        .table()
        .active_groups()
        .map(|e| e.group)
        .collect();
    let sources_before = c.source_count();
    let old_holder = c.net().alive_successors(victim, 1)[0];

    // Sever {victim, old replica holder} from the rest; the joiner's id
    // is pre-listed on the *other* island, so the join-time re-seed
    // V → J is undeliverable (the old copies on the holder are retained)
    // and, after the crash, the new owner J cannot reach the holder.
    let others: Vec<ServerId> = c
        .server_ids()
        .into_iter()
        .filter(|&id| id != victim && id != old_holder)
        .chain(std::iter::once(join_id))
        .collect();
    c.partition_network(&[vec![victim, old_holder], others]);
    c.join_server(join_id).unwrap();
    c.verify_consistency();

    // Crash the victim: its replicas survive on the old successor, which
    // the new owner (the joiner) cannot reach — recovery defers.
    let report = c.fail_server(victim).unwrap();
    assert!(
        report.groups_deferred > 0,
        "unreachable replicas must defer recovery: {report:?}"
    );
    assert_eq!(report.groups_lost, 0, "nothing is lost, only deferred");
    assert_eq!(report.sources_lost, 0);
    assert_eq!(c.pending_recoveries(), report.groups_deferred);
    assert_eq!(c.recovery_oracle_reads(), 0);
    c.verify_consistency();

    // While deferred, the groups are out of the cover: lookups into them
    // fail (diverged search or severed route), but nothing panics and
    // load checks keep running without completing the recovery.
    let probe = victim_groups[0].min_key();
    assert!(
        c.locate(probe).is_err(),
        "a deferred group's keys must not resolve"
    );
    assert_eq!(c.recovery_retry_counters(), (0, 0), "no load check yet");
    c.run_load_check().unwrap();
    assert_eq!(c.pending_recoveries(), report.groups_deferred);
    c.verify_consistency();
    // The blocked retry is counted, not silent: one attempt per deferred
    // group, all of them blocked.
    let deferred = report.groups_deferred as u64;
    assert_eq!(c.recovery_retry_counters(), (deferred, deferred));

    // Heal: the next load check promotes every deferred group, and the
    // whole key space agrees with the oracle again — pinned at 100%.
    c.heal_partition();
    let check = c.run_load_check().unwrap();
    assert_eq!(check.recoveries_completed, report.groups_deferred as u64);
    assert_eq!(check.recoveries_lost, 0);
    assert_eq!(c.pending_recoveries(), 0);
    assert_eq!(c.recovery_oracle_reads(), 0);
    // Retry conservation: every retry attempt landed in exactly one of
    // blocked / completed / lost, and the counters surface in telemetry.
    let (retries, blocked) = c.recovery_retry_counters();
    assert_eq!(
        retries,
        blocked + check.recoveries_completed + check.recoveries_lost,
        "retry conservation"
    );
    assert_eq!((retries, blocked), (2 * deferred, deferred));
    let t = c.telemetry();
    assert_eq!(t.counter_value("recovery.retries"), Some(retries));
    assert_eq!(t.counter_value("recovery.retries_blocked"), Some(blocked));
    assert_eq!(
        t.counter_value("recovery.deferred_max_wait_checks"),
        Some(1),
        "each entry waited exactly one blocked check"
    );
    c.verify_consistency();
    assert!(c.global_cover().is_partition());
    assert_eq!(c.source_count(), sources_before, "no client was lost");
    assert_full_oracle_agreement(&mut c);
}

/// Regression: a partition must never cost a group its last replica.
/// With r = 1 and the owner isolated alone, a ledger write during the
/// partition prunes the unreachable holder from the owner's registry
/// (write-through honesty) — but the holder must *keep* its copy: lease
/// expiry only triggers on owner death, never on mere deregistration.
/// A crash of the isolated owner then still recovers from that copy.
#[test]
fn partition_starved_write_through_never_expires_the_last_replica() {
    let mut c = lan_cluster(1, 11);
    let victim = c
        .server_ids()
        .into_iter()
        .find(|&id| c.server(id).unwrap().table().active_count() > 0)
        .unwrap();
    let victim_source = c
        .server(victim)
        .unwrap()
        .table()
        .active_groups()
        .find_map(|e| (e.load.data_rate > 0.0).then_some(e.group))
        .and_then(|g| (0..96).find(|&s| c.oracle_locate(key((s * 7) % 256)).unwrap().1 == g))
        .expect("the victim owns a populated group");

    // Isolate the owner alone; every replica holder is on the far side.
    let others: Vec<ServerId> = c
        .server_ids()
        .into_iter()
        .filter(|&id| id != victim)
        .collect();
    c.partition_network(&[vec![victim], others]);

    // A ledger write during the partition: the write-through cannot reach
    // the holder, which falls off the registry. A load check runs the
    // lease sweep. The holder's copy must survive both.
    c.detach_source(victim_source).unwrap();
    c.run_load_check().unwrap();

    // Crash the isolated owner: the surviving copy (reconciled against
    // the client registry, so the detached source stays detached) is
    // promoted — nothing is lost.
    let report = c.fail_server(victim).unwrap();
    assert_eq!(
        report.groups_lost, 0,
        "the last replica was expired during the partition: {report:?}"
    );
    assert_eq!(c.recovery_oracle_reads(), 0);
    c.verify_consistency();
    c.heal_partition();
    c.run_load_check().unwrap();
    assert_eq!(c.pending_recoveries(), 0);
    c.verify_consistency();
    assert_eq!(c.source_count(), 95);
    assert_full_oracle_agreement(&mut c);
}

/// Scenario 2: owner and *all* replica holders die in one correlated
/// burst. The groups are genuinely gone — the report must say so, the
/// stranded clients must be dropped, and the re-rooted groups must be
/// empty rather than silently resurrected from the oracle.
#[test]
fn owner_plus_all_replicas_lost_is_reported_truthfully() {
    let mut c = lan_cluster(2, 5);
    // Kill an owner together with both of its replica holders.
    let owner = c
        .server_ids()
        .into_iter()
        .find(|&id| c.server(id).unwrap().table().active_count() > 0)
        .unwrap();
    let owned: Vec<Prefix> = c
        .server(owner)
        .unwrap()
        .table()
        .active_groups()
        .map(|e| e.group)
        .collect();
    let mut victims = vec![owner];
    victims.extend(c.net().alive_successors(owner, 2));
    assert_eq!(victims.len(), 3, "r = 2 places two holders");
    let sources_before = c.source_count();
    let queries_before = c.query_count();

    let report = c.fail_servers(&victims).unwrap();
    assert_eq!(report.servers_failed, 3);
    assert!(
        report.groups_lost >= owned.len(),
        "the owner's groups had no surviving replica: {report:?}"
    );
    assert_eq!(report.groups_deferred, 0);
    assert_eq!(c.recovery_oracle_reads(), 0);
    // Truthful loss accounting: the stranded clients are gone...
    assert_eq!(c.source_count(), sources_before - report.sources_lost);
    assert_eq!(c.query_count(), queries_before - report.queries_lost);
    // ...and the re-rooted groups are empty, not resurrected.
    for g in &owned {
        let (new_owner, _) = c.oracle_locate(g.min_key()).unwrap();
        let entry = c.server(new_owner).unwrap().table().entry(*g);
        if let Some(entry) = entry {
            assert_eq!(
                entry.load.data_rate, 0.0,
                "lost group {g} must come back empty"
            );
        }
    }
    c.verify_consistency();
    assert!(c.global_cover().is_partition());
    assert_full_oracle_agreement(&mut c);
    // The system keeps adapting afterwards.
    c.run_load_check().unwrap();
    c.verify_consistency();
}

/// Scenario 3: crash immediately after a split. The retired parent's
/// replicas were invalidated at split time, so recovery promotes only
/// the children — a stale parent must never shadow them.
#[test]
fn crash_immediately_after_split_promotes_children_not_stale_parent() {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::small_test().with_replication(2)
    };
    let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), 9));
    let mut c = ClashCluster::with_transport(config, 8, 9, transport).unwrap();
    // Heat one quadrant hard so the owner splits.
    for i in 0..80 {
        c.attach_source(i, key(0b0100_0000 | (i % 64)), 2.0)
            .unwrap();
    }
    let check = c.run_load_check().unwrap();
    assert!(!check.splits.is_empty(), "the hot quadrant must split");
    let split = check.splits[0];
    let parent = split.group;
    // No replica of the retired parent survives anywhere.
    for id in c.server_ids() {
        assert!(
            c.server(id).unwrap().replica_store().held(parent).is_none(),
            "stale parent replica on {id}"
        );
    }
    // Crash the splitting server right away — no further load check.
    let report = c.fail_server(split.server).unwrap();
    assert_eq!(report.groups_lost, 0);
    assert_eq!(report.groups_deferred, 0);
    assert_eq!(c.recovery_oracle_reads(), 0);
    c.verify_consistency();
    // The parent is not active anywhere; its keys resolve to the
    // recovered children (strictly deeper groups).
    for bits in 0..256u64 {
        let k = key(bits);
        let (_, group) = c.oracle_locate(k).unwrap();
        assert_ne!(group, parent, "stale parent was promoted");
    }
    assert_full_oracle_agreement(&mut c);
}

/// Coverage gap: `range_query` under churn and crashes. After a join, a
/// partitioned crash and a heal, the distributed walk must match
/// `oracle_range` exactly on hot and cold ranges alike.
#[test]
fn range_query_matches_oracle_after_join_crash_heal() {
    let mut c = lan_cluster(2, 21);
    c.join_random_server().unwrap();
    c.verify_consistency();

    // Partition the fleet, crash a server mid-partition (its recovery
    // may promote directly or defer), then heal and let a load check
    // settle everything.
    let ids = c.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    c.partition_network(&[left.to_vec(), right.to_vec()]);
    let victim = left[0];
    c.fail_server(victim).unwrap();
    c.verify_consistency();
    c.heal_partition();
    for _ in 0..2 {
        c.run_load_check().unwrap();
    }
    assert_eq!(c.pending_recoveries(), 0, "healing completes recovery");
    c.verify_consistency();

    // The §7 walk agrees with the oracle on every quadrant and on the
    // full key space.
    for pattern in ["00*", "01*", "10*", "11*"] {
        let range = Prefix::parse(pattern, 8).unwrap();
        let walked = c.range_query(range).unwrap();
        assert_eq!(walked.groups, c.oracle_range(range), "range {pattern}");
        assert!(walked.distinct_servers >= 1);
    }
    let root = Prefix::root(c.config().key_width);
    let walked = c.range_query(root).unwrap();
    assert_eq!(walked.groups, c.oracle_range(root));
    assert_eq!(c.recovery_oracle_reads(), 0);

    // The walk's own cost does not depend on when its probes are
    // charged: one by one, or by the flush that ends the walk.
    let walk = |per_probe: bool| {
        let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), 21));
        let mut c =
            ClashCluster::with_transport(ClashConfig::small_test(), 16, 21, transport).unwrap();
        for i in 0..200 {
            c.attach_source(i, key((i * 7) % 256), 1.5).unwrap();
        }
        c.run_load_check().unwrap();
        if per_probe {
            close_every_window_per_probe(&mut c);
        }
        let walked = c.range_query(root).unwrap();
        (walked.probes, walked.messages, walked.groups)
    };
    let sequential = walk(true);
    assert!(sequential.0 as usize >= sequential.2.len());
    assert_eq!(walk(false), sequential);
}

/// A loaded cluster crashes and recovers consistently with replication
/// off (recovery reads the oracle) and on (recovery promotes replicas).
#[test]
fn each_replication_factor_survives_a_crash() {
    for r in [0, 2] {
        crash_and_recover_at(r);
    }
}

fn crash_and_recover_at(r: usize) {
    let config = ClashConfig::small_test().with_replication(r);
    let mut c = ClashCluster::new(config, 8, 3).unwrap();
    for i in 0..60 {
        c.attach_source(i, key(i % 256), 1.5).unwrap();
    }
    c.run_load_check().unwrap();
    let victim = c
        .server_ids()
        .into_iter()
        .find(|&id| c.server(id).unwrap().table().active_count() > 0)
        .unwrap();
    let report = c.fail_server(victim).unwrap();
    assert!(report.groups_reassigned > 0);
    if r >= 1 {
        assert_eq!(report.groups_lost, 0);
        assert_eq!(c.recovery_oracle_reads(), 0);
    } else {
        assert!(c.recovery_oracle_reads() > 0, "r = 0 leans on the oracle");
    }
    c.verify_consistency();
    assert!(c.global_cover().is_partition());
    assert_eq!(c.source_count(), 60);
}

/// Crash on an open locate window: the crash is a barrier that flushes
/// the window before the promotion pulls state from the victim's
/// replica holders. The windowed cluster must produce the identical
/// `FailureReport`, message accounting and post-recovery state as a
/// probe-by-probe twin — and a partitioned crash + heal afterwards
/// (every window closes per probe during the partition) must land both
/// at 100% oracle agreement.
#[test]
fn cross_shard_crash_promotes_like_sequential_and_heals() {
    let config = ClashConfig::small_test().with_replication(2);
    let mk = |per_probe: bool| {
        let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), 11));
        let mut c = ClashCluster::with_transport(config, 8, 11, transport).unwrap();
        if per_probe {
            close_every_window_per_probe(&mut c);
        }
        for i in 0..96 {
            c.attach_source(i, key((i * 7) % 256), 1.5).unwrap();
        }
        c.run_load_check().unwrap();
        c.verify_consistency();
        c
    };
    let mut seq = mk(true);
    let mut sharded = mk(false);

    let victim = seq
        .server_ids()
        .into_iter()
        .find(|&id| seq.server(id).unwrap().table().active_count() > 0)
        .expect("some server owns an active group");

    let ra = seq.fail_server(victim).unwrap();
    let rb = sharded.fail_server(victim).unwrap();
    assert_eq!(ra, rb, "failure reports diverged");
    assert_eq!(ra.groups_lost, 0, "replicas existed: nothing may be lost");
    assert_eq!(sharded.recovery_oracle_reads(), 0);
    sharded.flush_batch().unwrap();
    assert_eq!(seq.message_stats(), sharded.message_stats());
    assert_eq!(seq.server_loads(), sharded.server_loads());
    // Sweep both (the sweep itself locates, so sweeping only one would
    // un-mirror the message accounting compared below).
    assert_full_oracle_agreement(&mut seq);
    assert_full_oracle_agreement(&mut sharded);
    sharded.flush_batch().unwrap();

    // Partitioned crash + heal, mirrored on both: every window closes
    // per probe while partitioned, and the healed promotion must agree
    // too.
    let ids = seq.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    seq.partition_network(&[left.to_vec(), right.to_vec()]);
    sharded.partition_network(&[left.to_vec(), right.to_vec()]);
    let ra = seq.fail_server(left[0]).unwrap();
    let rb = sharded.fail_server(left[0]).unwrap();
    assert_eq!(ra, rb, "partitioned failure reports diverged");
    seq.heal_partition();
    close_every_window_per_probe(&mut seq);
    sharded.heal_partition();
    for _ in 0..2 {
        let ca = seq.run_load_check().unwrap();
        let cb = sharded.run_load_check().unwrap();
        assert_eq!(ca, cb, "post-heal load checks diverged");
    }
    assert_eq!(sharded.pending_recoveries(), 0);
    assert_eq!(sharded.recovery_oracle_reads(), 0);
    assert_eq!(seq.message_stats(), sharded.message_stats());
    assert_eq!(seq.server_loads(), sharded.server_loads());
    sharded.verify_consistency();
    assert!(sharded.global_cover().is_partition());
    assert_full_oracle_agreement(&mut seq);
    assert_full_oracle_agreement(&mut sharded);
    sharded.flush_batch().unwrap();
    assert_eq!(seq.message_stats(), sharded.message_stats());
    assert_eq!(seq.transport_stats(), sharded.transport_stats());
}

/// Rapid partition flapping around a deferred recovery: severing and
/// healing between (and across) load checks must never strand a
/// `pending_recovery` entry — the first check that runs on a healed
/// network drains it — and the retry counters stay conserved through
/// every flap.
#[test]
fn partition_flapping_drains_pending_recovery() {
    let mut c = lan_cluster(1, 11);
    let (victim, join_id) = c
        .server_ids()
        .into_iter()
        .find_map(|id| {
            let owns = c.server(id).unwrap().table().active_count() > 0;
            let succ = c.net().alive_successors(id, 1);
            let gap = succ.first().is_some_and(|s| {
                s.value().wrapping_sub(id.value()) & c.config().hash_space.mask() > 1
            });
            (owns && gap).then(|| (id, ServerId::new(id.value() + 1, c.config().hash_space)))
        })
        .expect("some owner has a successor gap");
    let old_holder = c.net().alive_successors(victim, 1)[0];
    let others: Vec<ServerId> = c
        .server_ids()
        .into_iter()
        .filter(|&id| id != victim && id != old_holder)
        .chain(std::iter::once(join_id))
        .collect();
    let islands = [vec![victim, old_holder], others];
    c.partition_network(&islands);
    c.join_server(join_id).unwrap();
    let report = c.fail_server(victim).unwrap();
    assert!(report.groups_deferred > 0, "setup must defer: {report:?}");
    let deferred = report.groups_deferred as u64;

    // Flap: heal and immediately re-sever (no load check in between) —
    // the retry window never opens, nothing changes hands.
    let flap_islands = [islands[0].clone(), islands[1].clone()];
    for _ in 0..4 {
        c.heal_partition();
        c.partition_network(&flap_islands);
    }
    assert_eq!(c.pending_recoveries(), report.groups_deferred);
    c.verify_consistency();

    // Flap *across* retry windows: each severed check blocks, each
    // healed moment is immediately re-cut before the next check runs.
    for _ in 0..2 {
        c.run_load_check().unwrap();
        assert_eq!(c.pending_recoveries(), report.groups_deferred);
        c.heal_partition();
        c.partition_network(&flap_islands);
    }
    let (retries, blocked) = c.recovery_retry_counters();
    assert_eq!((retries, blocked), (2 * deferred, 2 * deferred));
    c.verify_consistency();

    // Final heal: the very next check drains every pending entry.
    c.heal_partition();
    let check = c.run_load_check().unwrap();
    assert_eq!(check.recoveries_completed, deferred);
    assert_eq!(check.recoveries_lost, 0);
    assert_eq!(
        c.pending_recoveries(),
        0,
        "flapping must not strand entries"
    );
    let (retries, blocked) = c.recovery_retry_counters();
    assert_eq!(
        retries,
        blocked + check.recoveries_completed + check.recoveries_lost,
        "retry conservation across flaps"
    );
    assert_eq!(
        c.telemetry()
            .counter_value("recovery.deferred_max_wait_checks"),
        Some(2),
        "two blocked checks is the longest any entry waited"
    );
    assert_eq!(c.recovery_oracle_reads(), 0);
    c.verify_consistency();
    assert!(c.global_cover().is_partition());
    assert_full_oracle_agreement(&mut c);
}

/// `fail_servers` input validation is part of the public contract.
#[test]
fn burst_api_rejects_degenerate_input() {
    let mut c = lan_cluster(1, 2);
    assert!(matches!(
        c.fail_servers(&[]),
        Err(ClashError::InvalidConfig { .. })
    ));
    let ids = c.server_ids();
    assert!(matches!(
        c.fail_servers(&ids),
        Err(ClashError::InvalidConfig { .. })
    ));
    assert_eq!(c.server_count(), 8, "rejected calls must not mutate");
    c.verify_consistency();
}

/// The fixed-depth baseline materializes a group on its first attach and
/// dematerializes it on its last detach, replicas included — so its load
/// pushes cannot wait for a barrier the way the adaptive protocol's do.
/// The constants were recorded from the charge-at-the-op code the locate
/// window replaced (same seeds, same calls).
#[test]
fn baseline_churn_materializes_and_dematerializes_like_the_sequential_path() {
    let config = ClashConfig::dht_baseline(8).with_replication(2);
    let key = |bits: u64| Key::from_bits_truncated(bits << 16, config.key_width);
    let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), 29));
    let mut c = ClashCluster::with_transport(config, 8, 29, transport).unwrap();
    let mut peak_groups = 0;
    for round in 0..6u64 {
        for i in 0..40u64 {
            let bits = (round * 31 + i * 5) % 256;
            c.attach_source(round * 40 + i, key(bits), 1.0).unwrap();
        }
        peak_groups = peak_groups.max(c.global_cover().len());
        for i in (0..40u64).filter(|i| (i + round) % 3 != 0) {
            c.detach_source(round * 40 + i).unwrap();
        }
        c.run_load_check().unwrap();
        c.verify_consistency();
    }
    assert_eq!((peak_groups, c.global_cover().len()), (104, 80));
    assert_eq!(c.source_count(), 80);
    let msgs = c.message_stats();
    assert_eq!(
        (msgs.probes, msgs.probe_messages, msgs.locates),
        (240, 752, 240)
    );
    assert_eq!(msgs.replication_messages, 1262);
    assert_eq!(msgs.control_messages(), 752 + 1262);
    let transport = c.transport_stats();
    assert_eq!(transport.messages, 2014);
    assert_eq!(transport.total_latency_us, 2_202_851);
    assert_eq!(transport.per_class, [512, 240, 0, 0, 0, 0, 788, 474]);
    assert_eq!(c.rng_draws(), 240);
}
