//! Property-based tests for the CLASH protocol theorems.
//!
//! These encode the correctness arguments from `clash_core::client`'s
//! module documentation against *real* cluster states produced by random
//! workloads — not hand-built oracles.

use clash_core::cluster::{ClashCluster, LoadCheckReport, Placement};
use clash_core::config::ClashConfig;
use clash_core::load::GroupLoad;
use clash_core::messages::AcceptObjectResponse;
use clash_core::table::{ParentRef, ServerTable, TableEntry};
use clash_core::ServerId;
use clash_keyspace::hash::HashSpace;
use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;
use clash_transport::{LinkPolicy, LinkTransport};
use proptest::prelude::*;

fn key(bits: u64) -> Key {
    Key::from_bits_truncated(bits, ClashConfig::small_test().key_width)
}

/// Builds a cluster, applies a random workload and runs load checks.
fn loaded_cluster(
    servers: usize,
    seed: u64,
    attachments: &[(u64, f64)],
    checks: usize,
) -> ClashCluster {
    let mut c = ClashCluster::new(ClashConfig::small_test(), servers, seed).unwrap();
    for (i, &(bits, rate)) in attachments.iter().enumerate() {
        c.attach_source(i as u64, key(bits), rate).unwrap();
    }
    for _ in 0..checks {
        c.run_load_check().unwrap();
    }
    c.flush_batch().unwrap();
    c
}

/// What one call of `windowed_locates_match_probe_by_probe` reported.
#[derive(Debug, PartialEq)]
enum Seen {
    Placed(Placement),
    /// A join, leave or crash report, rendered (three report types).
    Membership(String),
    Checked(LoadCheckReport),
}

/// Plays one op of `windowed_locates_match_probe_by_probe` on `c`:
/// `first` is the op's first fresh source id, `wave` the sources a
/// detach wave drops, and `flush_at` closes the window by hand after
/// that many of the op's client calls.
fn play(
    c: &mut ClashCluster,
    op: u8,
    arg: u64,
    first: u64,
    wave: &[u64],
    flush_at: Option<u64>,
) -> Vec<Seen> {
    let mut seen = Vec::new();
    let mut calls = 0u64;
    let mut client_call = |c: &mut ClashCluster| {
        calls += 1;
        if flush_at == Some(calls) {
            c.flush_batch().unwrap();
        }
    };
    let hash_space = c.config().hash_space;
    match op {
        // Workload burst: heat a quadrant chosen by `arg`. Between
        // barriers the whole burst lands in one window.
        0 | 1 => {
            let quadrant = (arg % 4) << 6;
            for j in 0..12 {
                let bits = quadrant | ((arg.wrapping_add(j * 17)) % 64);
                seen.push(Seen::Placed(
                    c.attach_source(first + j, key(bits), 2.0).unwrap(),
                ));
                client_call(c);
            }
        }
        // Detach wave: cool half the attached sources.
        2 => {
            for &sid in wave {
                if c.has_source(sid) {
                    c.detach_source(sid).unwrap();
                    client_call(c);
                }
            }
        }
        // Join a fresh server with an arbitrary ring id (a barrier).
        3 => {
            let id = ServerId::new(arg, hash_space);
            if c.net().node(id).is_none() {
                seen.push(Seen::Membership(format!(
                    "{:?}",
                    c.join_server(id).unwrap()
                )));
            }
        }
        // Graceful drain (4) or crash (5) of an arbitrary server.
        4 | 5 => {
            if c.server_count() > 1 {
                let ids = c.server_ids();
                let victim = ids[(arg as usize) % ids.len()];
                seen.push(Seen::Membership(if op == 4 {
                    format!("{:?}", c.leave_server(victim).unwrap())
                } else {
                    format!("{:?}", c.fail_server(victim).unwrap())
                }));
            }
        }
        // The engineered hot region: heat one quadrant well past one
        // server's capacity so splits place children across the ring,
        // then cool it so merges pull them back — every check of the
        // cycle must report alike.
        8 => {
            for i in 0..96u64 {
                let k = key(((arg % 4) << 6) | (i % 64));
                seen.push(Seen::Placed(c.attach_source(first + i, k, 2.0).unwrap()));
                client_call(c);
            }
            for _ in 0..4 {
                seen.push(Seen::Checked(c.run_load_check().unwrap()));
            }
            for i in 0..96u64 {
                c.detach_source(first + i).unwrap();
            }
            for _ in 0..16 {
                seen.push(Seen::Checked(c.run_load_check().unwrap()));
            }
        }
        // A load-check period elapses (the natural barrier).
        _ => seen.push(Seen::Checked(c.run_load_check().unwrap())),
    }
    seen
}

/// Both windows are closed: everything a reader can see must agree.
fn assert_same_state(reference: &ClashCluster, twin: &ClashCluster) {
    assert_eq!(reference.message_stats(), twin.message_stats());
    assert_eq!(reference.transport_stats(), twin.transport_stats());
    assert_eq!(
        reference.latency_metrics().locate.summary().snapshot(),
        twin.latency_metrics().locate.summary().snapshot()
    );
    assert_eq!(
        reference.global_cover().iter().collect::<Vec<_>>(),
        twin.global_cover().iter().collect::<Vec<_>>()
    );
    assert_eq!(reference.server_loads(), twin.server_loads());
    assert_eq!(reference.rng_draws(), twin.rng_draws());
    twin.verify_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The global active groups always partition the key space, whatever
    /// the workload and however many load checks ran.
    #[test]
    fn active_groups_always_partition(
        servers in 1usize..24,
        seed in 0u64..1000,
        attachments in prop::collection::vec((0u64..256, 0.5f64..4.0), 0..80),
        checks in 0usize..4,
    ) {
        let c = loaded_cluster(servers, seed, &attachments, checks);
        prop_assert!(c.global_cover().is_partition());
        c.verify_consistency();
    }

    /// Client locate always agrees with the oracle and converges within
    /// the paper's bound (≈ log₂ N probes; N = 8 here so ⌈log₂ 9⌉ + 1 = 5).
    #[test]
    fn locate_matches_oracle_and_converges_fast(
        servers in 1usize..24,
        seed in 0u64..1000,
        attachments in prop::collection::vec((0u64..256, 0.5f64..4.0), 0..80),
        probes in prop::collection::vec(0u64..256, 1..20),
    ) {
        let mut c = loaded_cluster(servers, seed, &attachments, 2);
        for bits in probes {
            let k = key(bits);
            let placement = c.locate(k).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
            prop_assert_eq!(placement.server, oracle_server);
            prop_assert_eq!(placement.group, oracle_group);
            prop_assert!(placement.probes <= 5, "{} probes", placement.probes);
        }
    }

    /// The d_min soundness theorem: for any reachable cluster state, any
    /// server's INCORRECT_DEPTH response about any key satisfies
    /// d_min ≤ d_c − 1 (property 2 of the search), and an empty response
    /// implies nothing is stored there at all.
    #[test]
    fn dmin_is_bounded_by_true_depth(
        servers in 2usize..24,
        seed in 0u64..1000,
        attachments in prop::collection::vec((0u64..256, 0.5f64..4.0), 1..80),
        probe_bits in 0u64..256,
        guess in 0u32..=8,
    ) {
        let c = loaded_cluster(servers, seed, &attachments, 2);
        let k = key(probe_bits);
        let (_, oracle_group) = c.oracle_locate(k).unwrap();
        let d_c = oracle_group.depth();
        // Ask EVERY server, not just the protocol-chosen one: the theorem
        // is global.
        for id in c.server_ids() {
            let server = c.server(id).unwrap();
            let resp = server.table().classify_object(k, guess);
            match resp {
                AcceptObjectResponse::Ok { depth }
                | AcceptObjectResponse::OkCorrected { depth } => {
                    // Only the true owner may accept, at the true depth.
                    prop_assert_eq!(depth, d_c);
                    let (oracle_server, _) = c.oracle_locate(k).unwrap();
                    prop_assert_eq!(id, oracle_server);
                }
                AcceptObjectResponse::IncorrectDepth { d_min: Some(m) } => {
                    prop_assert!(
                        m < d_c,
                        "server {} reported d_min {} but true depth is {}",
                        id, m, d_c
                    );
                }
                AcceptObjectResponse::IncorrectDepth { d_min: None } => {
                    prop_assert_eq!(server.table().len(), 0);
                }
            }
        }
        let _ = c;
    }

    /// A server's `d_min` equals the brute-force maximum over its entries
    /// of the per-entry common prefix length, on 24-bit keys.
    #[test]
    fn dmin_matches_bruteforce(
        groups in prop::collection::vec((0u32..=24, 0u64..1 << 24), 1..20),
        probe in 0u64..1 << 24,
    ) {
        let width = KeyWidth::new(24).unwrap();
        let mut table = ServerTable::new(ServerId::new(1, HashSpace::new(16).unwrap()));
        let mut entries = Vec::new();
        for (depth, bits) in groups {
            let group = Prefix::of_key(Key::from_bits_truncated(bits, width), depth);
            entries.push(group);
            // Inactive entries own no key, so every probe gets a d_min.
            let _ = table.install_entry(TableEntry {
                group,
                parent: ParentRef::Root,
                right_child: None,
                active: false,
                load: GroupLoad::zero(),
                last_child_report: None,
            });
        }
        let key = Key::from_bits_truncated(probe, width);
        let expected = entries.iter().map(|g| g.common_prefix_len_with_key(key)).max();
        prop_assert_eq!(
            table.classify_object(key, 0),
            AcceptObjectResponse::IncorrectDepth { d_min: expected }
        );
    }

    /// Property 1 of the search: probing at d ≤ d_c through the protocol's
    /// own Map() contacts a server whose d_min response is ≥ d (or accepts).
    #[test]
    fn shallow_probes_get_deep_dmin(
        servers in 2usize..24,
        seed in 0u64..1000,
        attachments in prop::collection::vec((0u64..256, 0.5f64..4.0), 1..80),
        probe_bits in 0u64..256,
    ) {
        let c = loaded_cluster(servers, seed, &attachments, 2);
        let k = key(probe_bits);
        let (_, oracle_group) = c.oracle_locate(k).unwrap();
        let d_c = oracle_group.depth();
        for d in 0..=d_c {
            // The server the DHT maps the probe to:
            let group_guess = clash_keyspace::prefix::Prefix::of_key(k, d);
            // Use locate_hinted machinery indirectly: probe via cluster by
            // asking the mapped owner directly through the oracle-equality
            // of Map(). We reconstruct it with the public API:
            let placement_server = {
                // probing at the true depth resolves the owner; for
                // shallower d we reproduce Map() via a fresh locate of the
                // virtual key at that exact depth.
                let vkey = group_guess.virtual_key();
                let (owner, _) = c.oracle_locate(vkey).unwrap();
                // oracle_locate(vkey) gives the owner of the virtual key's
                // *group*, which for d ≤ d_c is exactly Map(f(vkey)).
                owner
            };
            let resp = c
                .server(placement_server)
                .unwrap()
                .table()
                .classify_object(k, d);
            match resp {
                AcceptObjectResponse::Ok { .. }
                | AcceptObjectResponse::OkCorrected { .. } => {}
                AcceptObjectResponse::IncorrectDepth { d_min: Some(m) } => {
                    prop_assert!(m >= d, "probe at {} got d_min {}", d, m);
                }
                AcceptObjectResponse::IncorrectDepth { d_min: None } => {
                    prop_assert!(false, "owner of the zero-padded key cannot be empty");
                }
            }
        }
    }

    /// Live membership: lookups agree with the oracle while joins,
    /// graceful leaves and crashes interleave with load checks and
    /// workload bursts, and every membership event leaves the cluster
    /// consistent (the maintenance protocol stabilizes inside each
    /// membership call; load checks and spot lookups act as the live
    /// traffic between events).
    #[test]
    fn membership_churn_keeps_lookups_oracle_consistent(
        servers in 2usize..10,
        seed in 0u64..500,
        ops in prop::collection::vec((0u8..6, 0u64..u64::MAX), 1..14),
    ) {
        let config = ClashConfig::small_test();
        let mut c = ClashCluster::new(config, servers, seed).unwrap();
        let mut next_source = 0u64;
        for &(op, arg) in &ops {
            match op {
                // Workload burst: heat a quadrant chosen by `arg`.
                0 | 1 => {
                    let quadrant = (arg % 4) << 6;
                    for j in 0..12 {
                        let bits = quadrant | ((arg.wrapping_add(j * 17)) % 64);
                        c.attach_source(next_source, key(bits), 2.0).unwrap();
                        next_source += 1;
                    }
                }
                // Join a fresh server with an arbitrary ring id.
                2 => {
                    let id = ServerId::new(arg, config.hash_space);
                    if c.net().node(id).is_none() {
                        let report = c.join_server(id).unwrap();
                        prop_assert_eq!(report.joined, id);
                    }
                }
                // Graceful drain of an arbitrary server.
                3 => {
                    if c.server_count() > 1 {
                        let ids = c.server_ids();
                        let victim = ids[(arg as usize) % ids.len()];
                        c.leave_server(victim).unwrap();
                    }
                }
                // Crash an arbitrary server.
                4 => {
                    if c.server_count() > 1 {
                        let ids = c.server_ids();
                        let victim = ids[(arg as usize) % ids.len()];
                        c.fail_server(victim).unwrap();
                    }
                }
                // A load-check period elapses.
                _ => {
                    c.run_load_check().unwrap();
                }
            }
            // Every event leaves the cluster fully consistent...
            c.flush_batch().unwrap();
            c.verify_consistency();
            prop_assert!(c.global_cover().is_partition());
            // ...and serving correct, bounded lookups.
            for i in 0..8u64 {
                let k = key((arg.wrapping_add(i * 37)) % 256);
                let placement = c.locate(k).unwrap();
                let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
                prop_assert_eq!(placement.server, oracle_server);
                prop_assert_eq!(placement.group, oracle_group);
                prop_assert!(placement.probes <= 5, "{} probes", placement.probes);
            }
        }
        // No data-plane state was lost across all membership changes.
        prop_assert_eq!(c.source_count() as u64, next_source);
        c.flush_batch().unwrap();
        let total: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        prop_assert!((total - next_source as f64 * 2.0).abs() < 1e-6);
    }

    /// Replicated crash recovery is exact and oracle-free: under random
    /// interleavings of joins, graceful leaves, crashes, workload bursts
    /// and load checks with `r ≥ 2`, every crash recovers its groups and
    /// ledgers to exactly the oracle's view (verify_consistency checks
    /// table ↔ oracle ↔ ledger ↔ member-record coherence, and no source
    /// or unit of load may vanish), while the no-oracle-reads-during-
    /// recovery counter stays pinned at 0.
    #[test]
    fn replicated_recovery_is_exact_and_oracle_free(
        servers in 2usize..10,
        seed in 0u64..500,
        ops in prop::collection::vec((0u8..7, 0u64..u64::MAX), 1..14),
    ) {
        let config = ClashConfig::small_test().with_replication(2);
        let mut c = ClashCluster::new(config, servers, seed).unwrap();
        let mut next_source = 0u64;
        for &(op, arg) in &ops {
            match op {
                // Workload burst: heat a quadrant chosen by `arg`.
                0 | 1 => {
                    let quadrant = (arg % 4) << 6;
                    for j in 0..12 {
                        let bits = quadrant | ((arg.wrapping_add(j * 17)) % 64);
                        c.attach_source(next_source, key(bits), 2.0).unwrap();
                        next_source += 1;
                    }
                }
                // Join a fresh server with an arbitrary ring id.
                2 => {
                    let id = ServerId::new(arg, config.hash_space);
                    if c.net().node(id).is_none() {
                        c.join_server(id).unwrap();
                    }
                }
                // Graceful drain of an arbitrary server.
                3 => {
                    if c.server_count() > 1 {
                        let ids = c.server_ids();
                        c.leave_server(ids[(arg as usize) % ids.len()]).unwrap();
                    }
                }
                // Crash an arbitrary server: recovery must be complete
                // (replicas exist for every active group) and oracle-free.
                4 | 5 => {
                    if c.server_count() > 1 {
                        let ids = c.server_ids();
                        let victim = ids[(arg as usize) % ids.len()];
                        let report = c.fail_server(victim).unwrap();
                        prop_assert_eq!(report.groups_lost, 0, "single crash lost groups");
                        prop_assert_eq!(report.groups_deferred, 0, "no partition here");
                        prop_assert_eq!(report.groups_recovered, report.groups_reassigned);
                        prop_assert_eq!(report.sources_lost + report.queries_lost, 0);
                    }
                }
                // A load-check period elapses (replica sync rides along).
                _ => {
                    c.run_load_check().unwrap();
                }
            }
            // After every event: recovered groups + ledgers equal the
            // oracle's view, and recovery never read the oracle.
            prop_assert_eq!(c.recovery_oracle_reads(), 0, "oracle read during recovery");
            c.flush_batch().unwrap();
            c.verify_consistency();
            prop_assert!(c.global_cover().is_partition());
        }
        // No data-plane state was lost across all the crashes.
        prop_assert_eq!(c.source_count() as u64, next_source);
        let total: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
        prop_assert!((total - next_source as f64 * 2.0).abs() < 1e-6);
        // The clients all still resolve to live owners agreeing with the
        // oracle.
        for i in 0..16u64 {
            let k = key((i * 37) % 256);
            let placement = c.locate(k).unwrap();
            let (oracle_server, oracle_group) = c.oracle_locate(k).unwrap();
            prop_assert_eq!(placement.server, oracle_server);
            prop_assert_eq!(placement.group, oracle_group);
        }
    }

    /// When a locate window closes is unobservable: three clusters play
    /// the same random interleaving of workload bursts, detach waves,
    /// joins, graceful leaves, crashes, load checks and whole
    /// heat/split/cool/merge cycles. The reference closes every window
    /// at its first probe (a one-island "partition": nothing severed),
    /// one twin closes windows only at barriers, one also flushes by
    /// hand at a position drawn from the op's argument. Every call must
    /// report alike, and whenever a twin's window is closed its message
    /// accounting, transport counters, global cover and per-server loads
    /// must equal the reference's.
    #[test]
    fn windowed_locates_match_probe_by_probe(
        servers in 2usize..10,
        seed in 0u64..500,
        replication in 0usize..3,
        ops in prop::collection::vec((0u8..9, 0u64..u64::MAX), 1..14),
    ) {
        let config = ClashConfig::small_test().with_replication(replication);
        let mk = || {
            let transport = Box::new(LinkTransport::new(LinkPolicy::lan(), seed));
            ClashCluster::with_transport(config, servers, seed, transport).unwrap()
        };
        let (mut reference, mut at_barriers, mut by_hand) = (mk(), mk(), mk());
        let everyone = reference.server_ids();
        reference.partition_network(&[everyone]);
        let mut next_source = 0u64;
        let mut attached: Vec<u64> = Vec::new();
        for &(op, arg) in &ops {
            let wave: Vec<u64> = match op {
                2 => attached.drain(..attached.len() / 2).collect(),
                _ => Vec::new(),
            };
            let seen = play(&mut reference, op, arg, next_source, &wave, None);
            let lazily = play(&mut at_barriers, op, arg, next_source, &wave, None);
            let flushed = play(&mut by_hand, op, arg, next_source, &wave, Some(arg % 12));
            prop_assert_eq!(&seen, &lazily, "barrier-closed windows reported otherwise");
            prop_assert_eq!(&seen, &flushed, "hand-closed windows reported otherwise");
            match op {
                0 | 1 => {
                    attached.extend(next_source..next_source + 12);
                    next_source += 12;
                }
                8 => next_source += 96,
                _ => {}
            }
            by_hand.flush_batch().unwrap();
            assert_same_state(&reference, &by_hand);
            by_hand.verify_candidate_indices();
            // An op that ended on a barrier left the lazy twin's window
            // closed as well.
            if matches!(seen.last(), Some(Seen::Membership(_) | Seen::Checked(_))) {
                assert_same_state(&reference, &at_barriers);
            }
        }
        at_barriers.flush_batch().unwrap();
        assert_same_state(&reference, &at_barriers);
        at_barriers.verify_candidate_indices();
    }

    /// Heating then cooling a region splits and then re-merges it; the
    /// cover stays a partition throughout and depth returns to the roots.
    #[test]
    fn split_merge_lifecycle(
        servers in 2usize..16,
        seed in 0u64..500,
        hot_region in 0u64..4,
    ) {
        let mut c = ClashCluster::new(ClashConfig::small_test(), servers, seed).unwrap();
        // Heat one quadrant (depth-2 group) well past capacity.
        for i in 0..80u64 {
            let bits = (hot_region << 6) | (i % 64);
            c.attach_source(i, key(bits), 2.0).unwrap();
        }
        for _ in 0..4 {
            c.run_load_check().unwrap();
        }
        let hot_depth = c.depth_stats().unwrap().2;
        prop_assert!(hot_depth > 2, "hot region must split (depth {hot_depth})");
        for i in 0..80u64 {
            c.detach_source(i).unwrap();
        }
        for _ in 0..16 {
            c.run_load_check().unwrap();
        }
        let (min_d, _, max_d) = c.depth_stats().unwrap();
        prop_assert_eq!(min_d, 2, "roots never collapse");
        prop_assert_eq!(max_d, 2, "cold system fully consolidates");
        prop_assert!(c.global_cover().is_partition());
    }

    /// The oracle's ground-truth queries against brute-force scans of
    /// `global_cover()`: after random splits and merges (a region heated
    /// and then partly cooled), and over the sparse cover a fixed-depth
    /// DHT baseline leaves, where some keys have no group. Every key and
    /// every range of the 8-bit key space is checked.
    #[test]
    fn oracle_queries_match_cover_scan(
        sparse in any::<bool>(),
        servers in 2usize..12,
        seed in 0u64..1000,
        hot_region in 0u64..4,
        attachments in prop::collection::vec((0u64..256, 0.5f64..4.0), 1..80),
        cooled in 0usize..80,
    ) {
        let config = if sparse {
            ClashConfig {
                initial_depth: 5,
                splitting_enabled: false,
                ..ClashConfig::small_test()
            }
        } else {
            ClashConfig::small_test()
        };
        let mut c = ClashCluster::new(config, servers, seed).unwrap();
        for (i, &(bits, rate)) in attachments.iter().enumerate() {
            // With splitting on, heat one quadrant so it splits.
            let bits = if sparse { bits } else { (hot_region << 6) | (bits % 64) };
            c.attach_source(i as u64, key(bits), 2.0 * rate).unwrap();
        }
        for _ in 0..3 {
            c.run_load_check().unwrap();
        }
        for i in 0..cooled.min(attachments.len()) {
            c.detach_source(i as u64).unwrap();
        }
        for _ in 0..3 {
            c.run_load_check().unwrap();
        }
        c.flush_batch().unwrap();
        let ids = c.server_ids();
        let owned: Vec<(Prefix, ServerId)> = c
            .global_cover()
            .iter()
            .map(|g| {
                let owner = ids.iter().copied().find(|&s| {
                    c.server(s).unwrap().table().entry(g).is_some_and(|e| e.active)
                });
                (g, owner.expect("every active group has an owner"))
            })
            .collect();
        for bits in 0..256 {
            let k = key(bits);
            let expected = owned.iter().find(|(g, _)| g.contains(k)).map(|&(g, s)| (s, g));
            prop_assert_eq!(c.oracle_locate(k), expected);
        }
        let width = c.config().key_width;
        for depth in 0..=width.get() {
            for pattern in 0..1u64 << depth {
                let range = Prefix::new(pattern, depth, width).unwrap();
                let expected: Vec<(Prefix, ServerId)> = owned
                    .iter()
                    .copied()
                    .filter(|(g, _)| g.is_prefix_of(range) || range.is_prefix_of(*g))
                    .collect();
                prop_assert_eq!(c.oracle_range(range), expected);
            }
        }
    }
}
