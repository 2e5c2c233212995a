//! The dirty-tracked load check and the scoped replica sync against
//! their from-scratch reference, call by call.
//!
//! [`ClashCluster::sweep_all_next`] before a load check or a membership
//! call makes that call run the historical full scan: every server
//! reclassified, and the whole lease-expiry and placement sweep over
//! every server's groups. A reference twin driven that way must match a
//! plain twin after *every* call — the call's return value, message and
//! transport counters, protocol RNG draws, latency summaries, the global
//! cover, per-server loads and every server's replica store. Transport
//! loss and jitter are drawn per send, so a send more, fewer or in
//! another order shows up in the counters at once.

use std::collections::BTreeSet;
use std::fmt::Debug;

use clash_simkernel::rng::DetRng;
use clash_transport::{LinkPolicy, LinkTransport};
use proptest::prelude::*;

use super::*;

/// A plain, dirty-tracked cluster and its from-scratch reference.
struct Twins {
    plain: ClashCluster,
    reference: ClashCluster,
    /// Every server id either twin ever had, alive or not: the possible
    /// owners of a held replica.
    known: BTreeSet<ServerId>,
}

impl Twins {
    fn new(build: impl Fn() -> ClashCluster) -> Self {
        let plain = build();
        let known = plain.server_ids().into_iter().collect();
        Twins {
            plain,
            reference: build(),
            known,
        }
    }

    /// A client call, run as it is on both twins.
    fn client<T: PartialEq + Debug>(
        &mut self,
        at: &str,
        call: impl Fn(&mut ClashCluster) -> T,
    ) -> T {
        self.both(false, at, call)
    }

    /// A load check or a membership call: the reference sweeps first.
    fn barrier<T: PartialEq + Debug>(
        &mut self,
        at: &str,
        call: impl Fn(&mut ClashCluster) -> T,
    ) -> T {
        self.both(true, at, call)
    }

    fn check(&mut self, at: &str) -> Result<LoadCheckReport, ClashError> {
        self.barrier(at, ClashCluster::run_load_check)
    }

    fn both<T: PartialEq + Debug>(
        &mut self,
        sweep: bool,
        at: &str,
        call: impl Fn(&mut ClashCluster) -> T,
    ) -> T {
        let seen = call(&mut self.plain);
        if sweep {
            self.reference.sweep_all_next();
        }
        assert_eq!(
            seen,
            call(&mut self.reference),
            "{at}: the call returned otherwise"
        );
        self.plain.flush_batch().unwrap();
        self.reference.flush_batch().unwrap();
        self.known.extend(self.plain.server_ids());
        assert_same_state(&self.plain, &self.reference, &self.known, at);
        seen
    }

    /// Both twins' own consistency checks.
    fn verify(&self) {
        self.plain.verify_consistency();
        self.plain.verify_candidate_indices();
        self.reference.verify_consistency();
    }
}

/// Everything a load check or a replica sync can move.
fn assert_same_state(a: &ClashCluster, b: &ClashCluster, known: &BTreeSet<ServerId>, at: &str) {
    assert_eq!(a.message_stats(), b.message_stats(), "{at}: MessageStats");
    assert_eq!(
        a.transport_stats(),
        b.transport_stats(),
        "{at}: TransportStats"
    );
    assert_eq!(a.rng_draws(), b.rng_draws(), "{at}: protocol RNG draws");
    let (la, lb) = (a.latency_metrics(), b.latency_metrics());
    for (name, ha, hb) in [
        ("locate", &la.locate, &lb.locate),
        ("report", &la.report, &lb.report),
        ("split", &la.split, &lb.split),
        ("merge", &la.merge, &lb.merge),
        ("handoff", &la.handoff, &lb.handoff),
        ("replication", &la.replication, &lb.replication),
    ] {
        let (sa, sb) = (ha.summary().snapshot(), hb.summary().snapshot());
        assert_eq!(sa, sb, "{at}: {name} latency");
    }
    assert_eq!(
        a.global_cover().iter().collect::<Vec<_>>(),
        b.global_cover().iter().collect::<Vec<_>>(),
        "{at}: global cover"
    );
    assert_eq!(a.server_loads(), b.server_loads(), "{at}: server loads");
    assert_same_replica_state(a, b, known, at);
}

/// Every server's held replicas and placement registry, and the
/// recoveries still pending. `known` lists every id that ever owned
/// anything, alive or not.
fn assert_same_replica_state(
    a: &ClashCluster,
    b: &ClashCluster,
    known: &BTreeSet<ServerId>,
    at: &str,
) {
    assert_eq!(a.server_ids(), b.server_ids(), "{at}: membership");
    assert_eq!(
        a.pending_recovery_groups(),
        b.pending_recovery_groups(),
        "{at}: pending recoveries"
    );
    for id in a.server_ids() {
        let sa = a.server(id).unwrap().replica_store();
        let sb = b.server(id).unwrap().replica_store();
        assert_eq!(
            sa.placed_groups(),
            sb.placed_groups(),
            "{at}: registry of {id}"
        );
        for g in sa.placed_groups() {
            assert_eq!(sa.placed(g), sb.placed(g), "{at}: holders of {g} on {id}");
        }
        assert_eq!(sa.held_count(), sb.held_count(), "{at}: leases on {id}");
        for &owner in known {
            let held = sa.held_owned_by(owner);
            assert_eq!(
                held,
                sb.held_owned_by(owner),
                "{at}: leases from {owner} on {id}"
            );
            for g in held {
                assert_eq!(sa.held(g), sb.held(g), "{at}: replica of {g} on {id}");
            }
        }
    }
}

/// A cluster of `servers` over a link transport with the given policy.
fn linked(config: ClashConfig, servers: usize, seed: u64, policy: LinkPolicy) -> ClashCluster {
    let transport = Box::new(LinkTransport::new(policy, seed));
    ClashCluster::with_transport(config, servers, seed, transport).unwrap()
}

proptest! {
    // A schedule that strands two owners' groups on the replica worklist
    // at once is rare in these short runs; 1 024 cases reach one.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The dirty-tracked candidate sets find exactly the same splits and
    /// merges as a from-scratch full scan: the twins play the same
    /// random interleaving of workload bursts, detach waves, joins,
    /// graceful leaves, crashes, load checks, two-island partitions and
    /// heals, over a LAN, a WAN or a lossy WAN, and agree after every
    /// call.
    #[test]
    fn dirty_tracked_load_checks_match_full_scan(
        servers in 2usize..10,
        seed in 0u64..500,
        replication in 0usize..4,
        policy in 0u8..3,
        ops in prop::collection::vec((0u8..10, 0u64..u64::MAX), 1..14),
    ) {
        let config = ClashConfig::small_test().with_replication(replication);
        let policy = match policy {
            0 => LinkPolicy::lan(),
            1 => LinkPolicy::wan(),
            _ => LinkPolicy::lossy_wan(0.05),
        };
        let mut twins = Twins::new(|| linked(config, servers, seed, policy));
        let mut next_source = 0u64;
        let mut attached: Vec<u64> = Vec::new();
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let at = format!("step {step} op {op}");
            let ids = twins.plain.server_ids();
            let victim = ids[(arg as usize) % ids.len()];
            match op {
                // Workload burst: heat a quadrant chosen by `arg`.
                0 | 1 => {
                    let quadrant = (arg % 4) << 6;
                    for j in 0..12 {
                        let k = key(quadrant | ((arg.wrapping_add(j * 17)) % 64));
                        if twins.client(&at, |c| c.attach_source(next_source, k, 2.0)).is_ok() {
                            attached.push(next_source);
                        }
                        next_source += 1;
                    }
                }
                // Detach wave: cool half the attached sources (drives
                // the merge path's candidate maintenance).
                2 => {
                    let drop_n = attached.len() / 2;
                    for sid in attached.drain(..drop_n) {
                        let _ = twins.client(&at, |c| c.detach_source(sid));
                    }
                }
                // Join a fresh server with an arbitrary ring id.
                3 => {
                    let id = ServerId::new(arg, config.hash_space);
                    if twins.plain.net().node(id).is_none() {
                        let _ = twins.barrier(&at, |c| c.join_server(id));
                    }
                }
                // Graceful drain or crash of an arbitrary server.
                4 | 5 if ids.len() > 1 => {
                    if op == 4 {
                        let _ = twins.barrier(&at, |c| c.leave_server(victim));
                    } else {
                        let _ = twins.barrier(&at, |c| c.fail_server(victim));
                    }
                }
                4 | 5 => {}
                // Cut the servers into two non-empty islands at a point
                // drawn from `arg`, or heal the cut.
                8 if ids.len() > 1 => {
                    let (left, right) = ids.split_at(1 + (arg as usize) % (ids.len() - 1));
                    let islands = [left.to_vec(), right.to_vec()];
                    twins.client(&at, |c| c.partition_network(&islands));
                }
                9 => twins.client(&at, ClashCluster::heal_partition),
                // A load-check period elapses on both.
                _ => {
                    let _ = twins.check(&at);
                }
            }
            twins.plain.verify_consistency();
            twins.plain.verify_candidate_indices();
        }
        twins.verify();
    }
}

/// A membership call re-syncs only the replica sets of the ring
/// neighbourhood it changed; the reference sweeps the whole cluster.
/// Transport loss and jitter are keyed by each chain's ordinal, so the
/// two agree only if the scoped sync lays out exactly the sweep's chains
/// in the sweep's order: after every join, drain, single crash and
/// 3-victim ring burst — before, inside and after a two-island partition.
#[test]
fn scoped_membership_resync_matches_the_whole_sweep_on_a_lossy_wan() {
    for r in [1usize, 2, 3] {
        for seed in [3u64, 17] {
            let config = ClashConfig::small_test().with_replication(r);
            let mut twins = Twins::new(|| linked(config, 32, seed, LinkPolicy::lossy_wan(0.05)));
            for i in 0..192 {
                twins
                    .client("populate", |c| c.attach_source(i, key((i * 7) % 256), 1.5))
                    .unwrap();
            }
            twins.check("populate").unwrap();
            let mut pick = DetRng::new(seed).substream("resync-test");
            for step in 0..45u64 {
                let at = format!("r={r} seed={seed} step={step}");
                let ids = twins.plain.server_ids();
                let victim = ids[pick.uniform_index(ids.len())];
                let roomy = ids.len() > 12;
                match step {
                    15 => {
                        let islands: Vec<Vec<ServerId>> =
                            ids.chunks(ids.len() / 2 + 1).map(<[_]>::to_vec).collect();
                        twins.client(&at, |c| c.partition_network(&islands));
                    }
                    30 => twins.client(&at, ClashCluster::heal_partition),
                    _ => {}
                }
                match step % 5 {
                    0 | 1 => {
                        let id = ServerId::new(pick.next_u64(), config.hash_space);
                        if twins.plain.net().node(id).is_none() {
                            let _ = twins.barrier(&at, |c| c.join_server(id));
                        }
                    }
                    2 if roomy => {
                        let _ = twins.barrier(&at, |c| c.leave_server(victim));
                    }
                    3 if roomy && step % 2 == 0 => {
                        let _ = twins.barrier(&at, |c| c.fail_server(victim));
                    }
                    3 if roomy => {
                        let mut burst = vec![victim];
                        burst.extend(twins.plain.net().alive_successors(victim, 2));
                        let _ = twins.barrier(&at, |c| c.fail_servers(&burst));
                    }
                    _ => {
                        let k = key(pick.next_u64() % 256);
                        let moved = pick.uniform_index(192) as u64;
                        let _ = twins.client(&at, |c| c.rekey_source(moved, None, || k));
                        let _ = twins.check(&at);
                    }
                }
                twins.plain.verify_consistency();
            }
            twins.verify();
        }
    }
}

/// One driver-level scenario as a call schedule: `calls` calls after
/// the population is attached, a load check every `period` of them, and
/// per mille of the others that are a join, a drain, a single crash or
/// a crash of a server and its two ring successors. The rest are the
/// driver's client calls. Membership keeps 8 to 64 servers.
#[derive(Clone, Copy)]
struct Mix {
    calls: u32,
    period: u32,
    join: usize,
    drain: usize,
    crash: usize,
    burst: usize,
}

/// Fifteen load checks and no membership change.
const PIN: Mix = Mix {
    calls: 900,
    period: 60,
    join: 0,
    drain: 0,
    crash: 0,
    burst: 0,
};

/// Joins, drains, single crashes and bursts between the load checks.
const CHURN: Mix = Mix {
    join: 12,
    drain: 8,
    crash: 6,
    burst: 3,
    ..PIN
};

/// A membership storm: about thirty joins, drains, crashes and bursts
/// between consecutive load checks.
const STORM: Mix = Mix {
    calls: 360,
    period: 40,
    join: 380,
    drain: 190,
    crash: 140,
    burst: 40,
};

/// The paper scenario's root seed, which the pin and churn cases use.
const PAPER_SEED: u64 = 0xC1A5_2004;

/// What a [`play`] did, for the scenario's own sanity checks.
#[derive(Debug, Default)]
struct Played {
    joins: u32,
    departures: u32,
    crashes: u32,
}

/// Plays `mix` on twins built the way the driver-level pins built
/// theirs: `ClashConfig::paper()` at capacity 60 with replication `r`,
/// 16 servers, 300 sources and 20 queries over a WAN link transport.
/// Sources cluster on a hot spot that moves every quarter of the run,
/// and their rate changes with it; in the last quarter most streams end,
/// so load checks both split and merge.
fn play(mix: Mix, r: usize, seed: u64) -> Played {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    }
    .with_replication(r);
    let width = config.key_width;
    let mut twins = Twins::new(|| linked(config, 16, seed, LinkPolicy::wan()));
    let mut rng = DetRng::new(seed).substream("full-scan-mix");
    let spread = width.get() - 4;
    let mut hot = rng.next_u64() >> 60;
    let draw = |rng: &mut DetRng, hot: u64| {
        let low = rng.next_u64() >> (64 - spread);
        let bits = if rng.chance(0.6) {
            (hot << spread) | low
        } else {
            rng.next_u64()
        };
        Key::from_bits_truncated(bits, width)
    };
    let mut sources: Vec<u64> = (0..300).collect();
    let mut queries: Vec<u64> = (0..20).collect();
    let (mut next_source, mut next_query) = (300u64, 20u64);
    for &s in &sources {
        let k = draw(&mut rng, hot);
        twins
            .client("populate", |c| c.attach_source(s, k, 1.0))
            .unwrap();
    }
    for &q in &queries {
        let k = draw(&mut rng, hot);
        twins.client("populate", |c| c.attach_query(q, k)).unwrap();
    }
    let mut played = Played::default();
    for call in 0..mix.calls {
        let at = format!("r={r} seed={seed} call {call}");
        let quarter = call * 4 / mix.calls;
        if call > 0 && call * 4 % mix.calls == 0 {
            hot = rng.next_u64() >> 60;
        }
        let rate = [1.0, 2.0, 2.0, 1.0][quarter as usize];
        if call % mix.period == mix.period - 1 {
            twins.check(&at).unwrap();
            continue;
        }
        let ids = twins.plain.server_ids();
        let victim = ids[rng.uniform_index(ids.len())];
        let mut roll = rng.uniform_index(1000);
        let mut next = |share: usize| {
            let hit = roll < share;
            roll = roll.wrapping_sub(share);
            hit
        };
        if next(mix.join) {
            if ids.len() < 64 {
                twins
                    .barrier(&at, ClashCluster::join_random_server)
                    .unwrap();
                played.joins += 1;
            }
        } else if next(mix.drain) {
            if ids.len() > 8 {
                twins.barrier(&at, |c| c.leave_server(victim)).unwrap();
                played.departures += 1;
            }
        } else if next(mix.crash) {
            if ids.len() > 8 {
                twins.barrier(&at, |c| c.fail_server(victim)).unwrap();
                played.crashes += 1;
            }
        } else if next(mix.burst) {
            if ids.len() >= 8 + 3 {
                let mut burst = vec![victim];
                burst.extend(twins.plain.net().alive_successors(victim, 2));
                twins.barrier(&at, |c| c.fail_servers(&burst)).unwrap();
                played.crashes += 3;
            }
        } else {
            // The driver's client calls: mostly key changes at the
            // current rate, then stream and query renewals. In the last
            // quarter most streams end without a successor.
            let k = draw(&mut rng, hot);
            let ending = quarter == 3;
            match rng.uniform_index(10) {
                0..=6 if !ending => {
                    let s = sources[rng.uniform_index(sources.len())];
                    twins
                        .client(&at, |c| c.rekey_source(s, Some(rate), || k))
                        .unwrap();
                }
                0..=7 => {
                    let slot = rng.uniform_index(sources.len());
                    let old = sources[slot];
                    twins.client(&at, |c| c.has_source(old).then(|| c.detach_source(old)));
                    if ending {
                        sources.swap_remove(slot);
                    } else {
                        twins
                            .client(&at, |c| c.attach_source(next_source, k, rate))
                            .unwrap();
                        sources[slot] = next_source;
                        next_source += 1;
                    }
                }
                _ => {
                    let slot = rng.uniform_index(queries.len());
                    let old = queries[slot];
                    twins.client(&at, |c| c.detach_query(old)).unwrap();
                    twins
                        .client(&at, |c| c.attach_query(next_query, k))
                        .unwrap();
                    queries[slot] = next_query;
                    next_query += 1;
                }
            }
        }
    }
    twins.verify();
    let msgs = twins.plain.message_stats();
    assert!(
        msgs.splits > 0 && msgs.merges > 0,
        "r={r} seed={seed}: {msgs:?}"
    );
    played
}

#[test]
fn dirty_tracking_matches_full_scan_on_pin_scenario() {
    for r in [0usize, 2] {
        play(PIN, r, PAPER_SEED);
    }
}

#[test]
fn dirty_tracking_matches_full_scan_under_churn_and_bursts() {
    // Every membership path feeds the candidate indices and the replica
    // worklist, and all of them must agree with the from-scratch sweep.
    for r in [0usize, 2] {
        let played = play(CHURN, r, PAPER_SEED);
        assert!(played.crashes > 0, "churn must crash servers");
        assert!(played.joins > 0, "churn must join servers");
    }
}

#[test]
fn dirty_tracking_matches_full_scan_across_seeds() {
    // Different membership interleavings exercise different mark-dirty
    // paths.
    for seed in [1u64, 42, 0xBEEF] {
        play(CHURN, 2, seed);
    }
}

#[test]
fn scoped_membership_resync_matches_full_scan_in_a_storm() {
    for r in [0usize, 2] {
        for seed in [1u64, 42, 0xBEEF] {
            let played = play(STORM, r, seed);
            assert!(
                played.joins + played.departures + played.crashes >= 100,
                "r={r} seed={seed}: the storm must keep membership changing ({played:?})"
            );
        }
    }
}
