//! Property-based tests for ring arithmetic and routing correctness.

use clash_chord::id::ChordId;
use clash_chord::net::SimNet;
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;
use proptest::prelude::*;

fn sp() -> HashSpace {
    HashSpace::new(16).unwrap()
}

proptest! {
    /// Exactly one of: x ∈ (a,b), x == a, x == b, x ∈ (b,a) — the ring is
    /// partitioned by any two distinct points.
    #[test]
    fn ring_partition_by_two_points(x in 0u64..65536, a in 0u64..65536, b in 0u64..65536) {
        prop_assume!(a != b);
        let (x, a, b) = (ChordId::new(x, sp()), ChordId::new(a, sp()), ChordId::new(b, sp()));
        let cases = [
            x.in_open_interval(a, b),
            x == a,
            x == b,
            x.in_open_interval(b, a),
        ];
        prop_assert_eq!(cases.iter().filter(|&&c| c).count(), 1);
    }

    /// (a, b] = (a, b) ∪ {b}.
    #[test]
    fn half_open_is_open_plus_endpoint(x in 0u64..65536, a in 0u64..65536, b in 0u64..65536) {
        prop_assume!(a != b);
        let (x, a, b) = (ChordId::new(x, sp()), ChordId::new(a, sp()), ChordId::new(b, sp()));
        prop_assert_eq!(
            x.in_half_open_interval(a, b),
            x.in_open_interval(a, b) || x == b
        );
    }

    /// Distance is a ring metric: d(a,b) + d(b,a) == ring size (for a ≠ b),
    /// and d(a,a) == 0.
    #[test]
    fn distance_antisymmetry(a in 0u64..65536, b in 0u64..65536) {
        let (ia, ib) = (ChordId::new(a, sp()), ChordId::new(b, sp()));
        prop_assert_eq!(ia.distance_to(ia), 0);
        if a != b {
            prop_assert_eq!(
                u128::from(ia.distance_to(ib)) + u128::from(ib.distance_to(ia)),
                sp().size()
            );
        }
    }

    /// On a stabilized ring, routed lookups from any start agree with the
    /// ground-truth successor, within the Chord hop bound.
    #[test]
    fn routed_lookup_matches_ground_truth(
        seed in 0u64..1000,
        n in 2usize..80,
        hashes in prop::collection::vec(0u64..65536, 1..20),
    ) {
        let mut rng = DetRng::new(seed);
        let mut net = SimNet::with_random_nodes(sp(), n, &mut rng);
        net.build_stable();
        let starts = net.node_ids();
        for (i, h) in hashes.into_iter().enumerate() {
            let start = starts[i % starts.len()];
            let r = net.find_successor(start, h);
            prop_assert_eq!(Some(r.owner), net.owner_of(h));
            // Perfect fingers: hops ≤ log2(n) + small constant.
            let bound = (n as f64).log2().ceil() as u32 + 3;
            prop_assert!(r.hops <= bound, "hops {} > bound {}", r.hops, bound);
        }
    }

    /// After arbitrary failures plus maintenance, routing still matches
    /// ground truth among survivors.
    #[test]
    fn routing_correct_after_failures(
        seed in 0u64..500,
        n in 4usize..40,
        kill_pattern in prop::collection::vec(any::<bool>(), 40),
    ) {
        let mut rng = DetRng::new(seed);
        let mut net = SimNet::with_random_nodes(sp(), n, &mut rng);
        net.build_stable();
        let ids = net.node_ids();
        let mut alive = n;
        for (i, &kill) in kill_pattern.iter().take(n).enumerate() {
            if kill && alive > 1 {
                net.fail(ids[i]);
                alive -= 1;
            }
        }
        net.stabilize_until_converged(128);
        prop_assert!(net.is_fully_stabilized());
        let starts = net.node_ids();
        for h in [0u64, 1000, 30000, 65535] {
            let start = starts[h as usize % starts.len()];
            let r = net.find_successor(start, h);
            prop_assert_eq!(Some(r.owner), net.owner_of(h));
        }
    }

    /// `stabilize_direct`'s incremental repair against the whole-ring
    /// recomputation it replaces: one ring repairs incrementally, a twin
    /// is forced onto the whole-ring path before every call (re-setting
    /// the successor-list length forgets the fixpoint without touching a
    /// table), and on rings that start at ≤ 12 nodes a third runs the
    /// round-based protocol to quiescence. Joins (including ids hugging
    /// 0), single failures, adjacent and scattered bursts, graceful
    /// removals and skipped calls (so deltas batch up and mix) on rings
    /// of 1–40 nodes, with successor lists short and long enough that
    /// both sides of the `r + 2` small-ring fallback are hit.
    #[test]
    fn stabilize_direct_repair_matches_whole_ring(
        seed in 0u64..10_000,
        n in 1usize..=40,
        len_pick in 0usize..3,
        ops in prop::collection::vec((0u8..6, 0u64..65536, 0usize..1000, any::<bool>()), 1..24),
    ) {
        let succ_len = [1usize, 3, 8][len_pick];
        let build = || {
            let mut net = SimNet::with_random_nodes(sp(), n, &mut DetRng::new(seed));
            net.set_successor_list_len(succ_len);
            net
        };
        let (mut repaired, mut whole) = (build(), build());
        let mut protocol = (n <= 12).then(build);
        let mut known = repaired.node_ids();
        repaired.stabilize_direct();
        whole.stabilize_direct();
        if let Some(p) = protocol.as_mut() {
            prop_assert!(p.stabilize_until_converged(512) < 512);
        }
        for (kind, a, b, settle) in ops {
            let alive = repaired.node_ids();
            let victims: Vec<ChordId> = match kind {
                // Join, one time in five at an id hugging the wrap point.
                0 | 1 => {
                    let raw = if b % 5 == 0 { [0, 1, 65535, 65534, 32768][a as usize % 5] } else { a };
                    let id = ChordId::new(raw, sp());
                    let bootstrap = alive[b % alive.len()];
                    let joined = repaired.join(id, bootstrap).is_some();
                    prop_assert_eq!(whole.join(id, bootstrap).is_some(), joined);
                    if let Some(p) = protocol.as_mut() {
                        p.join(id, bootstrap);
                    }
                    if joined {
                        known.push(id);
                    }
                    Vec::new()
                }
                // Single crash.
                2 => vec![alive[b % alive.len()]],
                // Burst of 2–4 ring-adjacent victims (wraps through the
                // highest id back to the lowest).
                3 => (0..2 + a as usize % 3).map(|i| alive[(b + i) % alive.len()]).collect(),
                // Burst of two scattered victims.
                4 => vec![alive[b % alive.len()], alive[(b + 1 + a as usize) % alive.len()]],
                // Graceful departure: no corpse stays behind.
                _ => {
                    if alive.len() > 1 {
                        let leaver = alive[b % alive.len()];
                        prop_assert!(repaired.remove_node(leaver));
                        prop_assert!(whole.remove_node(leaver));
                        if let Some(p) = protocol.as_mut() {
                            p.remove_node(leaver);
                        }
                        known.retain(|&id| id != leaver);
                    }
                    Vec::new()
                }
            };
            for v in victims {
                // Duplicates in a burst and the last alive node are skipped.
                if repaired.is_alive(v) && repaired.alive_count() > 1 {
                    repaired.fail(v);
                    whole.fail(v);
                    if let Some(p) = protocol.as_mut() {
                        p.fail(v);
                    }
                }
            }
            if let Some(p) = protocol.as_mut() {
                prop_assert!(p.stabilize_until_converged(512) < 512);
            }
            if !settle {
                continue;
            }
            prop_assert_eq!(repaired.stabilize_direct(), 1);
            whole.set_successor_list_len(succ_len);
            whole.stabilize_direct();
            prop_assert_eq!(repaired.alive_count(), repaired.node_ids().len());
            // Every node ever seen, corpses included: the repair may not
            // touch a dead node's stale state either.
            for &id in &known {
                let (r, w) = (repaired.node(id).unwrap(), whole.node(id).unwrap());
                prop_assert_eq!(r.is_alive(), w.is_alive());
                prop_assert_eq!(r.successor_list(), w.successor_list(), "successor list of {}", id);
                prop_assert_eq!(r.predecessor(), w.predecessor(), "predecessor of {}", id);
                prop_assert_eq!(r.fingers(), w.fingers(), "fingers of {}", id);
                if let (true, Some(p)) = (r.is_alive(), protocol.as_ref()) {
                    let p = p.node(id).unwrap();
                    prop_assert_eq!(r.successor_list(), p.successor_list(), "protocol list of {}", id);
                    prop_assert_eq!(r.predecessor(), p.predecessor(), "protocol pred of {}", id);
                    prop_assert_eq!(r.fingers(), p.fingers(), "protocol fingers of {}", id);
                }
            }
        }
    }
}

/// The routing semantics the flat table rows must reproduce, written the
/// way `SimNet` routed before it had them — a per-node table walk with
/// every usability test a by-id liveness lookup — over nothing but the
/// public accessors. Returns the owner and the `(from, to)` hop
/// sequence.
fn reference_route(net: &SimNet, start: ChordId, h: u64) -> (ChordId, Vec<(ChordId, ChordId)>) {
    let usable = |c: &ChordId| net.is_alive(*c);
    let target = ChordId::new(h, sp());
    let mut current = start;
    let mut path = Vec::new();
    loop {
        assert!(path.len() <= net.alive_count(), "every hop moves closer");
        if target == current {
            return (current, path);
        }
        let node = net.node(current).unwrap();
        let (list, fingers) = (node.successor_list(), node.fingers());
        // First alive successor: a solitary (or fully isolated) node
        // owns everything.
        let succ = list.iter().copied().find(usable).unwrap_or(current);
        if succ == current {
            return (current, path);
        }
        if target.in_half_open_interval(current, succ) {
            path.push((current, succ));
            return (succ, path);
        }
        let preceding = |c: &ChordId| c.in_open_interval(current, target) && usable(c);
        let next = (fingers.iter().rev().copied().find(preceding))
            .or_else(|| list.iter().rev().copied().find(preceding))
            .unwrap_or(succ);
        path.push((current, next));
        current = next;
    }
}

/// Routes every probe in `ids × (ids ∪ ids + 1 ∪ extra)` from up to
/// `starts` alive entry points through the engine and the reference:
/// same owner, same hop count, same hop sequence.
fn assert_routes_match_reference(net: &SimNet, ids: &[ChordId], extra: &[u64], starts: usize) {
    let alive = net.node_ids();
    let step = (alive.len() / starts.max(1)).max(1);
    let mut path = Vec::new();
    for &start in alive.iter().step_by(step) {
        let targets = ids.iter().flat_map(|id| [id.value(), id.value() + 1]);
        for h in targets.chain(extra.iter().copied()) {
            let (owner, hops) = reference_route(net, start, h);
            let routed = net.route_path(start, h, &mut path);
            assert_eq!(routed.owner, owner, "owner of {h:#x} from {start}");
            assert_eq!(path, hops, "path to {h:#x} from {start}");
            assert_eq!(routed.hops as usize, hops.len());
        }
    }
}

fn stable(n: usize, succ_len: usize, seed: u64) -> SimNet {
    let mut net = SimNet::with_random_nodes(sp(), n, &mut DetRng::new(seed));
    net.set_successor_list_len(succ_len);
    net.stabilize_direct();
    net
}

/// A departed id's row is handed to a *different* id while other nodes'
/// fingers and successor lists still name the old one: those entries
/// must stay unusable, not start routing to the row's new tenant.
#[test]
fn reused_row_does_not_revive_entries_naming_its_old_id() {
    for (n, succ_len) in [(3usize, 1usize), (12, 3), (40, 8)] {
        let mut net = stable(n, succ_len, 77);
        let mut known = net.node_ids();
        let leaver = known[n / 2];
        net.remove_node(leaver);
        // Lands in the freed row, far from the arc the leaver owned.
        let newcomer = ChordId::new(leaver.value() ^ 0x8000, sp());
        assert!(net.join(newcomer, known[0]).is_some());
        known.push(newcomer);
        assert_routes_match_reference(&net, &known, &[0, 65535], n);
        net.stabilize_round();
        assert_routes_match_reference(&net, &known, &[0, 65535], n);
    }
}

/// A departed id re-joins: into its own freed row (entries naming it are
/// usable again, as they were by id), or into another row because a
/// later departure's row is handed out first (entries carry a stale row
/// for an alive id and must still resolve to it).
#[test]
fn rejoined_id_is_routable_through_entries_written_before_it_left() {
    for other_row_first in [false, true] {
        let mut net = stable(16, 3, 78);
        let known = net.node_ids();
        let leaver = known[5];
        net.remove_node(leaver);
        if other_row_first {
            net.remove_node(known[11]);
        }
        assert!(net.join(leaver, known[0]).is_some());
        assert_routes_match_reference(&net, &known, &[0, 65535], 16);
    }
}

/// Crashed nodes stay in survivors' successor lists and finger tables
/// until maintenance runs: every fallback has to skip them.
#[test]
fn corpses_in_successor_lists_are_skipped_like_the_reference() {
    for succ_len in [1usize, 3, 8] {
        let mut net = stable(24, succ_len, 79);
        let known = net.node_ids();
        // An adjacent run empties whole successor lists at `succ_len`
        // 1–3; the alternating pair leaves a live entry between two dead
        // ones, which only the successor-list fallback can find.
        for victim in [2, 4, 10, 11, 12, 13, 20] {
            net.fail(known[victim]);
        }
        assert_routes_match_reference(&net, &known, &[0, 65535], 24);
        net.stabilize_round();
        assert_routes_match_reference(&net, &known, &[0, 65535], 24);
    }
}

proptest! {
    /// The engine against the reference across every transient state a
    /// membership sequence can leave the rows in: unstabilized joins
    /// (ids hugging 0 included), corpses inside successor lists, fingers
    /// naming removed ids, freed rows taken by a different id or by the
    /// same id again, garbage-collected corpses, partial maintenance —
    /// on rings of 1–16 nodes, probing every id ever seen (a target equal
    /// to a node id, alive or not) and the point just past it.
    #[test]
    fn routing_matches_reference_through_membership_transients(
        seed in 0u64..10_000,
        n in 1usize..=16,
        len_pick in 0usize..3,
        ops in prop::collection::vec((0u8..9, 0u64..65536, 0usize..1000), 1..14),
    ) {
        let succ_len = [1usize, 3, 8][len_pick];
        let mut net = stable(n, succ_len, seed);
        let mut known = net.node_ids();
        let mut departed: Vec<ChordId> = Vec::new();
        for (kind, a, b) in ops {
            let alive = net.node_ids();
            let pick = alive[b % alive.len()];
            match kind {
                0 | 1 => {
                    let raw = if b % 4 == 0 { [0, 1, 65535, 32768][a as usize % 4] } else { a };
                    let id = ChordId::new(raw, sp());
                    if net.join(id, pick).is_some() {
                        known.push(id);
                    }
                }
                // Re-join an id that left (or whose corpse was collected).
                2 => {
                    if let Some(&id) = departed.get(a as usize % departed.len().max(1)) {
                        net.join(id, pick);
                    }
                }
                3 | 4 if alive.len() > 1 => {
                    if kind == 3 {
                        net.fail(pick);
                    } else {
                        net.remove_node(pick);
                        departed.push(pick);
                    }
                }
                5 => {
                    departed.extend(known.iter().filter(|&&id| {
                        net.node(id).is_some_and(|node| !node.is_alive())
                    }));
                    net.remove_failed();
                }
                6 => {
                    net.stabilize_round();
                }
                7 => {
                    net.fix_fingers_round();
                }
                _ => {
                    net.stabilize_direct();
                }
            }
            assert_routes_match_reference(&net, &known, &[0, a, 65535], 3);
        }
    }
}
