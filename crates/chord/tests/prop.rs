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
