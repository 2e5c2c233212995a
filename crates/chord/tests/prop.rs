//! Property-based tests for ring arithmetic and routing correctness, and
//! the differential tests pinning `SimNet`'s always-converged tables and
//! routes against the round-based protocol in [`model::ChordModel`].

mod model;

use clash_chord::id::ChordId;
use clash_chord::net::{SimNet, SUCCESSOR_LIST_LEN};
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;
use model::ChordModel;
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

    /// After arbitrary failures, routing still matches ground truth
    /// among survivors.
    #[test]
    fn routing_correct_after_failures(
        seed in 0u64..500,
        n in 4usize..40,
        kill_pattern in prop::collection::vec(any::<bool>(), 40),
    ) {
        let mut rng = DetRng::new(seed);
        let mut net = SimNet::with_random_nodes(sp(), n, &mut rng);
        let ids = net.node_ids();
        let mut alive = n;
        for (i, &kill) in kill_pattern.iter().take(n).enumerate() {
            if kill && alive > 1 {
                net.fail(ids[i]);
                alive -= 1;
            }
        }
        prop_assert!(net.is_converged());
        let starts = net.node_ids();
        for h in [0u64, 1000, 30000, 65535] {
            let start = starts[h as usize % starts.len()];
            let r = net.find_successor(start, h);
            prop_assert_eq!(Some(r.owner), net.owner_of(h));
        }
    }

    /// The always-converged ring against the round-based protocol: one
    /// random sequence of joins (one in five at an id next to 0), single
    /// crashes, adjacent and scattered crash bursts and graceful leaves
    /// runs on a `SimNet` and a `ChordModel` over the same ids, on rings
    /// of 1–40 nodes, both sides of the `r + 2` whole-ring fallback
    /// included. After every op the model runs to quiescence; every
    /// alive node's successor list, predecessor and fingers must then be
    /// the model's, and every join must cost the model's messages.
    #[test]
    fn membership_repair_matches_chord_model(
        seed in 0u64..10_000,
        n in 1usize..=40,
        ops in prop::collection::vec((0u8..6, 0u64..65536, 0usize..1000), 1..24),
    ) {
        let mut twin = Twin::new(n, seed);
        for (kind, a, b) in ops {
            let alive = twin.net.node_ids();
            let pick = alive[b % alive.len()];
            match kind {
                0 | 1 => {
                    let raw = if b % 5 == 0 { [0, 1, 65535, 65534, 32768][a as usize % 5] } else { a };
                    twin.join(ChordId::new(raw, sp()), pick);
                }
                // Single crash; a burst of 2–4 ring-adjacent victims
                // (wrapping through the highest id back to the lowest);
                // a burst of two scattered victims. Duplicates in a
                // burst and the last alive node are skipped.
                2..=4 => {
                    let burst: Vec<ChordId> = match kind {
                        2 => vec![pick],
                        3 => (0..2 + a as usize % 3).map(|i| alive[(b + i) % alive.len()]).collect(),
                        _ => vec![pick, alive[(b + 1 + a as usize) % alive.len()]],
                    };
                    for v in burst {
                        if twin.net.is_alive(v) && twin.net.alive_count() > 1 {
                            twin.fail(v);
                        }
                    }
                }
                // Graceful departure: no corpse stays behind.
                _ => {
                    if alive.len() > 1 {
                        prop_assert!(twin.remove_node(pick));
                    }
                }
            }
            twin.settle();
        }
    }
}

/// A `SimNet` and a `ChordModel` over the same ids, driven in lockstep.
/// Every membership op runs on both with the same outcome; after
/// [`Twin::settle`] the model has run its protocol to quiescence and both
/// hold the same tables.
struct Twin {
    net: SimNet,
    model: ChordModel,
}

impl Twin {
    fn new(n: usize, seed: u64) -> Self {
        let net = SimNet::with_random_nodes(sp(), n, &mut DetRng::new(seed));
        let model = ChordModel::converged(sp(), SUCCESSOR_LIST_LEN, &net.node_ids());
        let twin = Twin { net, model };
        twin.assert_same_tables();
        twin
    }

    /// Joins on both; the message counts must agree. False if the id
    /// was taken.
    fn join(&mut self, id: ChordId, bootstrap: ChordId) -> bool {
        let messages = self.net.join(id, bootstrap);
        assert_eq!(
            messages,
            self.model.join(id, bootstrap),
            "messages of joining {id}"
        );
        messages.is_some()
    }

    fn fail(&mut self, id: ChordId) -> bool {
        let failed = self.net.fail(id);
        assert_eq!(failed, self.model.fail(id), "failing {id}");
        failed
    }

    fn remove_node(&mut self, id: ChordId) -> bool {
        let removed = self.net.remove_node(id);
        assert_eq!(removed, self.model.remove_node(id), "removing {id}");
        removed
    }

    /// Runs the model to quiescence and compares the tables.
    fn settle(&mut self) {
        assert!(
            self.model.stabilize_until_converged(512) < 512,
            "model did not converge"
        );
        self.assert_same_tables();
    }

    fn assert_same_tables(&self) {
        assert_eq!(self.net.node_ids(), self.model.alive_ids(), "alive sets");
        assert!(self.net.is_converged());
        for id in self.net.node_ids() {
            let (node, reference) = (self.net.node(id).unwrap(), self.model.node(id).unwrap());
            assert_eq!(
                node.successor_list(),
                reference.succs,
                "successor list of {id}"
            );
            assert_eq!(node.predecessor(), reference.pred, "predecessor of {id}");
            assert_eq!(node.fingers(), reference.fingers, "fingers of {id}");
        }
    }

    /// Routes every probe in `ids × (ids ∪ ids + 1 ∪ extra)` from up to
    /// `starts` alive entry points through the engine and the model's
    /// reference walk: same owner, same hop count, same hop sequence.
    fn assert_routes_match(&self, ids: &[ChordId], extra: &[u64], starts: usize) {
        let alive = self.net.node_ids();
        let step = (alive.len() / starts.max(1)).max(1);
        let mut path = Vec::new();
        for &start in alive.iter().step_by(step) {
            let targets = ids.iter().flat_map(|id| [id.value(), id.value() + 1]);
            for h in targets.chain(extra.iter().copied()) {
                let (owner, hops) = self.model.route(start, h);
                let routed = self.net.route_path(start, h, &mut path);
                assert_eq!(routed.owner, owner, "owner of {h:#x} from {start}");
                assert_eq!(path, hops, "path to {h:#x} from {start}");
                assert_eq!(routed.hops as usize, hops.len());
            }
        }
    }
}

/// A departed id's row is handed to a *different* id: nothing may route
/// to the row's new tenant on the old id's behalf.
#[test]
fn reused_row_does_not_revive_entries_naming_its_old_id() {
    for n in [3usize, 12, 40] {
        let mut twin = Twin::new(n, 77);
        let mut known = twin.net.node_ids();
        let leaver = known[n / 2];
        twin.remove_node(leaver);
        twin.settle();
        twin.assert_routes_match(&known, &[0, 65535], n);
        // Lands in the freed row, far from the arc the leaver owned.
        let newcomer = ChordId::new(leaver.value() ^ 0x8000, sp());
        assert!(twin.join(newcomer, known[0]));
        known.push(newcomer);
        twin.settle();
        twin.assert_routes_match(&known, &[0, 65535], n);
    }
}

/// A departed id re-joins: into its own freed row, or into another row
/// because a later departure's row is handed out first.
#[test]
fn rejoined_id_is_routable_through_entries_written_before_it_left() {
    for other_row_first in [false, true] {
        let mut twin = Twin::new(16, 78);
        let known = twin.net.node_ids();
        let leaver = known[5];
        twin.remove_node(leaver);
        twin.settle();
        if other_row_first {
            twin.remove_node(known[11]);
            twin.settle();
        }
        assert!(twin.join(leaver, known[0]));
        twin.settle();
        twin.assert_routes_match(&known, &[0, 65535], 16);
    }
}

/// Crashed nodes keep their rows but leave every alive table at once:
/// an adjacent run of corpses and an alternating pair route exactly like
/// the model once its protocol has repaired around them.
#[test]
fn corpses_in_successor_lists_are_skipped_like_the_reference() {
    let mut twin = Twin::new(24, 79);
    let known = twin.net.node_ids();
    for victim in [2, 4, 10, 11, 12, 13, 20] {
        twin.fail(known[victim]);
        twin.settle();
        twin.assert_routes_match(&known, &[0, 65535], 24);
    }
}

proptest! {
    /// The engine against the model's reference walk after every
    /// membership op: joins (ids hugging 0 included), crashes, graceful
    /// departures, corpses collected, and departed or collected ids
    /// re-joining — into their own freed row or another — on rings of
    /// 1–16 nodes, probing every id ever seen (a target equal to a node
    /// id, alive or not) and the point just past it.
    #[test]
    fn routing_matches_reference_through_membership_transients(
        seed in 0u64..10_000,
        n in 1usize..=16,
        ops in prop::collection::vec((0u8..6, 0u64..65536, 0usize..1000), 1..14),
    ) {
        let mut twin = Twin::new(n, seed);
        let mut known = twin.net.node_ids();
        let mut corpses: Vec<ChordId> = Vec::new();
        let mut departed: Vec<ChordId> = Vec::new();
        for (kind, a, b) in ops {
            let alive = twin.net.node_ids();
            let pick = alive[b % alive.len()];
            match kind {
                0 | 1 => {
                    let raw = if b % 4 == 0 { [0, 1, 65535, 32768][a as usize % 4] } else { a };
                    let id = ChordId::new(raw, sp());
                    if twin.join(id, pick) {
                        known.push(id);
                    }
                }
                // Re-join an id that left (or whose corpse was collected).
                2 => {
                    if let Some(&id) = departed.get(a as usize % departed.len().max(1)) {
                        if twin.join(id, pick) {
                            departed.retain(|&d| d != id);
                        }
                    }
                }
                3 | 4 if alive.len() > 1 => {
                    if kind == 3 {
                        twin.fail(pick);
                        corpses.push(pick);
                    } else {
                        twin.remove_node(pick);
                        departed.push(pick);
                    }
                }
                // Collect a corpse: its row is freed for the next join.
                5 if !corpses.is_empty() => {
                    let id = corpses.swap_remove(a as usize % corpses.len());
                    prop_assert!(twin.remove_node(id));
                    departed.push(id);
                }
                _ => {}
            }
            twin.settle();
            twin.assert_routes_match(&known, &[0, a, 65535], 3);
        }
    }
}
