//! Property-based tests for the key-space laws CLASH depends on.

use clash_keyspace::cover::{PrefixCover, PrefixMap};
use clash_keyspace::hash::{HashSpace, KeyHasher, SplitMixHasher};
use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::keygen::{GridPoint, KeyGen, QuadTreeEncoder};
use clash_keyspace::prefix::Prefix;
use proptest::prelude::*;

const WIDTH: u32 = 24;

fn w() -> KeyWidth {
    KeyWidth::new(WIDTH).unwrap()
}

fn arb_key() -> impl Strategy<Value = Key> {
    (0u64..(1u64 << WIDTH)).prop_map(|bits| Key::new(bits, w()).unwrap())
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..=WIDTH)
        .prop_flat_map(|depth| {
            let bound = if depth == 0 { 1 } else { 1u64 << depth };
            (Just(depth), 0..bound)
        })
        .prop_map(|(depth, pattern)| Prefix::new(pattern, depth, w()).unwrap())
}

proptest! {
    /// Shape(k, d) always contains k.
    #[test]
    fn group_of_key_contains_key(key in arb_key(), depth in 0u32..=WIDTH) {
        let group = Prefix::of_key(key, depth);
        prop_assert!(group.contains(key));
        prop_assert_eq!(group.depth(), depth);
    }

    /// A group contains exactly the keys matching its pattern, which is
    /// 2^(N-d) of them (checked on a small sample of the complement).
    #[test]
    fn contains_iff_prefix_matches(key in arb_key(), depth in 1u32..=WIDTH, other in arb_key()) {
        let group = Prefix::of_key(key, depth);
        let same = key.common_prefix_len(other).unwrap() >= depth;
        prop_assert_eq!(group.contains(other), same);
    }

    /// Splitting partitions a group: children are disjoint and their union
    /// is the parent.
    #[test]
    fn split_partitions(prefix in arb_prefix(), probe in arb_key()) {
        prop_assume!(prefix.depth() < WIDTH);
        let (l, r) = prefix.split().unwrap();
        prop_assert_eq!(l.key_count() + r.key_count(), prefix.key_count());
        let in_parent = prefix.contains(probe);
        let in_children = l.contains(probe) ^ r.contains(probe);
        // probe in parent ⇔ probe in exactly one child
        prop_assert_eq!(in_parent, in_children || (l.contains(probe) && r.contains(probe)));
        prop_assert!(!(l.contains(probe) && r.contains(probe)));
    }

    /// The left child's virtual key equals the parent's (the CLASH split
    /// guarantee); the right child's differs.
    #[test]
    fn left_child_shares_virtual_key(prefix in arb_prefix()) {
        prop_assume!(prefix.depth() < WIDTH);
        let (l, r) = prefix.split().unwrap();
        prop_assert_eq!(l.virtual_key(), prefix.virtual_key());
        prop_assert_ne!(r.virtual_key(), prefix.virtual_key());
        // And therefore equal/different hashes.
        let h = SplitMixHasher::new(HashSpace::PAPER, 99);
        prop_assert_eq!(h.hash_key(l.virtual_key()), h.hash_key(prefix.virtual_key()));
    }

    /// parent(child(p)) == p for both children.
    #[test]
    fn parent_inverts_child(prefix in arb_prefix()) {
        prop_assume!(prefix.depth() < WIDTH);
        let (l, r) = prefix.split().unwrap();
        prop_assert_eq!(l.parent(), Some(prefix));
        prop_assert_eq!(r.parent(), Some(prefix));
        prop_assert_eq!(l.sibling(), Some(r));
    }

    /// Display/parse roundtrip.
    #[test]
    fn prefix_display_parse_roundtrip(prefix in arb_prefix()) {
        let s = prefix.to_string();
        let back = Prefix::parse(&s, WIDTH).unwrap();
        prop_assert_eq!(back, prefix);
    }

    /// Key display/parse roundtrip.
    #[test]
    fn key_display_parse_roundtrip(key in arb_key()) {
        let s = key.to_string();
        prop_assert_eq!(Key::parse(&s, WIDTH).unwrap(), key);
    }

    /// common_prefix_len is symmetric, bounded, and consistent with
    /// contains().
    #[test]
    fn cpl_laws(a in arb_key(), b in arb_key()) {
        let ab = a.common_prefix_len(b).unwrap();
        let ba = b.common_prefix_len(a).unwrap();
        prop_assert_eq!(ab, ba);
        prop_assert!(ab <= WIDTH);
        if ab < WIDTH {
            prop_assert_ne!(a.bit(ab), b.bit(ab));
        }
        for d in 0..=ab {
            prop_assert!(Prefix::of_key(a, d).contains(b));
        }
    }

    /// Longest-prefix-match agrees with a brute-force scan.
    #[test]
    fn lpm_matches_bruteforce(
        entries in prop::collection::vec(arb_prefix(), 1..20),
        probe in arb_key(),
    ) {
        let mut map = PrefixMap::new(w());
        for (i, e) in entries.iter().enumerate() {
            map.insert(*e, i);
        }
        let expected = entries
            .iter()
            .filter(|e| e.contains(probe))
            .map(|e| e.depth())
            .max();
        let got = map.longest_prefix_match(probe).map(|(p, _)| p.depth());
        prop_assert_eq!(got, expected);
    }

    /// The containing-entries walk visits exactly the entries whose
    /// prefix contains the key, each once, root to leaf.
    #[test]
    fn containing_walk_matches_bruteforce(
        entries in prop::collection::vec(arb_prefix(), 0..20),
        probe in arb_key(),
    ) {
        let mut map = PrefixMap::new(w());
        // The entries containing one key are nested, so depth orders them.
        let mut latest = std::collections::BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            map.insert(*e, i);
            latest.insert((e.depth(), *e), i);
        }
        let expected: Vec<(Prefix, usize)> = latest
            .into_iter()
            .filter(|((_, p), _)| p.contains(probe))
            .map(|((_, p), i)| (p, i))
            .collect();
        let mut got = Vec::new();
        map.for_each_containing(probe, |p, &i| got.push((p, i)));
        prop_assert_eq!(got, expected);
    }

    /// Random split/merge sequences on a cover keep it a partition, and
    /// every key keeps exactly one group.
    #[test]
    fn cover_partition_under_random_ops(
        seed_keys in prop::collection::vec(arb_key(), 1..30),
        ops in prop::collection::vec((any::<bool>(), arb_key()), 0..60),
    ) {
        let _ = seed_keys;
        let mut cover = PrefixCover::uniform(w(), 4).unwrap();
        for (do_split, key) in ops {
            let group = cover.group_of(key).unwrap();
            if do_split {
                if group.depth() < WIDTH {
                    cover.split(group).unwrap();
                }
            } else if let Some(parent) = group.parent() {
                // merge only when both children are present
                let (l, r) = parent.split().unwrap();
                if cover.contains(l) && cover.contains(r) {
                    cover.merge(parent).unwrap();
                }
            }
            prop_assert!(cover.is_partition());
        }
    }

    /// Quad-tree encode/decode roundtrip at paper scale (12 levels).
    #[test]
    fn quadtree_roundtrip(x in 0u64..4096, y in 0u64..4096) {
        let enc = QuadTreeEncoder::new(12).unwrap();
        let k = enc.encode(&GridPoint::new(x, y)).unwrap();
        prop_assert_eq!(enc.decode(k), GridPoint::new(x, y));
    }

    /// Quad-tree locality: halving the coarse coordinates preserves the
    /// prefix at one fewer level.
    #[test]
    fn quadtree_prefix_nesting(x in 0u64..4096, y in 0u64..4096, depth in 1u32..12) {
        let enc = QuadTreeEncoder::new(12).unwrap();
        let k = enc.encode(&GridPoint::new(x, y)).unwrap();
        // All cells within the same 2^(12-depth) aligned block share the
        // first 2*depth bits.
        let block = 12 - depth;
        let x2 = (x >> block) << block;
        let y2 = (y >> block) << block;
        let k2 = enc.encode(&GridPoint::new(x2, y2)).unwrap();
        prop_assert!(k.common_prefix_len(k2).unwrap() >= 2 * depth);
    }
}
