//! Property-based tests for the key-space laws CLASH depends on.

use std::collections::BTreeMap;

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

/// Every prefix of 2–3 random keys, plus each one's sibling, at width 7
/// or 24: a pool of groups that nest in one another at every depth.
fn arb_nested_pool() -> impl Strategy<Value = Vec<Prefix>> {
    (any::<bool>(), prop::collection::vec(0u64..u64::MAX, 2..4)).prop_map(|(wide, seeds)| {
        let width = KeyWidth::new(if wide { 24 } else { 7 }).unwrap();
        let mut pool = Vec::new();
        for seed in seeds {
            let key = Key::from_bits_truncated(seed, width);
            for depth in 0..=width.get() {
                let group = Prefix::of_key(key, depth);
                pool.push(group);
                pool.extend(group.sibling());
            }
        }
        pool.sort();
        pool.dedup();
        pool
    })
}

/// The first and last key of `group` and the keys just outside it.
fn boundary_keys(group: Prefix) -> [Key; 4] {
    let width = group.width();
    let mask = u64::MAX >> (64 - width.get());
    let (lo, hi) = (group.min_key().bits(), group.max_key().bits());
    [lo, hi, lo.wrapping_sub(1), hi.wrapping_add(1)]
        .map(|bits| Key::from_bits_truncated(bits & mask, width))
}

/// The entries of `model` containing `key`, root to leaf.
fn model_containing(model: &BTreeMap<Prefix, u64>, key: Key) -> Vec<(Prefix, u64)> {
    let mut hits: Vec<(Prefix, u64)> = model
        .iter()
        .filter(|(p, _)| p.contains(key))
        .map(|(&p, &v)| (p, v))
        .collect();
    hits.sort_by_key(|(p, _)| p.depth());
    hits
}

/// The entries of `model` that are ancestors or descendants of `range`.
fn model_intersecting(model: &BTreeMap<Prefix, u64>, range: Prefix) -> Vec<(Prefix, u64)> {
    model
        .iter()
        .filter(|(p, _)| p.is_prefix_of(range) || range.is_prefix_of(**p))
        .map(|(&p, &v)| (p, v))
        .collect()
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

    /// Longest-prefix-match agrees with a brute-force scan over nested
    /// entries.
    #[test]
    fn lpm_matches_bruteforce(
        pool in arb_nested_pool(),
        picks in prop::collection::vec(0usize..usize::MAX, 1..20),
        probe in 0usize..usize::MAX,
    ) {
        let entries: Vec<Prefix> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        let mut map = PrefixMap::new();
        for (i, e) in entries.iter().enumerate() {
            map.insert(*e, i);
        }
        for probe in boundary_keys(pool[probe % pool.len()]) {
            let expected = entries
                .iter()
                .filter(|e| e.contains(probe))
                .map(|e| e.depth())
                .max();
            let got = map.longest_prefix_match(probe).map(|(p, _)| p.depth());
            prop_assert_eq!(got, expected);
        }
    }

    /// The containing-entries walk visits exactly the entries whose
    /// prefix contains the key, each once, root to leaf.
    #[test]
    fn containing_walk_matches_bruteforce(
        pool in arb_nested_pool(),
        picks in prop::collection::vec(0usize..usize::MAX, 0..20),
        probe in 0usize..usize::MAX,
    ) {
        let mut map = PrefixMap::new();
        let mut latest = BTreeMap::new();
        for (i, pick) in picks.iter().enumerate() {
            let e = pool[pick % pool.len()];
            map.insert(e, i as u64);
            latest.insert(e, i as u64);
        }
        for probe in boundary_keys(pool[probe % pool.len()]) {
            let mut got = Vec::new();
            map.for_each_containing(probe, |p, &i| got.push((p, i)));
            prop_assert_eq!(got, model_containing(&latest, probe));
        }
    }

    /// `PrefixMap` against its model — a `BTreeMap` answered by
    /// brute-force scans — over random inserts, removes, retains and
    /// in-place updates of nested entries. After every op: iteration
    /// order, exact lookups, longest match, the containing walk, `d_min`,
    /// range intersection and prefix-freeness.
    #[test]
    fn prefix_map_matches_model(
        pool in arb_nested_pool(),
        ops in prop::collection::vec((0u8..5, 0usize..usize::MAX, 0u64..u64::MAX), 1..40),
    ) {
        let width = pool[0].width();
        let mut map = PrefixMap::new();
        let mut model: BTreeMap<Prefix, u64> = BTreeMap::new();
        for (op, pick, v) in ops {
            let group = pool[pick % pool.len()];
            match op {
                0 | 1 => prop_assert_eq!(map.insert(group, v), model.insert(group, v)),
                2 => prop_assert_eq!(map.remove(group), model.remove(&group)),
                3 => {
                    let keep = |p: Prefix, x: &u64| !(p.pattern() ^ x ^ v).is_multiple_of(3);
                    map.retain(keep);
                    model.retain(|&p, x| keep(p, x));
                }
                _ => {
                    let got = map.get_mut(group).map(|x| { *x = x.wrapping_add(v); *x });
                    let want = model.get_mut(&group).map(|x| { *x = x.wrapping_add(v); *x });
                    prop_assert_eq!(got, want);
                }
            }
            let entries: Vec<(Prefix, u64)> = map.iter().map(|(p, &x)| (p, x)).collect();
            let expected: Vec<(Prefix, u64)> = model.iter().map(|(&p, &x)| (p, x)).collect();
            prop_assert_eq!(entries, expected);
            prop_assert_eq!(map.len(), model.len());
            for g in &pool {
                prop_assert_eq!(map.get(*g), model.get(g));
            }
            let mut ranges = vec![Prefix::root(width), group];
            ranges.extend(group.parent());
            ranges.extend(group.split().ok().map(|(l, r)| [l, r]).into_iter().flatten());
            for &range in &ranges {
                let got: Vec<(Prefix, u64)> =
                    map.intersecting(range).into_iter().map(|(p, &x)| (p, x)).collect();
                prop_assert_eq!(got, model_intersecting(&model, range));
                for key in boundary_keys(range) {
                    let containing = model_containing(&model, key);
                    let mut walk = Vec::new();
                    map.for_each_containing(key, |p, &x| walk.push((p, x)));
                    prop_assert_eq!(&walk, &containing);
                    prop_assert_eq!(
                        map.longest_prefix_match(key).map(|(p, &x)| (p, x)),
                        containing.last().copied()
                    );
                    let dmin = model.keys().map(|p| p.common_prefix_len_with_key(key)).max();
                    prop_assert_eq!(map.max_common_prefix_len(key), dmin.unwrap_or(0));
                }
            }
            let prefix_free = model
                .keys()
                .all(|a| model.keys().all(|b| a == b || !a.is_prefix_of(*b)));
            prop_assert_eq!(map.is_prefix_free(), prefix_free);
        }
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
