//! Property tests: the query engine's matching agrees with brute force,
//! and migration conserves queries.

use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;
use clash_streamquery::engine::QueryEngine;
use clash_streamquery::query::ContinuousQuery;
use proptest::prelude::*;

const WIDTH: u32 = 10;

fn w() -> KeyWidth {
    KeyWidth::new(WIDTH).unwrap()
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..=WIDTH)
        .prop_flat_map(|depth| {
            let bound = if depth == 0 { 1 } else { 1u64 << depth };
            (Just(depth), 0..bound)
        })
        .prop_map(|(depth, pattern)| Prefix::new(pattern, depth, w()).unwrap())
}

fn arb_key() -> impl Strategy<Value = Key> {
    (0u64..(1u64 << WIDTH)).prop_map(|bits| Key::new(bits, w()).unwrap())
}

proptest! {
    /// Matching equals the brute-force scan over all queries, coarsest
    /// region first.
    #[test]
    fn matches_equal_bruteforce(
        regions in prop::collection::vec(arb_prefix(), 0..40),
        probe in arb_key(),
    ) {
        let mut engine = QueryEngine::new(w());
        let queries: Vec<ContinuousQuery> = regions
            .iter()
            .enumerate()
            .map(|(i, &r)| ContinuousQuery::new(i as u64, r))
            .collect();
        engine.register_all(queries.iter().copied());
        let got = engine.ingest(probe);
        let mut expected: Vec<ContinuousQuery> =
            queries.into_iter().filter(|q| q.matches(probe)).collect();
        expected.sort_by_key(|q| q.region().depth());
        prop_assert_eq!(got, expected.iter().map(|q| q.id()).collect::<Vec<_>>());
    }

    /// extract_group removes exactly the queries whose identifier key is
    /// in the group, and the union of both sides matches everything the
    /// original did.
    #[test]
    fn extraction_conserves_queries(
        regions in prop::collection::vec(arb_prefix(), 0..40),
        group in arb_prefix(),
        probes in prop::collection::vec(arb_key(), 1..10),
    ) {
        let mut engine = QueryEngine::new(w());
        for (i, &r) in regions.iter().enumerate() {
            engine.register(ContinuousQuery::new(i as u64, r));
        }
        let before = engine.query_count();
        let moved = engine.extract_group(group);
        prop_assert_eq!(engine.query_count() + moved.len(), before);
        for q in &moved {
            prop_assert!(group.contains(q.identifier_key()));
        }
        let in_group = regions.iter().filter(|r| group.contains(r.virtual_key())).count();
        prop_assert_eq!(moved.len(), in_group);
        // Matching is conserved across the two sides.
        let mut other = QueryEngine::new(w());
        other.register_all(moved);
        for probe in probes {
            let total = engine.ingest(probe).len() + other.ingest(probe).len();
            let expected = regions
                .iter()
                .filter(|r| r.contains(probe))
                .count();
            prop_assert_eq!(total, expected);
        }
    }

    /// Register/deregister round-trips leave no residue.
    #[test]
    fn insert_remove_roundtrip(regions in prop::collection::vec(arb_prefix(), 1..30)) {
        let mut engine = QueryEngine::new(w());
        for (i, &r) in regions.iter().enumerate() {
            engine.register(ContinuousQuery::new(i as u64, r));
        }
        for (i, &r) in regions.iter().enumerate() {
            prop_assert!(engine.contains(r, i as u64));
            prop_assert!(engine.deregister(r, i as u64));
        }
        prop_assert_eq!(engine.query_count(), 0);
        // Nothing matches anywhere.
        prop_assert!(engine.ingest(Key::new(0, w()).unwrap()).is_empty());
    }
}
