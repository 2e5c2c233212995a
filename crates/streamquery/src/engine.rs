//! The per-server continuous-query engine.

use clash_keyspace::cover::PrefixMap;
use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;

use crate::query::ContinuousQuery;

/// Engine throughput counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packets ingested.
    pub packets: u64,
    /// Query deliveries (one per matching query per packet).
    pub deliveries: u64,
    /// Packets that matched no query.
    pub unmatched: u64,
}

/// A per-server query engine: resident queries keyed by their
/// subscribed region, plus throughput accounting, with
/// group-granularity migration support.
///
/// Matching is the hot path of a continuous-query engine (NiagaraCQ,
/// XFilter — the systems the paper's §1 cites for "efficient indices
/// over streams and queries with intersecting attribute values"): one
/// packet fans out to every query whose region contains its key. The
/// subscriptions sit in a [`PrefixMap`], so that is a few binary
/// searches over the regions per matching region, however many queries
/// each region holds.
///
/// # Example
///
/// ```
/// use clash_keyspace::key::Key;
/// use clash_keyspace::prefix::Prefix;
/// use clash_streamquery::engine::QueryEngine;
/// use clash_streamquery::query::ContinuousQuery;
///
/// let mut a = QueryEngine::new(8.try_into()?);
/// a.register(ContinuousQuery::new(1, Prefix::parse("011*", 8)?));
///
/// // CLASH splits the group "011*" away: migrate its resident queries.
/// let mut b = QueryEngine::new(8.try_into()?);
/// let moved = a.extract_group(Prefix::parse("011*", 8)?);
/// assert_eq!(moved.len(), 1);
/// b.register_all(moved);
/// assert_eq!(b.ingest(Key::parse("01101111", 8)?), vec![1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    /// Queries subscribed exactly at each region, in registration order.
    regions: PrefixMap<Vec<ContinuousQuery>>,
    /// Number of resident queries.
    len: usize,
    stats: EngineStats,
}

impl QueryEngine {
    /// Creates an empty engine for keys of the given width.
    pub fn new(width: KeyWidth) -> Self {
        QueryEngine {
            regions: PrefixMap::new(width),
            len: 0,
            stats: EngineStats::default(),
        }
    }

    /// The key width.
    pub fn width(&self) -> KeyWidth {
        self.regions.width()
    }

    /// Number of resident queries.
    pub fn query_count(&self) -> usize {
        self.len
    }

    /// Throughput counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Registers a query.
    ///
    /// # Panics
    ///
    /// Panics if the query's region width differs from the engine's.
    pub fn register(&mut self, query: ContinuousQuery) {
        let region = query.region();
        match self.regions.get_mut(region) {
            Some(queries) => queries.push(query),
            None => {
                self.regions.insert(region, vec![query]);
            }
        }
        self.len += 1;
    }

    /// Registers a batch of queries (e.g. a migrated group).
    pub fn register_all<I: IntoIterator<Item = ContinuousQuery>>(&mut self, queries: I) {
        for q in queries {
            self.register(q);
        }
    }

    /// Deregisters the query with `id` at `region`. Returns true if
    /// present.
    pub fn deregister(&mut self, region: Prefix, id: u64) -> bool {
        let Some(queries) = self.regions.get_mut(region) else {
            return false;
        };
        let before = queries.len();
        queries.retain(|q| q.id() != id);
        let removed = before - queries.len();
        if queries.is_empty() {
            self.regions.remove(region);
        }
        self.len -= removed;
        removed > 0
    }

    /// Ingests one packet: returns the ids of all matching queries, the
    /// coarsest region first, and updates throughput counters.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the engine's.
    pub fn ingest(&mut self, key: Key) -> Vec<u64> {
        let mut ids = Vec::new();
        self.regions
            .for_each_containing(key, |_, queries| ids.extend(queries.iter().map(|q| q.id())));
        self.stats.packets += 1;
        self.stats.deliveries += ids.len() as u64;
        if ids.is_empty() {
            self.stats.unmatched += 1;
        }
        ids
    }

    /// Removes and returns every query whose *identifier key* lies inside
    /// `group` — the unit of CLASH state migration (split/merge). This is
    /// the set of queries placed in the group, not the set overlapping
    /// it: a query subscribed to an ancestor region is placed at its
    /// region's origin and migrates with whichever group owns that
    /// origin. Queries come out region by region in binary-string order:
    /// the group's ancestors, the group, then its subtree.
    pub fn extract_group(&mut self, group: Prefix) -> Vec<ContinuousQuery> {
        let resident: Vec<Prefix> = self
            .regions
            .intersecting(group)
            .into_iter()
            .map(|(region, _)| region)
            .filter(|region| group.contains(region.virtual_key()))
            .collect();
        let mut extracted = Vec::new();
        for region in resident {
            extracted.extend(self.regions.remove(region).into_iter().flatten());
        }
        self.len -= extracted.len();
        extracted
    }

    /// True if the query with `id` is registered at `region`.
    pub fn contains(&self, region: Prefix, id: u64) -> bool {
        self.regions
            .get(region)
            .is_some_and(|queries| queries.iter().any(|q| q.id() == id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> QueryEngine {
        QueryEngine::new(KeyWidth::new(8).unwrap())
    }

    fn p(s: &str) -> Prefix {
        Prefix::parse(s, 8).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::parse(s, 8).unwrap()
    }

    #[test]
    fn ingest_counts_and_delivers() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("01*")));
        e.register(ContinuousQuery::new(2, p("0110*")));
        assert_eq!(e.ingest(k("01101111")), vec![1, 2]);
        assert_eq!(e.ingest(k("11111111")), Vec::<u64>::new());
        let s = e.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.deliveries, 2);
        assert_eq!(s.unmatched, 1);
    }

    #[test]
    fn deregister_stops_delivery() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("01*")));
        assert!(e.deregister(p("01*"), 1));
        assert_eq!(e.ingest(k("01000000")), Vec::<u64>::new());
        assert_eq!(e.query_count(), 0);
    }

    #[test]
    fn migration_moves_group_queries() {
        let mut a = engine();
        a.register(ContinuousQuery::new(1, p("0110*"))); // resident in 011*
        a.register(ContinuousQuery::new(2, p("00*"))); // resident in 00*
        let moved = a.extract_group(p("011*"));
        assert_eq!(moved.len(), 1);
        assert_eq!(a.query_count(), 1);
        let mut b = engine();
        b.register_all(moved);
        assert_eq!(b.ingest(k("01101111")), vec![1]);
    }

    #[test]
    fn matches_all_containing_regions() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("0*")));
        e.register(ContinuousQuery::new(2, p("01*")));
        e.register(ContinuousQuery::new(3, p("0110*")));
        e.register(ContinuousQuery::new(4, p("0111*")));
        assert_eq!(e.ingest(k("01101010")), vec![1, 2, 3]);
        assert_eq!(e.ingest(k("10000000")), Vec::<u64>::new());
    }

    #[test]
    fn root_subscription_matches_everything() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, Prefix::root(e.width())));
        assert_eq!(e.ingest(k("00000000")), vec![1]);
        assert_eq!(e.ingest(k("11111111")), vec![1]);
    }

    #[test]
    fn full_depth_subscription_matches_single_key() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("01101010")));
        assert_eq!(e.ingest(k("01101010")), vec![1]);
        assert_eq!(e.ingest(k("01101011")), Vec::<u64>::new());
    }

    #[test]
    fn remove_by_region_and_id() {
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("01*")));
        e.register(ContinuousQuery::new(2, p("01*")));
        assert_eq!(e.query_count(), 2);
        assert!(e.deregister(p("01*"), 1));
        assert!(!e.deregister(p("01*"), 1));
        assert!(!e.deregister(p("11*"), 2));
        assert_eq!(e.query_count(), 1);
        assert!(e.contains(p("01*"), 2));
        assert_eq!(e.ingest(k("01000000")), vec![2]);
    }

    #[test]
    fn duplicate_ids_in_different_regions_coexist() {
        // The engine itself does not police id uniqueness across regions.
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("01*")));
        e.register(ContinuousQuery::new(1, p("10*")));
        assert_eq!(e.query_count(), 2);
        assert!(e.deregister(p("01*"), 1));
        assert_eq!(e.query_count(), 1);
        assert_eq!(e.ingest(k("10000000")), vec![1]);
    }

    #[test]
    fn extract_group_takes_resident_queries() {
        let mut e = engine();
        // Origin of "0110*" is 01100000 — inside group "011*".
        e.register(ContinuousQuery::new(1, p("0110*")));
        // Origin of "01*" is 01000000 — inside group "010*", not "011*".
        e.register(ContinuousQuery::new(2, p("01*")));
        // Origin of "01111111" — inside "011*".
        e.register(ContinuousQuery::new(3, p("01111111")));
        let ids: Vec<u64> = e.extract_group(p("011*")).iter().map(|q| q.id()).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(e.query_count(), 1);
        // The ancestor query (id 2) still matches keys in 011*.
        assert_eq!(e.ingest(k("01101111")), vec![2]);
    }

    #[test]
    fn extract_then_reinsert_preserves_matching() {
        let subscribed = || {
            let mut e = engine();
            for id in 0..20 {
                let depth = 1 + (id % 7) as u32;
                let pattern = (id * 37) % (1 << depth);
                let region = Prefix::new(pattern, depth, e.width()).unwrap();
                e.register(ContinuousQuery::new(id, region));
            }
            e
        };
        let mut a = subscribed();
        let mut b = engine();
        b.register_all(a.extract_group(p("01*")));
        // Every key's total match count across both engines equals the
        // original engine's count.
        let mut original = subscribed();
        for bits in 0..256u64 {
            let key = Key::from_bits_truncated(bits, a.width());
            assert_eq!(
                a.ingest(key).len() + b.ingest(key).len(),
                original.ingest(key).len(),
                "key {key}"
            );
        }
    }

    #[test]
    fn iter_visits_everything() {
        // Extracting the whole space hands over every resident query.
        let mut e = engine();
        e.register(ContinuousQuery::new(1, p("0*")));
        e.register(ContinuousQuery::new(2, p("0110*")));
        e.register(ContinuousQuery::new(3, p("11*")));
        let ids: Vec<u64> = e
            .extract_group(Prefix::root(e.width()))
            .iter()
            .map(|q| q.id())
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(e.query_count(), 0);
    }

    #[test]
    fn empty_index_behaviour() {
        let mut e = engine();
        assert_eq!(e.query_count(), 0);
        assert!(e.ingest(k("00000000")).is_empty());
        assert!(e.extract_group(p("0*")).is_empty());
        assert!(!e.deregister(p("0*"), 1));
    }
}
