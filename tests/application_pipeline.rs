//! Integration across the application layers: quad-tree key generation →
//! CLASH placement → continuous-query matching with state migration on
//! splits (the Mobiscope pipeline of the paper's §1/§6).

use std::collections::BTreeMap;

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::ServerId;
use clash_keyspace::keygen::{GridPoint, KeyGen, QuadTreeEncoder};
use clash_keyspace::prefix::Prefix;
use clash_simkernel::rng::DetRng;
use clash_streamquery::engine::QueryEngine;
use clash_streamquery::query::ContinuousQuery;

/// A miniature distributed deployment: one query engine per server, kept
/// in sync with CLASH group placement by migrating engine state on every
/// split/merge the load checks perform.
struct Deployment {
    cluster: ClashCluster,
    engines: BTreeMap<u64, QueryEngine>,
    /// Every query registered, once each.
    registered: Vec<ContinuousQuery>,
}

impl Deployment {
    fn new(config: ClashConfig, servers: usize, seed: u64) -> Self {
        let cluster = ClashCluster::new(config, servers, seed).unwrap();
        let engines = cluster
            .server_ids()
            .into_iter()
            .map(|id| (id.value(), QueryEngine::new(config.key_width)))
            .collect();
        Deployment {
            cluster,
            engines,
            registered: Vec::new(),
        }
    }

    fn register_query(&mut self, id: u64, region: Prefix) {
        let key = region.virtual_key();
        let placement = self.cluster.attach_query(id, key).unwrap();
        let query = ContinuousQuery::new(id, region);
        self.engines
            .get_mut(&placement.server.value())
            .unwrap()
            .register(query);
        self.registered.push(query);
    }

    fn run_load_check(&mut self) {
        let report = self.cluster.run_load_check().unwrap();
        // Migrate engine state for every split: queries resident in the
        // right child move to its new server.
        for split in &report.splits {
            let (_, right) = split.group.split().unwrap();
            // The split may have cascaded (self-maps); consult the oracle
            // for every moved group owner instead of assuming one hop.
            self.migrate_group(right, split.right_child_server);
        }
        for merge in &report.merges {
            let (_, right) = merge.parent.split().unwrap();
            self.migrate_group(right, merge.server);
        }
    }

    /// Re-homes query state when `group` moves to `target`:
    ///
    /// * queries whose region lies *within* the group move outright;
    /// * queries whose region strictly *contains* the group are
    ///   **replicated** — the coverage cost the paper attributes to
    ///   coarse queries over split regions (§1, §7): the original copy
    ///   keeps serving the siblings, `target` gets its own copy.
    fn migrate_group(&mut self, group: Prefix, target: ServerId) {
        let mut to_target: Vec<ContinuousQuery> = Vec::new();
        for engine in self.engines.values_mut() {
            // Move queries placed (by identifier key) inside the group.
            for q in engine.extract_group(group) {
                if group.is_prefix_of(q.region()) {
                    to_target.push(q);
                } else {
                    // Region is an ancestor: keep serving locally too.
                    engine.register(q);
                    to_target.push(q);
                }
            }
        }
        // Replicate ancestor-region queries whose copy lives elsewhere.
        let replicas = self
            .registered
            .iter()
            .filter(|q| q.region().is_prefix_of(group) && q.region() != group)
            .copied();
        let target_engine = self.engines.get_mut(&target.value()).unwrap();
        for q in to_target.into_iter().chain(replicas) {
            if !target_engine.contains(q.region(), q.id()) {
                target_engine.register(q);
            }
        }
    }

    /// Routes a packet via CLASH and matches it on the owning server's
    /// engine.
    fn deliver(&mut self, key: clash_keyspace::key::Key) -> Vec<u64> {
        let placement = self.cluster.locate(key).unwrap();
        self.engines
            .get_mut(&placement.server.value())
            .unwrap()
            .ingest(key)
    }
}

#[test]
fn query_state_follows_groups_through_splits() {
    let encoder = QuadTreeEncoder::new(4).unwrap(); // 8-bit keys
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::small_test()
    };
    let mut dep = Deployment::new(config, 10, 17);
    let mut rng = DetRng::new(3);

    // Dispatchers watch each quadrant at depth 2 plus two fine cells.
    for (i, pattern) in (0..4u64).enumerate() {
        let region = Prefix::new(pattern, 2, encoder.key_width()).unwrap();
        dep.register_query(i as u64, region);
    }
    dep.register_query(100, Prefix::parse("110101*", 8).unwrap());
    dep.register_query(101, Prefix::parse("1101*", 8).unwrap());

    // Heat the south-east: 120 vehicles in cells whose keys start 11….
    for v in 0..120u64 {
        let cell = GridPoint::new(8 + rng.uniform_u64(8), 8 + rng.uniform_u64(8));
        let key = encoder.encode(&cell).unwrap();
        dep.cluster.attach_source(1000 + v, key, 2.0).unwrap();
    }
    dep.run_load_check();
    let (_, _, dmax) = dep.cluster.depth_stats().unwrap();
    assert!(dmax > 2, "hot quadrant must split (depth {dmax})");

    // Every packet still reaches exactly the queries covering it, even
    // though the hot quadrant's queries migrated across servers.
    let mut total_deliveries = 0;
    for v in 0..120u64 {
        let cell = GridPoint::new(8 + rng.uniform_u64(8), 8 + rng.uniform_u64(8));
        let key = encoder.encode(&cell).unwrap();
        let hits = dep.deliver(key);
        // The south-east quadrant query (pattern 11, id 3) must match.
        assert!(
            hits.contains(&3),
            "packet at {cell:?} missed the SE dispatcher"
        );
        // Region membership matches the query definitions exactly.
        if Prefix::parse("1101*", 8).unwrap().contains(key) {
            assert!(hits.contains(&101));
        }
        if Prefix::parse("110101*", 8).unwrap().contains(key) {
            assert!(hits.contains(&100));
        }
        // No duplicate deliveries for one packet.
        let mut unique = hits.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hits.len(), "duplicate delivery at {cell:?}");
        total_deliveries += hits.len();
        let _ = v;
    }
    assert!(total_deliveries >= 120, "every packet matches ≥ 1 query");

    // Replication happened: the split SE quadrant forces extra copies of
    // the coarse queries (the paper's coverage cost), so the resident
    // count exceeds the 6 registrations.
    let resident: usize = dep.engines.values().map(|e| e.query_count()).sum();
    assert!(resident > 6, "expected replicas, resident = {resident}");
}

#[test]
fn locality_keeps_neighbours_together_until_load_separates_them() {
    let encoder = QuadTreeEncoder::new(4).unwrap();
    let config = ClashConfig::small_test();
    let mut cluster = ClashCluster::new(config, 10, 5).unwrap();

    // With no load, adjacent cells in one quadrant share one server — the
    // content-sensitive placement of §1.
    let keys: Vec<_> = (0..4)
        .map(|i| encoder.encode(&GridPoint::new(i, 0)).unwrap())
        .collect();
    let servers: Vec<_> = keys
        .iter()
        .map(|&k| cluster.oracle_locate(k).unwrap().0)
        .collect();
    assert!(
        servers.windows(2).all(|w| w[0] == w[1]),
        "cold neighbours should share a server: {servers:?}"
    );

    // Heat the quadrant: neighbours may now spread across servers, but
    // only then (minimal dispersal).
    let group_count_before = cluster.global_cover().len();
    for v in 0..100u64 {
        let cell = GridPoint::new(v % 8, (v / 8) % 8);
        cluster
            .attach_source(v, encoder.encode(&cell).unwrap(), 2.0)
            .unwrap();
    }
    cluster.run_load_check().unwrap();
    assert!(cluster.global_cover().len() > group_count_before);
    cluster.verify_consistency();
}
