//! Mobiscope-style vehicle tracking — the paper's motivating telematics
//! application (§6 cites Mobiscope as the example deployment).
//!
//! Vehicles stream position updates keyed by a quad-tree encoding of
//! their map cell; dispatchers register continuous queries over map
//! regions. CLASH clusters nearby vehicles on the same server (shared key
//! prefixes) and splits the downtown hotspot when rush hour hits, while
//! the continuous-query engine keeps delivering matches.
//!
//! Run with: `cargo run --release --example mobiscope`

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_keyspace::key::KeyWidth;
use clash_keyspace::keygen::{GridPoint, KeyGen, QuadTreeEncoder};
use clash_keyspace::prefix::Prefix;
use clash_simkernel::rng::DetRng;
use clash_streamquery::engine::QueryEngine;
use clash_streamquery::query::ContinuousQuery;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16×16-cell city map → 8-bit quad-tree keys.
    let encoder = QuadTreeEncoder::new(4)?;
    let width: KeyWidth = encoder.key_width();
    let config = ClashConfig {
        key_width: width,
        ..ClashConfig::small_test()
    };
    let mut cluster = ClashCluster::new(config, 12, 7)?;
    let mut rng = DetRng::new(99);

    // 150 vehicles: two thirds downtown (cells 4..8 × 4..8), the rest
    // spread across the city.
    let mut positions = Vec::new();
    for v in 0..150u64 {
        let downtown = v % 3 != 0;
        let (x, y) = if downtown {
            (4 + rng.uniform_u64(4), 4 + rng.uniform_u64(4))
        } else {
            (rng.uniform_u64(16), rng.uniform_u64(16))
        };
        let cell = GridPoint::new(x, y);
        let key = encoder.encode(&cell)?;
        cluster.attach_source(v, key, 2.0)?;
        positions.push((v, cell, key));
    }
    println!("150 vehicles attached (100 downtown); total 300 pkt/s");

    // A dispatcher subscribes to the downtown quadrant and a suburb.
    let mut engine = QueryEngine::new(width);
    let downtown_region = Prefix::of_key(encoder.encode(&GridPoint::new(5, 5))?, 4);
    let suburb_region = Prefix::of_key(encoder.encode(&GridPoint::new(14, 2))?, 4);
    engine.register(ContinuousQuery::new(1, downtown_region));
    engine.register(ContinuousQuery::new(2, suburb_region));
    cluster.attach_query(1, downtown_region.virtual_key())?;
    cluster.attach_query(2, suburb_region.virtual_key())?;

    // Rush hour: the load check splits the downtown groups.
    let report = cluster.run_load_check()?;
    println!("rush hour load check: {} splits", report.splits.len());
    let (_, _, dmax) = cluster.depth_stats().expect("groups exist");
    println!("deepest key group now at depth {dmax} (started at 2)");
    assert!(cluster.global_cover().is_partition());

    // The query engine still matches every downtown update.
    let mut downtown_updates = 0;
    let mut matched = 0;
    for &(_, cell, key) in &positions {
        let hits = engine.ingest(key);
        if downtown_region.contains(key) {
            downtown_updates += 1;
            assert!(hits.contains(&1), "downtown update must match at {cell:?}");
        }
        matched += hits.len();
    }
    println!(
        "streamed {} updates: {downtown_updates} downtown, {matched} query deliveries",
        positions.len()
    );

    // Vehicles near each other share servers (content locality): check
    // two adjacent downtown cells end up in the same key group or on
    // sibling groups.
    let a = cluster
        .oracle_locate(encoder.encode(&GridPoint::new(5, 5))?)
        .expect("covered");
    let b = cluster
        .oracle_locate(encoder.encode(&GridPoint::new(5, 6))?)
        .expect("covered");
    println!(
        "adjacent cells (5,5) and (5,6): groups {} and {} (servers {} and {})",
        a.1, b.1, a.0, b.0
    );

    // Night: vehicles park, load evaporates, CLASH consolidates.
    for v in 0..150u64 {
        cluster.detach_source(v)?;
    }
    for _ in 0..8 {
        cluster.run_load_check()?;
    }
    let (_, _, dmax) = cluster.depth_stats().expect("groups exist");
    println!("after midnight, max depth back to {dmax}");
    Ok(())
}
