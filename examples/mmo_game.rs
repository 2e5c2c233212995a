//! Massively-multiplayer game sharding — the application the paper's
//! conclusion singles out ("we are currently building a CLASH-based
//! middleware for online games").
//!
//! The game world is a quad-tree of zones. Players cluster around a world
//! event ("dragon raid"), overloading the shard that owns that region;
//! CLASH splits the zone across more shard servers *only while the event
//! lasts*, then consolidates — the utility-computing story of §1, with
//! per-phase accounting of servers in use.
//!
//! Run with: `cargo run --release --example mmo_game`

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_keyspace::keygen::{GridPoint, KeyGen, QuadTreeEncoder};
use clash_simkernel::rng::DetRng;

fn servers_in_use(cluster: &ClashCluster) -> usize {
    cluster
        .server_ids()
        .into_iter()
        .filter(|&id| cluster.server(id).is_some_and(|s| s.current_load() > 1.0))
        .count()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 32×32 world grid → 10-bit zone keys.
    let encoder = QuadTreeEncoder::new(5)?;
    let config = ClashConfig {
        key_width: encoder.key_width(),
        capacity: 120.0,
        ..ClashConfig::small_test()
    };
    let mut cluster = ClashCluster::new(config, 20, 2024)?;
    let mut rng = DetRng::new(5);

    // 200 players roam uniformly; each player's client streams 1 pkt/s.
    for p in 0..200u64 {
        let pos = GridPoint::new(rng.uniform_u64(32), rng.uniform_u64(32));
        cluster.attach_source(p, encoder.encode(&pos)?, 1.0)?;
    }
    cluster.run_load_check()?;
    let baseline_servers = servers_in_use(&cluster);
    println!("exploring phase: {baseline_servers} shard servers in use for 200 players");

    // The dragon raid: 160 players converge on zone (12..14, 20..22) and
    // start spamming abilities (5 pkt/s each).
    for p in 0..160u64 {
        let pos = GridPoint::new(12 + rng.uniform_u64(2), 20 + rng.uniform_u64(2));
        cluster.move_source_with_rate(p, encoder.encode(&pos)?, Some(5.0))?;
    }
    let mut raid_splits = 0;
    for _ in 0..4 {
        raid_splits += cluster.run_load_check()?.splits.len();
    }
    let raid_servers = servers_in_use(&cluster);
    let (_, _, dmax) = cluster.depth_stats().expect("groups exist");
    println!(
        "dragon raid: {raid_splits} zone splits, {raid_servers} shard servers in use, \
         hottest zone now at depth {dmax}"
    );
    assert!(
        raid_servers >= baseline_servers,
        "the raid must not shrink the fleet"
    );
    assert!(cluster.global_cover().is_partition());

    // The raid zone is split deep, but every player still routes to the
    // correct shard in a handful of probes.
    let raid_key = encoder.encode(&GridPoint::new(13, 21))?;
    let placement = cluster.locate(raid_key)?;
    println!(
        "raid-zone lookup: server {} at depth {} in {} probes",
        placement.server, placement.depth, placement.probes
    );

    // Raid over: players disperse and calm down.
    for p in 0..160u64 {
        let pos = GridPoint::new(rng.uniform_u64(32), rng.uniform_u64(32));
        cluster.move_source_with_rate(p, encoder.encode(&pos)?, Some(1.0))?;
    }
    let mut merges = 0;
    for _ in 0..10 {
        merges += cluster.run_load_check()?.merges.len();
    }
    let after_servers = servers_in_use(&cluster);
    let (_, _, dmax) = cluster.depth_stats().expect("groups exist");
    println!(
        "raid over: {merges} consolidations, {after_servers} shard servers in use, \
         max zone depth back to {dmax}"
    );
    println!(
        "on-demand allocation: {baseline_servers} -> {raid_servers} -> {after_servers} servers"
    );
    Ok(())
}
