//! Failure injection and recovery: crash the busiest server mid-run and
//! watch the system reassign its key groups through the DHT, repair
//! dangling tree pointers, and keep serving lookups.
//!
//! (The paper leaves fault handling to the DHT layer's replication; this
//! example exercises the crash-recovery extension documented in
//! docs/ARCHITECTURE.md § Membership.)
//!
//! Run with: `cargo run --release --example failover`

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_keyspace::key::Key;
use clash_simkernel::rng::DetRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ClashConfig::small_test();
    let mut cluster = ClashCluster::new(config, 12, 314)?;
    let mut rng = DetRng::new(9);

    // A skewed streaming population: the '11*' quadrant is hot.
    for i in 0..140u64 {
        let bits = if rng.chance(0.7) {
            0b1100_0000 | rng.uniform_u64(64)
        } else {
            rng.uniform_u64(256)
        };
        cluster.attach_source(i, Key::from_bits_truncated(bits, config.key_width), 2.0)?;
    }
    cluster.run_load_check()?;
    println!(
        "steady state: {} groups across {} servers, {} splits so far",
        cluster.global_cover().len(),
        cluster.servers_with_groups(),
        cluster.message_stats().splits
    );

    // Crash the busiest server.
    let (victim, load) = cluster
        .server_loads()
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("servers exist");
    println!("crashing server {victim} (load {load:.0} units)...");
    let report = cluster.fail_server(victim)?;
    println!(
        "recovery: {} groups re-homed, {} orphaned parents, {} right-child pointers repaired",
        report.groups_reassigned, report.orphaned_parents, report.repaired_right_children
    );

    // The invariants held through the crash...
    cluster.verify_consistency();
    assert!(cluster.global_cover().is_partition());

    // ...and every key still resolves, never to the corpse.
    let mut probes_total = 0;
    for bits in 0..=255u64 {
        let placement = cluster.locate(Key::from_bits_truncated(bits, config.key_width))?;
        assert_ne!(placement.server, victim, "routed to the crashed server");
        probes_total += placement.probes;
    }
    println!(
        "post-crash lookups: 256/256 keys resolved, {:.2} probes on average",
        f64::from(probes_total) / 256.0
    );

    // Load checks keep working; the survivors absorb the load.
    let post = cluster.run_load_check()?;
    println!(
        "next load check: {} splits, {} merges — the fleet adapts and moves on",
        post.splits.len(),
        post.merges.len()
    );
    Ok(())
}
