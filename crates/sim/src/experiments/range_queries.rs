//! The §7 extension claim: "For range queries, the CLASH overhead
//! vis-à-vis DHT will decrease, since CLASH will cluster ranges of
//! objects on a common server and thus incur lower query replication
//! overhead."
//!
//! We heat a CLASH cluster and a `DHT(12)` baseline with the same
//! workload-C population, then issue prefix-range queries of varying
//! width and compare how many distinct servers (and messages) each
//! system needs; `DHT(24)`'s cost is reported analytically (2^(24−d)
//! subgroups — executing it would be the point being made).

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_keyspace::prefix::Prefix;
use clash_simkernel::rng::DetRng;
use clash_simkernel::stats;

use crate::catalogue::heat;
use crate::report;

/// Aggregates for one range depth × one system.
#[derive(Debug, Clone, Copy)]
pub struct RangeCost {
    /// Mean distinct servers touched per range query.
    pub mean_servers: f64,
    /// Worst case distinct servers.
    pub max_servers: usize,
    /// Mean control messages per range query.
    pub mean_messages: f64,
}

/// One row of the comparison: a range depth with CLASH vs DHT(12) costs.
#[derive(Debug, Clone, Copy)]
pub struct RangeRow {
    /// Prefix length of the queried ranges.
    pub range_depth: u32,
    /// CLASH cost.
    pub clash: RangeCost,
    /// DHT(12) cost (measured).
    pub dht12: RangeCost,
    /// DHT(24) subgroups per range (analytic lower bound on lookups).
    pub dht24_subgroups: u64,
}

/// The regenerated range-query comparison.
#[derive(Debug, Clone)]
pub struct RangeOutput {
    /// One row per range depth.
    pub rows: Vec<RangeRow>,
    /// Queries sampled per row.
    pub queries: usize,
}

fn measure(
    cluster: &mut ClashCluster,
    range_depth: u32,
    queries: usize,
    seed: u64,
) -> Result<RangeCost, ClashError> {
    let mut rng = DetRng::new(seed);
    let mut servers = Vec::with_capacity(queries);
    let mut messages = Vec::with_capacity(queries);
    let mut max_servers = 0usize;
    for _ in 0..queries {
        // Ranges sample the whole key space uniformly. Ranges over the
        // currently-hot region are dispersed by CLASH *on purpose* (that
        // is the load balancing working); the clustering win the paper
        // predicts shows on the typical range, which the skew leaves
        // intact on one or two servers.
        let key = clash_keyspace::key::Key::from_bits_truncated(
            rng.next_u64(),
            cluster.config().key_width,
        );
        let range = Prefix::of_key(key, range_depth);
        let result = cluster.range_query(range)?;
        servers.push(result.distinct_servers as f64);
        messages.push(result.messages as f64);
        max_servers = max_servers.max(result.distinct_servers);
    }
    Ok(RangeCost {
        mean_servers: stats::mean(&servers),
        max_servers,
        mean_messages: stats::mean(&messages),
    })
}

/// Runs the comparison at the given population scale (`seed: None`
/// keeps the hard-coded default seed).
///
/// # Errors
///
/// Propagates cluster errors.
pub fn run(scale: f64, queries: usize, seed: Option<u64>) -> Result<RangeOutput, ClashError> {
    let cluster_seed = seed.unwrap_or(31);
    let servers = ((1000.0 * scale) as usize).max(16);
    let sources = ((100_000.0 * scale) as usize).max(1000);
    // Capacity targets ~30% aggregate utilization: the spike splits a few
    // levels (the interesting regime) without overcommitting the fleet.
    let clash_config = ClashConfig {
        capacity: (sources as f64 * 2.0) / (0.3 * servers as f64),
        ..ClashConfig::paper()
    };
    let dht12_config = ClashConfig {
        capacity: clash_config.capacity,
        ..ClashConfig::dht_baseline(12)
    };
    let heated = |config| -> Result<ClashCluster, ClashError> {
        let mut cluster = ClashCluster::new(config, servers, cluster_seed)?;
        let mut rng = DetRng::new(cluster_seed ^ 0xFEED);
        heat(&mut cluster, sources as u64, &mut rng, 6)?;
        Ok(cluster)
    };
    let mut clash = heated(clash_config)?;
    let mut dht12 = heated(dht12_config)?;
    let mut rows = Vec::new();
    for range_depth in [4u32, 6, 8, 10] {
        // Without an override the historical per-depth query seeds are
        // kept verbatim; an override salts them so sweeps stay distinct.
        let query_seed = seed.unwrap_or(0) ^ (101 + u64::from(range_depth));
        let clash_cost = measure(&mut clash, range_depth, queries, query_seed)?;
        let dht12_cost = measure(&mut dht12, range_depth, queries, query_seed)?;
        rows.push(RangeRow {
            range_depth,
            clash: clash_cost,
            dht12: dht12_cost,
            dht24_subgroups: 1u64 << (24 - range_depth),
        });
    }
    Ok(RangeOutput { rows, queries })
}

/// Renders the comparison table.
pub fn render(out: &RangeOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                r.range_depth.to_string(),
                report::f2(r.clash.mean_servers),
                r.clash.max_servers.to_string(),
                report::f1(r.clash.mean_messages),
                report::f2(r.dht12.mean_servers),
                report::f1(r.dht12.mean_messages),
                r.dht24_subgroups.to_string(),
            ]
        })
        .collect();
    format!(
        "Range queries (§7 extension) — {} queries per row, workload C\n{}",
        out.queries,
        report::ascii_table(
            &[
                "range depth",
                "CLASH servers (mean)",
                "CLASH servers (max)",
                "CLASH msgs",
                "DHT(12) servers",
                "DHT(12) msgs",
                "DHT(24) subgroups",
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clash_clusters_ranges_on_fewer_servers() {
        let out = run(0.03, 40, None).unwrap(); // 30 servers, 3000 sources
        for row in &out.rows {
            assert!(
                row.clash.mean_servers <= row.dht12.mean_servers,
                "depth {}: CLASH {} vs DHT(12) {}",
                row.range_depth,
                row.clash.mean_servers,
                row.dht12.mean_servers
            );
        }
        // At coarse ranges the gap is large (DHT scatters, CLASH clusters).
        let coarse = &out.rows[0];
        assert!(
            coarse.dht12.mean_servers > 2.0 * coarse.clash.mean_servers,
            "coarse ranges: DHT(12) {} vs CLASH {}",
            coarse.dht12.mean_servers,
            coarse.clash.mean_servers
        );
        assert!(render(&out).contains("Range queries"));
    }
}
