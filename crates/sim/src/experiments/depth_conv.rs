//! The §5 convergence claim: "clients usually converge to the true depth
//! much faster than log(N)".
//!
//! We heat a cluster with the skewed workload C until the tree is deep,
//! then measure fresh (unhinted) and hinted depth searches for keys drawn
//! from the same workload, reporting the probe distribution against the
//! binary-search bound ⌈log₂(N+1)⌉.

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_simkernel::rng::DetRng;
use clash_simkernel::stats;
use clash_workload::skew::{Workload, WorkloadKind};

use crate::catalogue::heat;
use crate::report;

/// Probe-count distribution for one lookup mode.
#[derive(Debug, Clone)]
pub struct ProbeStats {
    /// Lookup mode label.
    pub mode: String,
    /// Mean probes per locate.
    pub mean: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum observed.
    pub max: u32,
    /// The binary-search bound ⌈log₂(N+1)⌉ for reference.
    pub bound: u32,
}

/// The regenerated convergence data.
#[derive(Debug, Clone)]
pub struct DepthConvOutput {
    /// Tree depth statistics after heating: (min, mean, max).
    pub tree_depth: (u32, f64, u32),
    /// Probe statistics per mode.
    pub stats: Vec<ProbeStats>,
    /// Number of lookups measured per mode.
    pub lookups: usize,
}

/// Heats a cluster with workload C and measures `lookups` searches
/// (`seed: None` keeps the hard-coded default seeds).
///
/// # Errors
///
/// Propagates cluster errors.
pub fn run(
    servers: usize,
    sources: usize,
    lookups: usize,
    seed: Option<u64>,
) -> Result<DepthConvOutput, ClashError> {
    let config = ClashConfig {
        // Scale capacity so the given population forces deep splitting.
        capacity: (sources as f64 * 2.0 / 40.0).max(50.0),
        ..ClashConfig::paper()
    };
    let mut cluster = ClashCluster::new(config, servers, seed.unwrap_or(42))?;
    let mut rng = DetRng::new(seed.map_or(4242, |s| s ^ 4242));
    heat(&mut cluster, sources as u64, &mut rng, 8)?;
    let workload = Workload::paper(WorkloadKind::C);
    let tree_depth = cluster.depth_stats().expect("groups exist");

    let width = config.key_width.get();
    let bound = 32 - (width + 1).leading_zeros() + 1;
    let mut fresh = Vec::with_capacity(lookups);
    let mut hinted = Vec::with_capacity(lookups);
    let mut last_depth = config.initial_depth;
    for _ in 0..lookups {
        let key = workload.sample_key(config.key_width, &mut rng);
        let placement = cluster.locate(key)?;
        fresh.push(f64::from(placement.probes));
        let placement = cluster.locate_hinted(key, Some(last_depth))?;
        hinted.push(f64::from(placement.probes));
        last_depth = placement.depth;
    }
    let make = |mode: &str, xs: &[f64]| ProbeStats {
        mode: mode.to_owned(),
        mean: stats::mean(xs),
        p95: stats::percentile(xs, 95.0).unwrap_or(0.0),
        max: xs.iter().copied().fold(0.0, f64::max) as u32,
        bound,
    };
    Ok(DepthConvOutput {
        tree_depth,
        stats: vec![
            make("fresh (no hint)", &fresh),
            make("hinted (cached depth)", &hinted),
        ],
        lookups,
    })
}

/// Renders the claim check.
pub fn render(out: &DepthConvOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .stats
        .iter()
        .map(|s| {
            vec![
                s.mode.clone(),
                report::f2(s.mean),
                report::f1(s.p95),
                s.max.to_string(),
                s.bound.to_string(),
            ]
        })
        .collect();
    format!(
        "Depth-search convergence (§5 claim) — tree depth min {} / avg {:.1} / max {}, \
         {} lookups\n{}",
        out.tree_depth.0,
        out.tree_depth.1,
        out.tree_depth.2,
        out.lookups,
        report::ascii_table(
            &["mode", "mean probes", "p95", "max", "binary-search bound"],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_below_binary_search_bound() {
        let out = run(40, 2000, 400, None).unwrap();
        assert!(
            out.tree_depth.2 > 6,
            "tree must deepen: {:?}",
            out.tree_depth
        );
        let fresh = &out.stats[0];
        // The paper's claim: usually much faster than log2(N).
        assert!(
            fresh.mean < f64::from(fresh.bound),
            "mean {} vs bound {}",
            fresh.mean,
            fresh.bound
        );
        // Worst case stays within the probe budget (bound + slack).
        assert!(fresh.max <= 24 + 2);
        // Hints help on average.
        let hinted = &out.stats[1];
        assert!(hinted.mean <= fresh.mean + 0.5);
    }
}
