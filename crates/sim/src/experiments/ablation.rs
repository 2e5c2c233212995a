//! Ablations over four design choices:
//!
//! 1. **Split policy** — hottest-first (the paper) vs first-loaded;
//! 2. **Initial depth** — 3 / 6 / 9 bootstrap groups;
//! 3. **Merge headroom** — hysteresis against split/merge thrash;
//! 4. **Virtual servers** — CFS-style ownership balancing at the Chord
//!    layer (orthogonal to CLASH's load-aware splitting).

use clash_chord::virtual_nodes::VirtualRing;
use clash_core::config::{ClashConfig, SplitPolicy};
use clash_core::error::ClashError;
use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;
use clash_simkernel::stats;
use clash_simkernel::time::SimDuration;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

use crate::catalogue::paper_spec;
use crate::driver::RunResult;
use crate::experiments::run_variants;
use crate::report;

/// Results of all ablation sweeps.
#[derive(Debug, Clone)]
pub struct AblationOutput {
    /// Split-policy sweep runs.
    pub split_policy: Vec<RunResult>,
    /// Initial-depth sweep runs (depth, run).
    pub initial_depth: Vec<(u32, RunResult)>,
    /// Merge-headroom sweep (headroom fraction, splits, merges).
    pub merge_headroom: Vec<(f64, u64, u64)>,
    /// Virtual-server sweep (vnodes per server, ownership stddev).
    pub virtual_servers: Vec<(usize, f64)>,
}

fn hot_spec(scale: f64, seed: Option<u64>) -> ScenarioSpec {
    ScenarioSpec {
        phases: vec![Phase {
            workload: WorkloadKind::C,
            duration: SimDuration::from_mins(30),
        }],
        ..paper_spec(scale, seed)
    }
}

/// A heat-then-cool scenario for the thrash measurement.
fn cycle_spec(scale: f64, seed: Option<u64>) -> ScenarioSpec {
    ScenarioSpec {
        phases: vec![
            Phase {
                workload: WorkloadKind::C,
                duration: SimDuration::from_mins(25),
            },
            Phase {
                workload: WorkloadKind::A,
                duration: SimDuration::from_mins(25),
            },
        ],
        ..paper_spec(scale, seed)
    }
}

/// Runs all sweeps at the given population scale (`seed: None` keeps
/// every hard-coded default seed).
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>) -> Result<AblationOutput, ClashError> {
    // 1. Split policy.
    let split_policy = run_variants(
        [SplitPolicy::Hottest, SplitPolicy::FirstLoaded]
            .into_iter()
            .map(|policy| {
                let config = ClashConfig {
                    split_policy: policy,
                    ..ClashConfig::paper()
                };
                (config, hot_spec(scale, seed), format!("{policy:?}"))
            })
            .collect(),
    )?;

    // 2. Initial depth.
    let depths = [3u32, 6, 9];
    let runs = run_variants(
        depths
            .iter()
            .map(|&d| {
                let config = ClashConfig {
                    initial_depth: d,
                    ..ClashConfig::paper()
                };
                (config, hot_spec(scale, seed), format!("depth {d}"))
            })
            .collect(),
    )?;
    let initial_depth = depths.iter().copied().zip(runs).collect();

    // 3. Merge headroom: count protocol actions across a heat/cool cycle.
    let headrooms = [0.2f64, 0.54, 0.85];
    let runs = run_variants(
        headrooms
            .iter()
            .map(|&h| {
                let config = ClashConfig {
                    merge_headroom_fraction: h,
                    ..ClashConfig::paper()
                };
                (config, cycle_spec(scale, seed), format!("headroom {h}"))
            })
            .collect(),
    )?;
    let merge_headroom = headrooms
        .iter()
        .copied()
        .zip(runs)
        .map(|(h, r)| (h, r.splits, r.merges))
        .collect();

    // 4. Virtual servers (pure Chord-layer measurement).
    let mut virtual_servers = Vec::new();
    for &vnodes in &[1usize, 4, 16] {
        let mut rng = DetRng::new(seed.unwrap_or(99));
        let ring = VirtualRing::new(
            HashSpace::PAPER,
            (1000.0 * scale).max(8.0) as usize,
            vnodes,
            &mut rng,
        );
        virtual_servers.push((vnodes, stats::stddev(&ring.ownership_fractions())));
    }

    Ok(AblationOutput {
        split_policy,
        initial_depth,
        merge_headroom,
        virtual_servers,
    })
}

/// Renders all sweeps.
pub fn render(out: &AblationOutput) -> String {
    let mut s = String::new();
    s.push_str("Ablation 1 — split policy (workload C)\n");
    let rows: Vec<Vec<String>> = out
        .split_policy
        .iter()
        .map(|r| {
            let p = r.phases.first();
            vec![
                r.label.clone(),
                report::f1(p.map_or(0.0, |p| p.peak_load_pct)),
                report::f1(p.map_or(0.0, |p| p.mean_max_load_pct)),
                r.splits.to_string(),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &["policy", "peak load %", "mean max load %", "splits"],
        &rows,
    ));

    s.push_str("\nAblation 2 — initial depth (workload C)\n");
    let rows: Vec<Vec<String>> = out
        .initial_depth
        .iter()
        .map(|(d, r)| {
            let p = r.phases.first();
            vec![
                d.to_string(),
                report::f1(p.map_or(0.0, |p| p.mean_active_servers)),
                report::f1(p.map_or(0.0, |p| p.mean_ctrl_msgs)),
                report::f1(p.map_or(0.0, |p| p.peak_load_pct)),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &[
            "initial depth",
            "active servers",
            "ctrl msgs/s/server",
            "peak load %",
        ],
        &rows,
    ));

    s.push_str("\nAblation 3 — merge headroom over a heat/cool cycle\n");
    let rows: Vec<Vec<String>> = out
        .merge_headroom
        .iter()
        .map(|(h, splits, merges)| vec![report::f2(*h), splits.to_string(), merges.to_string()])
        .collect();
    s.push_str(&report::ascii_table(
        &["headroom fraction", "splits", "merges"],
        &rows,
    ));

    s.push_str("\nAblation 4 — virtual servers (Chord ownership balance)\n");
    let rows: Vec<Vec<String>> = out
        .virtual_servers
        .iter()
        .map(|(v, sd)| vec![v.to_string(), format!("{sd:.5}")])
        .collect();
    s.push_str(&report::ascii_table(
        &["vnodes per server", "ownership stddev"],
        &rows,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_expected_orderings() {
        let out = run(0.01, None).unwrap();
        // Finer initial depth spreads over more servers.
        let servers: Vec<f64> = out
            .initial_depth
            .iter()
            .map(|(_, r)| r.phases[0].mean_active_servers)
            .collect();
        assert!(
            servers[0] <= servers[2],
            "deeper bootstrap should use at least as many servers: {servers:?}"
        );
        // More virtual nodes balance ownership better.
        let sd: Vec<f64> = out.virtual_servers.iter().map(|&(_, s)| s).collect();
        assert!(sd[0] > sd[2], "vnodes should reduce stddev: {sd:?}");
        assert!(render(&out).contains("Ablation 4"));
    }
}
