//! Churn experiment (beyond the paper's evaluation): live membership
//! under load.
//!
//! The paper fixes server membership during its experiments; utility
//! computing is precisely the opposite regime. Two scenarios exercise
//! [`clash_core::cluster::ClashCluster::join_server`] /
//! [`clash_core::cluster::ClashCluster::leave_server`] with traffic
//! flowing:
//!
//! * **sustained** — the A→B→C scenario with Poisson joins, graceful
//!   drains and occasional crashes throughout;
//! * **flash crowd** — a single hot phase (workload C) with a burst of
//!   joins ramping capacity up by 50% mid-run.
//!
//! Reported per run: lookup health (probes per locate, plus a pinned-seed
//! oracle sweep over the final cluster), handoff message rates, and load
//! imbalance (max/avg over active servers) over virtual time.

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_keyspace::key::Key;
use clash_obs::{TraceEvent, TraceMode};
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

use crate::catalogue::paper_spec;
use crate::driver::{RunResult, SimDriver};
use crate::report;

/// Post-run oracle sweep over the final cluster state.
#[derive(Debug, Clone, Copy)]
pub struct OracleSweep {
    /// Keys checked.
    pub checked: u64,
    /// Lookups that agreed with the oracle (owner and group).
    pub agreed: u64,
    /// Largest probe count any lookup needed.
    pub max_probes: u32,
}

/// One churn scenario's results.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// The driver's time series and totals.
    pub result: RunResult,
    /// Lookup correctness on the post-churn cluster.
    pub sweep: OracleSweep,
    /// Servers at the end of the run.
    pub final_servers: usize,
    /// Whole-run locate latency percentiles `(p50, p95, p99)` in virtual
    /// ms, over the experiment's WAN transport.
    pub locate_ms: (f64, f64, f64),
    /// Flight-recorder events collected from the run (empty when the
    /// trace mode was [`TraceMode::Off`]).
    pub trace: Vec<TraceEvent>,
}

/// The churn experiment's output.
#[derive(Debug, Clone)]
pub struct ChurnOutput {
    /// The sustained join/leave/crash scenario.
    pub sustained: ChurnRun,
    /// The flash-crowd ramp scenario.
    pub flash: ChurnRun,
    /// Scale factor applied to the paper populations.
    pub scale: f64,
}

/// Sweeps `n` deterministic keys through the client protocol and checks
/// each placement against the oracle. The sweep's locates count in the
/// numbers every caller reads next, so it closes their window.
pub(crate) fn oracle_sweep(cluster: &mut ClashCluster, n: u64, seed: u64) -> OracleSweep {
    let width = cluster.config().key_width;
    let mut rng = DetRng::new(seed);
    let mut agreed = 0;
    let mut max_probes = 0;
    for _ in 0..n {
        let key = Key::from_bits_truncated(rng.next_u64(), width);
        let placement = cluster.locate(key).expect("locate cannot fail");
        let (oracle_server, oracle_group) =
            cluster.oracle_locate(key).expect("cover is a partition");
        if placement.server == oracle_server && placement.group == oracle_group {
            agreed += 1;
        }
        max_probes = max_probes.max(placement.probes);
    }
    cluster.flush_batch().expect("flush cannot fail");
    OracleSweep {
        checked: n,
        agreed,
        max_probes,
    }
}

fn run_one(spec: ScenarioSpec, label: &str, trace: TraceMode) -> Result<ChurnRun, ClashError> {
    // Churn runs ride a WAN transport so the latency-percentile columns
    // carry real numbers; the transport draws from its own keys, so
    // the protocol behaves exactly as it would over the instant one.
    let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), spec.seed));
    let config = ClashConfig::paper();
    let mut driver = SimDriver::with_transport(config, spec, label.to_owned(), transport)?;
    // The flight recorder is passive: any mode yields the same RunResult
    // bit-for-bit (pinned by tests/trace_equivalence.rs).
    driver.cluster_mut().set_trace(trace);
    let (result, mut cluster) = driver.run_with_cluster()?;
    cluster.verify_consistency();
    let sweep = oracle_sweep(&mut cluster, 512, 0xC1A5_0C12);
    let locate = &cluster.latency_metrics().locate;
    let q = |p: f64| locate.quantile(p).unwrap_or(0.0);
    Ok(ChurnRun {
        result,
        sweep,
        final_servers: cluster.server_count(),
        locate_ms: (q(0.50), q(0.95), q(0.99)),
        trace: cluster.take_trace_events(),
    })
}

/// Runs both churn scenarios at the paper populations scaled by `scale`.
/// `seed` overrides the paper scenario's hard-coded root seed; both
/// scenarios run with the flight recorder `trace` describes and each
/// [`ChurnRun`] carries its collected events (for `--trace <path>`).
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>, trace: TraceMode) -> Result<ChurnOutput, ClashError> {
    let base = paper_spec(scale, seed);
    let servers = base.servers;

    // Sustained: a join roughly every 10 virtual minutes, a drain every
    // 12, a crash every 45 — bounded to [half, double] the fleet.
    let sustained_spec = base.with_churn(
        ChurnSpec::sustained(
            SimDuration::from_mins(10),
            SimDuration::from_mins(12),
            (servers / 2).max(2),
            servers * 2,
        )
        .with_crashes(SimDuration::from_mins(45)),
    );
    let sustained = run_one(sustained_spec, "CLASH+churn", trace)?;

    // Flash crowd: one hot hour; +50% capacity joins back-to-back
    // starting at t = 20 min.
    let flash_spec = ScenarioSpec {
        phases: vec![Phase {
            workload: WorkloadKind::C,
            duration: SimDuration::from_mins(60),
        }],
        ..base
    }
    .with_churn(ChurnSpec::flash_crowd(
        SimDuration::from_mins(20),
        (servers / 2).max(1),
        SimDuration::from_secs(30),
    ));
    let flash = run_one(flash_spec, "CLASH+flash", trace)?;

    Ok(ChurnOutput {
        sustained,
        flash,
        scale,
    })
}

fn totals_row(run: &ChurnRun) -> Vec<String> {
    let r = &run.result;
    vec![
        r.label.clone(),
        r.joins.to_string(),
        r.leaves.to_string(),
        r.crashes.to_string(),
        run.final_servers.to_string(),
        r.splits.to_string(),
        r.merges.to_string(),
        r.final_messages.handoff_messages.to_string(),
        format!("{}/{}", run.sweep.agreed, run.sweep.checked),
        run.sweep.max_probes.to_string(),
        report::f1(run.locate_ms.0),
        report::f1(run.locate_ms.1),
        report::f1(run.locate_ms.2),
    ]
}

/// Renders both scenarios: a totals table plus the flash-crowd time
/// series (servers, load, handoff traffic).
pub fn render(out: &ChurnOutput) -> String {
    let mut s = format!(
        "Churn — live membership under load (scale {}):\n",
        out.scale
    );
    s.push_str(&report::ascii_table(
        &[
            "scenario",
            "joins",
            "leaves",
            "crashes",
            "final servers",
            "splits",
            "merges",
            "handoff msgs",
            "oracle agreement",
            "max probes",
            "locate p50 ms",
            "locate p95 ms",
            "locate p99 ms",
        ],
        &[totals_row(&out.sustained), totals_row(&out.flash)],
    ));
    s.push('\n');
    s.push_str("Flash-crowd ramp (workload C, +50% servers from t = 20 min):\n");
    let rows: Vec<Vec<String>> = out
        .flash
        .result
        .samples
        .iter()
        .map(|r| {
            vec![
                report::f2(r.time_hours),
                r.server_count.to_string(),
                report::f1(r.max_load_pct),
                report::f1(r.avg_active_load_pct),
                report::f2(r.handoff_msgs_per_sec_per_server),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &[
            "t (h)",
            "servers",
            "max load %",
            "avg active load %",
            "handoff msgs/s/srv",
        ],
        &rows,
    ));
    s
}

/// Writes `churn_timeseries.csv` (both scenarios, labelled).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &ChurnOutput, dir: &str) -> std::io::Result<()> {
    let mut rows = Vec::new();
    for run in [&out.sustained, &out.flash] {
        for r in &run.result.samples {
            // Load imbalance: max over avg-active, the churn experiment's
            // balance metric (1.0 = perfectly even).
            let imbalance = if r.avg_active_load_pct > 0.0 {
                r.max_load_pct / r.avg_active_load_pct
            } else {
                0.0
            };
            rows.push(vec![
                run.result.label.clone(),
                report::f2(r.time_hours),
                r.workload.to_string(),
                r.server_count.to_string(),
                report::f2(r.max_load_pct),
                report::f2(r.avg_active_load_pct),
                report::f2(imbalance),
                report::f2(r.handoff_msgs_per_sec_per_server),
                report::f2(r.proto_msgs_per_sec_per_server),
                report::f2(r.total_msgs_per_sec_per_server),
                report::f2(r.locate_p50_ms),
                report::f2(r.locate_p95_ms),
                report::f2(r.locate_p99_ms),
            ]);
        }
    }
    report::write_csv(
        format!("{dir}/churn_timeseries.csv"),
        &[
            "scenario",
            "time_hours",
            "workload",
            "servers",
            "max_load_pct",
            "avg_active_load_pct",
            "load_imbalance",
            "handoff_msgs_per_sec_per_server",
            "proto_msgs_per_sec_per_server",
            "total_msgs_per_sec_per_server",
            "locate_p50_ms",
            "locate_p95_ms",
            "locate_p99_ms",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: the experiment runs end-to-end at the CI
    /// smoke scale, lookups agree with the oracle after all membership
    /// events, and the flash crowd actually grows the fleet.
    #[test]
    fn churn_small_scale_end_to_end() {
        let out = run(0.02, None, TraceMode::Off).unwrap();
        for run in [&out.sustained, &out.flash] {
            assert_eq!(
                run.sweep.agreed, run.sweep.checked,
                "{}: lookups must agree with the oracle after churn",
                run.result.label
            );
            assert!(run.sweep.max_probes <= 6, "depth search stays bounded");
            let (p50, p95, p99) = run.locate_ms;
            assert!(
                p50 > 0.0 && p50 <= p95 && p95 <= p99,
                "{}: WAN locate percentiles must be recorded and ordered: {:?}",
                run.result.label,
                run.locate_ms
            );
        }
        let s = &out.sustained.result;
        assert!(s.joins > 0, "sustained churn must join servers");
        assert!(s.leaves > 0, "sustained churn must drain servers");
        assert!(s.final_messages.handoff_messages > 0);
        let f = &out.flash.result;
        assert!(
            f.joins >= 10,
            "flash crowd adds half the fleet: {}",
            f.joins
        );
        assert_eq!(f.leaves, 0);
        assert!(
            out.flash.final_servers > 20,
            "ramp must persist: {} servers",
            out.flash.final_servers
        );
        let rendered = render(&out);
        assert!(rendered.contains("oracle agreement"));
        assert!(rendered.contains("Flash-crowd"));
    }
}
