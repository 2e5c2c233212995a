//! Availability experiment (beyond the paper's evaluation): crash
//! recovery with real successor-list replication.
//!
//! The paper delegates fault handling to "the DHT's replication" and
//! never measures it; the harness historically faked it by re-homing a
//! crashed server's groups from the simulation oracle. This experiment
//! measures the real mechanism: it sweeps the replication factor
//! `r ∈ {0, 1, 2, 3}` through an identical hour of workload-C traffic
//! under sustained membership churn, random single crashes and
//! *correlated crash bursts* (a server plus two ring successors failing
//! at once — the rack-failure case), and reports per `r`:
//!
//! * **recovery** — groups recovered vs genuinely lost (owner and every
//!   replica dead), the recovery success rate, sources/queries lost, and
//!   losses attributable to *single* crashes (must be zero whenever
//!   `r ≥ 1`);
//! * **cost** — replication messages, their share of protocol control
//!   traffic, and the virtual-time p95 of replica maintenance/fetch
//!   round trips over a WAN transport;
//! * **honesty** — oracle reads during recovery (the crutch: > 0 at
//!   `r = 0`, exactly 0 otherwise) and a 512-key post-run oracle sweep.
//!
//! `r = 0` is the pre-replication baseline: zero replication messages,
//! zero losses (the oracle resurrects everything), but every crash leans
//! on global state no real deployment has.

use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

use crate::driver::{RecoveryTotals, SimDriver};
use crate::experiments::churn::{oracle_sweep, OracleSweep};
use crate::report;

/// One replication factor's run.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// The replication factor swept.
    pub r: usize,
    /// Servers crashed over the run (single + burst victims).
    pub servers_crashed: u64,
    /// Crash-recovery aggregates.
    pub recovery: RecoveryTotals,
    /// Replication messages charged over the run.
    pub replication_messages: u64,
    /// Replication share of protocol control traffic, percent.
    pub replication_overhead_pct: f64,
    /// p95 of replica maintenance/fetch round trips, virtual ms.
    pub replication_p95_ms: f64,
    /// Oracle reads observed during crash recovery (0 for `r ≥ 1`).
    pub oracle_reads: u64,
    /// Servers at the end of the run.
    pub final_servers: usize,
    /// Post-run 512-key oracle sweep.
    pub sweep: OracleSweep,
}

/// The availability experiment's output.
#[derive(Debug, Clone)]
pub struct AvailabilityOutput {
    /// One row per replication factor, in sweep order.
    pub rows: Vec<AvailabilityRow>,
    /// Scale factor applied to the paper populations.
    pub scale: f64,
}

/// The capacity calibration the fault experiments share (see
/// `netfault`): the paper capacity never overloads at smoke populations,
/// so the crash paths would run against a never-split tree.
fn availability_config(r: usize) -> ClashConfig {
    ClashConfig {
        capacity: 1000.0,
        replication_factor: r,
        ..ClashConfig::paper()
    }
}

fn availability_spec(scale: f64, seed: u64) -> ScenarioSpec {
    let base = ScenarioSpec::paper().scaled(scale);
    let servers = base.servers;
    let spec = ScenarioSpec {
        phases: vec![Phase {
            workload: WorkloadKind::C,
            duration: SimDuration::from_mins(60),
        }],
        query_clients: (base.sources / 10).max(10),
        seed,
        ..base
    };
    // Sustained churn plus crash pressure: joins refill the fleet while
    // single crashes and size-3 bursts drain it. The floor keeps bursts
    // meaningful without letting the fleet collapse.
    spec.with_churn(
        ChurnSpec::sustained(
            SimDuration::from_mins(5),
            SimDuration::from_mins(30),
            (servers / 3).max(4),
            servers * 2,
        )
        .with_crashes(SimDuration::from_mins(8))
        .with_crash_bursts(SimDuration::from_mins(12), 3),
    )
}

fn run_one(r: usize, scale: f64, seed: u64) -> Result<AvailabilityRow, ClashError> {
    let spec = availability_spec(scale, seed);
    let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), seed ^ r as u64));
    let label = format!("CLASH/r={r}");
    let (result, mut cluster) =
        SimDriver::with_transport(availability_config(r), spec, label, transport)?
            .run_with_cluster()?;
    cluster.verify_consistency();
    let sweep = oracle_sweep(&mut cluster, 512, seed ^ 0xA4A1);
    let msgs = result.final_messages;
    let proto = msgs.protocol_control_messages().max(1);
    Ok(AvailabilityRow {
        r,
        servers_crashed: result.crashes,
        recovery: result.recovery,
        replication_messages: msgs.replication_messages,
        replication_overhead_pct: 100.0 * msgs.replication_messages as f64 / proto as f64,
        replication_p95_ms: cluster
            .latency_metrics()
            .replication
            .quantile(0.95)
            .unwrap_or(0.0),
        oracle_reads: cluster.recovery_oracle_reads(),
        final_servers: cluster.server_count(),
        sweep,
    })
}

/// Runs the `r` sweep at the paper populations scaled by `scale`
/// (`seed: None` uses the paper scenario's seed).
///
/// # Errors
///
/// Propagates cluster and scenario errors.
pub fn run(scale: f64, seed: Option<u64>) -> Result<AvailabilityOutput, ClashError> {
    let seed = seed.unwrap_or_else(|| ScenarioSpec::paper().seed);
    let mut rows = Vec::new();
    for r in [0usize, 1, 2, 3] {
        rows.push(run_one(r, scale, seed)?);
    }
    Ok(AvailabilityOutput { rows, scale })
}

fn row_cells(row: &AvailabilityRow) -> Vec<String> {
    let rec = &row.recovery;
    vec![
        row.r.to_string(),
        row.servers_crashed.to_string(),
        format!("{}+{}", rec.single_crashes, rec.burst_crashes),
        rec.groups_recovered.to_string(),
        rec.groups_lost.to_string(),
        rec.single_crash_groups_lost.to_string(),
        format!("{:.1}%", 100.0 * rec.recovery_success_rate()),
        rec.sources_lost.to_string(),
        row.replication_messages.to_string(),
        format!("{:.1}%", row.replication_overhead_pct),
        report::f1(row.replication_p95_ms),
        row.oracle_reads.to_string(),
        format!("{}/{}", row.sweep.agreed, row.sweep.checked),
    ]
}

/// Renders the sweep as an ASCII table.
pub fn render(out: &AvailabilityOutput) -> String {
    let mut s = format!(
        "Availability — crash recovery by replication factor (scale {}):\n",
        out.scale
    );
    s.push_str(&report::ascii_table(
        &[
            "r",
            "crashed",
            "events 1x+burst",
            "recovered",
            "lost",
            "lost by 1x",
            "recovery rate",
            "sources lost",
            "repl msgs",
            "repl share",
            "repl p95 ms",
            "oracle reads",
            "oracle agreement",
        ],
        &out.rows.iter().map(row_cells).collect::<Vec<_>>(),
    ));
    s.push_str(
        "\n`oracle reads` counts recoveries that leaned on the simulation \
         oracle (the r = 0 crutch);\nwith r >= 1 every promotion comes from a \
         successor replica and the counter stays 0.\n",
    );
    s
}

/// Writes `availability.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &AvailabilityOutput, dir: &str) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|row| {
            let rec = &row.recovery;
            vec![
                row.r.to_string(),
                row.servers_crashed.to_string(),
                rec.single_crashes.to_string(),
                rec.burst_crashes.to_string(),
                rec.groups_recovered.to_string(),
                rec.groups_lost.to_string(),
                rec.groups_deferred.to_string(),
                rec.single_crash_groups_lost.to_string(),
                report::f2(rec.recovery_success_rate()),
                rec.sources_lost.to_string(),
                rec.queries_lost.to_string(),
                row.replication_messages.to_string(),
                report::f2(row.replication_overhead_pct),
                report::f2(row.replication_p95_ms),
                row.oracle_reads.to_string(),
                row.final_servers.to_string(),
                row.sweep.agreed.to_string(),
                row.sweep.checked.to_string(),
            ]
        })
        .collect();
    report::write_csv(
        format!("{dir}/availability.csv"),
        &[
            "replication_factor",
            "servers_crashed",
            "single_crash_events",
            "burst_events",
            "groups_recovered",
            "groups_lost",
            "groups_deferred",
            "single_crash_groups_lost",
            "recovery_success_rate",
            "sources_lost",
            "queries_lost",
            "replication_messages",
            "replication_overhead_pct",
            "replication_p95_ms",
            "oracle_reads_in_recovery",
            "final_servers",
            "oracle_agreed",
            "oracle_checked",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate, at CI smoke scale: with `r ≥ 2` every
    /// single-server crash recovers all lost groups with zero oracle
    /// reads and 512/512 post-run oracle agreement; `r = 0` reproduces
    /// the crutch (oracle reads, no replication traffic); bursts make
    /// the availability gradient visible.
    #[test]
    fn availability_small_scale_end_to_end() {
        let out = run(0.02, None).unwrap();
        assert_eq!(out.rows.len(), 4);

        let r0 = &out.rows[0];
        assert_eq!(r0.replication_messages, 0, "r = 0 charges nothing");
        assert!(r0.oracle_reads > 0, "the r = 0 crutch reads the oracle");
        assert_eq!(r0.recovery.groups_lost, 0, "the oracle never loses state");
        assert!(r0.servers_crashed > 0 && r0.recovery.burst_crashes > 0);

        for row in &out.rows[1..] {
            assert_eq!(
                row.oracle_reads, 0,
                "r = {}: replica recovery must never read the oracle",
                row.r
            );
            assert!(
                row.replication_messages > 0,
                "r = {}: replication must be exercised",
                row.r
            );
            assert!(
                row.recovery.groups_recovered > 0,
                "r = {}: crashes must recover groups",
                row.r
            );
            assert_eq!(
                row.recovery.single_crash_groups_lost, 0,
                "r = {}: single crashes never lose groups",
                row.r
            );
            assert!(
                row.replication_p95_ms > 0.0,
                "WAN replication round trips cost virtual time"
            );
        }
        // Every run — lossy or not — ends with full lookup/oracle
        // agreement: losses re-root groups, they never corrupt routing.
        for row in &out.rows {
            assert_eq!(
                row.sweep.agreed, row.sweep.checked,
                "r = {}: post-run oracle agreement",
                row.r
            );
            assert_eq!(row.recovery.groups_deferred, 0, "no partitions here");
        }
        // The gradient the experiment exists to show: r = 1 cannot
        // survive size-3 bursts, r = 3 can.
        let r1 = &out.rows[1];
        let r3 = &out.rows[3];
        assert!(
            r1.recovery.groups_lost > 0,
            "size-3 bursts must defeat r = 1"
        );
        assert!(
            r3.recovery.groups_lost <= r1.recovery.groups_lost,
            "r = 3 must not lose more than r = 1"
        );

        let rendered = render(&out);
        assert!(rendered.contains("recovery rate"));
        assert!(rendered.contains("oracle reads"));
    }
}
