//! Network-fault experiment (beyond the paper's evaluation): latency,
//! loss and partition behavior over the `clash-transport` models.
//!
//! The paper evaluates CLASH purely by message counts; this experiment
//! asks the questions a real deployment would:
//!
//! * **(a) latency** — what do locate/attach operations *cost in time*
//!   under different link models (LAN vs heterogeneous WAN) and ring
//!   sizes? Reported as p50/p95/p99 plus a full CDF
//!   (`netfault_latency_cdf.csv`).
//! * **(b) loss** — on lossy links, retransmissions inflate latency and
//!   physical message counts but the protocol's *decisions* are
//!   untouched: the lossy runs must converge to the very same state and
//!   agree 100% with the oracle (`netfault_loss.csv`).
//! * **(c) partitions** — sever the fleet into two islands mid-run:
//!   cross-island locates fail, splits/merges across the cut defer, and
//!   after healing every lookup re-agrees with the oracle.

use clash_core::cluster::ClashCluster;
use clash_core::error::ClashError;
use clash_obs::{TraceEvent, TraceMode};
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

use crate::catalogue::{fault_config, heat, paper_spec};
use crate::driver::SimDriver;
use crate::experiments::churn::{oracle_sweep, OracleSweep};
use crate::report;

/// One latency-CDF measurement: a link policy at a ring size.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Link-policy label (`lan`, `wan`).
    pub policy: String,
    /// Servers in the ring.
    pub servers: usize,
    /// Locate operations measured.
    pub locates: u64,
    /// Median locate latency, virtual ms.
    pub p50_ms: f64,
    /// 95th percentile, virtual ms.
    pub p95_ms: f64,
    /// 99th percentile, virtual ms.
    pub p99_ms: f64,
    /// Mean locate latency, virtual ms.
    pub mean_ms: f64,
    /// Mean DHT hops per lookup (latency scales with this × ring size).
    pub mean_hops: f64,
    /// The full CDF: `(ms, cumulative fraction)` at percent steps.
    pub cdf: Vec<(f64, f64)>,
}

/// One lossy-link run.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// Per-transmission drop probability.
    pub drop_probability: f64,
    /// Envelopes delivered by the transport.
    pub messages: u64,
    /// Retransmissions forced by loss.
    pub retransmissions: u64,
    /// Retransmissions per delivered message.
    pub retry_overhead: f64,
    /// Whole-run locate p95, virtual ms.
    pub locate_p95_ms: f64,
    /// Splits performed (must not vary with loss).
    pub splits: u64,
    /// Merges performed (must not vary with loss).
    pub merges: u64,
    /// Post-run oracle sweep.
    pub sweep: OracleSweep,
}

/// The partition/heal scenario's outcome.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Servers in the ring.
    pub servers: usize,
    /// Locate attempts made while the fleet was severed.
    pub attempted_during: u64,
    /// Attempts that failed with `NetworkUnreachable`.
    pub unreachable_during: u64,
    /// Attempts that succeeded (intra-island routes).
    pub ok_during: u64,
    /// Transport-level sends refused by the partition (includes reports
    /// and deferred split/merge traffic, not just locates).
    pub transport_unreachable: u64,
    /// Post-heal oracle sweep (the acceptance gate: 100% agreement).
    pub sweep: OracleSweep,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct NetfaultOutput {
    /// Latency CDFs (policies × ring sizes).
    pub latency: Vec<LatencyRow>,
    /// Lossy-link runs (drop probability sweep).
    pub loss: Vec<LossRow>,
    /// The partition/heal scenario.
    pub partition: PartitionReport,
    /// Flight-recorder events from the partition/heal scenario (empty
    /// unless the run was traced) — the deferral/recovery timeline is
    /// this experiment's most opaque phase, so it is the one that gets
    /// the recorder.
    pub partition_trace: Vec<TraceEvent>,
    /// Scale factor applied to the paper populations.
    pub scale: f64,
}

/// Builds a heated cluster over the given transport policy: `servers`
/// ring members, 100 workload-C sources per server (the paper's
/// client/server ratio), two load-check rounds.
fn heated_cluster(
    policy: LinkPolicy,
    servers: usize,
    seed: u64,
) -> Result<ClashCluster, ClashError> {
    let transport = Box::new(LinkTransport::new(policy, seed ^ servers as u64));
    let mut cluster = ClashCluster::with_transport(fault_config(), servers, seed, transport)?;
    // `fault_config()`'s lowered capacity makes the heat split the tree.
    let mut rng = DetRng::new(seed).substream("netfault-sources");
    heat(&mut cluster, servers as u64 * 100, &mut rng, 2)?;
    Ok(cluster)
}

/// (a) Locate/attach latency CDFs across link policies and ring sizes.
fn latency_cdfs(scale: f64, seed: u64) -> Result<Vec<LatencyRow>, ClashError> {
    let base_servers = ((1000.0 * scale) as usize).max(8);
    let mut rows = Vec::new();
    for (label, policy) in [("lan", LinkPolicy::lan()), ("wan", LinkPolicy::wan())] {
        for servers in [base_servers, base_servers * 4] {
            let mut cluster = heated_cluster(policy, servers, seed)?;
            // Measure fresh locates over the whole key space. The heating
            // phase's attach locates sit in the same histogram (and would
            // swamp the sweep at large scales), so snapshot it here and
            // report windowed quantiles over the sweep only.
            let heating = cluster.latency_metrics().locate.clone();
            let mut rng = DetRng::new(seed).substream("netfault-locates");
            let width = cluster.config().key_width;
            for _ in 0..2000 {
                let key = clash_keyspace::key::Key::from_bits_truncated(rng.next_u64(), width);
                cluster.locate(key)?;
            }
            cluster.flush_batch()?;
            let hist = &cluster.latency_metrics().locate;
            // One percent-grid pass: indices 49/94/98 are p50/p95/p99.
            let grid: Vec<f64> = (1..=100).map(|pct| f64::from(pct) / 100.0).collect();
            let quantiles = hist.quantiles_since(&heating, &grid);
            let cdf = grid
                .iter()
                .zip(&quantiles)
                .map(|(&frac, q)| (q.unwrap_or(0.0), frac))
                .collect();
            let (n_now, n_then) = (hist.summary().count(), heating.summary().count());
            let locates = n_now - n_then;
            let mean_ms = (hist.summary().mean() * n_now as f64
                - heating.summary().mean() * n_then as f64)
                / locates as f64;
            rows.push(LatencyRow {
                policy: label.to_owned(),
                servers,
                locates,
                p50_ms: quantiles[49].unwrap_or(0.0),
                p95_ms: quantiles[94].unwrap_or(0.0),
                p99_ms: quantiles[98].unwrap_or(0.0),
                mean_ms,
                mean_hops: cluster.net().stats().mean_hops(),
                cdf,
            });
        }
    }
    Ok(rows)
}

/// (b) Lossy-link sweep through the full scenario driver.
fn loss_sweep(scale: f64, seed: u64) -> Result<Vec<LossRow>, ClashError> {
    let mut rows = Vec::new();
    for p in [0.0, 0.02, 0.10] {
        let spec = ScenarioSpec {
            phases: vec![Phase {
                workload: WorkloadKind::C,
                duration: SimDuration::from_mins(30),
            }],
            seed,
            ..paper_spec(scale, None)
        };
        let policy = if p == 0.0 {
            LinkPolicy::wan()
        } else {
            LinkPolicy::lossy_wan(p)
        };
        let transport = Box::new(LinkTransport::new(policy, seed));
        let label = format!("CLASH/loss={p}");
        let (result, mut cluster) =
            SimDriver::with_transport(fault_config(), spec, label, transport)?
                .run_with_cluster()?;
        cluster.verify_consistency();
        let sweep = oracle_sweep(&mut cluster, 512, seed ^ 0x0010_C47E);
        let stats = cluster.transport_stats();
        rows.push(LossRow {
            drop_probability: p,
            messages: stats.messages,
            retransmissions: stats.retransmissions,
            retry_overhead: stats.retry_overhead(),
            locate_p95_ms: cluster
                .latency_metrics()
                .locate
                .quantile(0.95)
                .unwrap_or(0.0),
            splits: result.splits,
            merges: result.merges,
            sweep,
        });
    }
    Ok(rows)
}

/// (c) Partition/heal: sever the fleet into two islands, measure the
/// failure surface, heal, and verify the oracle re-agrees completely.
fn partition_heal(
    scale: f64,
    seed: u64,
    trace: TraceMode,
) -> Result<(PartitionReport, Vec<TraceEvent>), ClashError> {
    let servers = ((1000.0 * scale) as usize).max(8);
    let mut cluster = heated_cluster(LinkPolicy::lan(), servers, seed ^ 0xFA17)?;
    // Record from the partition onward: the heating phase is routine,
    // the deferral/heal timeline is what the trace is for.
    cluster.set_trace(trace);
    let ids = cluster.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    cluster.partition_network(&[left.to_vec(), right.to_vec()]);

    let mut rng = DetRng::new(seed).substream("netfault-partition");
    let width = cluster.config().key_width;
    let mut unreachable = 0u64;
    let mut ok = 0u64;
    let attempts = 512u64;
    for _ in 0..attempts {
        let key = clash_keyspace::key::Key::from_bits_truncated(rng.next_u64(), width);
        match cluster.locate(key) {
            Ok(_) => ok += 1,
            Err(ClashError::NetworkUnreachable { .. }) => unreachable += 1,
            Err(e) => return Err(e),
        }
    }
    // Load checks during the partition exercise the deferral paths
    // (lost reports, aborted cross-island splits/merges) — they must
    // leave the cluster consistent.
    cluster.run_load_check()?;
    cluster.verify_consistency();
    let transport_unreachable = cluster.transport_stats().unreachable;

    cluster.heal_partition();
    for _ in 0..4 {
        cluster.run_load_check()?;
    }
    cluster.verify_consistency();
    let sweep = oracle_sweep(&mut cluster, 512, seed ^ 0x4EA1);
    let report = PartitionReport {
        servers,
        attempted_during: attempts,
        unreachable_during: unreachable,
        ok_during: ok,
        transport_unreachable,
        sweep,
    };
    Ok((report, cluster.take_trace_events()))
}

/// Runs all three parts at the paper populations scaled by `scale`.
/// `seed` overrides the paper scenario's seed; the flight recorder runs
/// in `trace` mode for the partition/heal scenario only (the other parts
/// are summary statistics, not timelines).
///
/// # Errors
///
/// Propagates cluster and scenario errors.
pub fn run(scale: f64, seed: Option<u64>, trace: TraceMode) -> Result<NetfaultOutput, ClashError> {
    let seed = paper_spec(scale, seed).seed;
    let (partition, partition_trace) = partition_heal(scale, seed, trace)?;
    Ok(NetfaultOutput {
        latency: latency_cdfs(scale, seed)?,
        loss: loss_sweep(scale, seed)?,
        partition,
        partition_trace,
        scale,
    })
}

/// Renders all three parts as ASCII tables.
pub fn render(out: &NetfaultOutput) -> String {
    let mut s = format!(
        "Netfault — latency, loss and partitions (scale {}):\n\n",
        out.scale
    );
    s.push_str("(a) Locate latency by link policy and ring size (virtual ms):\n");
    let rows: Vec<Vec<String>> = out
        .latency
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.servers.to_string(),
                r.locates.to_string(),
                report::f1(r.p50_ms),
                report::f1(r.p95_ms),
                report::f1(r.p99_ms),
                report::f1(r.mean_ms),
                report::f2(r.mean_hops),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &[
            "policy",
            "servers",
            "locates",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean ms",
            "mean hops",
        ],
        &rows,
    ));
    s.push('\n');
    s.push_str("(b) Lossy WAN links — retry overhead vs locate latency:\n");
    let rows: Vec<Vec<String>> = out
        .loss
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.drop_probability * 100.0),
                r.messages.to_string(),
                r.retransmissions.to_string(),
                report::f2(r.retry_overhead),
                report::f1(r.locate_p95_ms),
                r.splits.to_string(),
                r.merges.to_string(),
                format!("{}/{}", r.sweep.agreed, r.sweep.checked),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &[
            "loss",
            "messages",
            "retransmits",
            "retries/msg",
            "locate p95 ms",
            "splits",
            "merges",
            "oracle agreement",
        ],
        &rows,
    ));
    s.push('\n');
    let p = &out.partition;
    s.push_str("(c) Partition/heal (two islands, half the fleet each):\n");
    s.push_str(&report::ascii_table(
        &[
            "servers",
            "locates during",
            "unreachable",
            "ok",
            "transport refusals",
            "post-heal oracle agreement",
        ],
        &[vec![
            p.servers.to_string(),
            p.attempted_during.to_string(),
            p.unreachable_during.to_string(),
            p.ok_during.to_string(),
            p.transport_unreachable.to_string(),
            format!("{}/{}", p.sweep.agreed, p.sweep.checked),
        ]],
    ));
    s
}

/// Writes `netfault_latency_cdf.csv` and `netfault_loss.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &NetfaultOutput, dir: &str) -> std::io::Result<()> {
    let mut rows = Vec::new();
    for r in &out.latency {
        for &(ms, frac) in &r.cdf {
            rows.push(vec![
                r.policy.clone(),
                r.servers.to_string(),
                report::f2(ms),
                report::f2(frac),
            ]);
        }
    }
    report::write_csv(
        format!("{dir}/netfault_latency_cdf.csv"),
        &["policy", "servers", "latency_ms", "cum_fraction"],
        &rows,
    )?;
    let rows: Vec<Vec<String>> = out
        .loss
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.drop_probability),
                r.messages.to_string(),
                r.retransmissions.to_string(),
                report::f2(r.retry_overhead),
                report::f2(r.locate_p95_ms),
                r.splits.to_string(),
                r.merges.to_string(),
                format!("{}", r.sweep.agreed),
                format!("{}", r.sweep.checked),
            ]
        })
        .collect();
    report::write_csv(
        format!("{dir}/netfault_loss.csv"),
        &[
            "drop_probability",
            "messages",
            "retransmissions",
            "retry_overhead",
            "locate_p95_ms",
            "splits",
            "merges",
            "oracle_agreed",
            "oracle_checked",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: end-to-end at CI smoke scale — WAN latency
    /// dominates LAN, loss leaves protocol decisions untouched while
    /// inflating retries, and the partition heals to 100% oracle
    /// agreement.
    #[test]
    fn netfault_small_scale_end_to_end() {
        let out = run(0.02, None, TraceMode::Off).unwrap();

        // (a) latency: WAN ≫ LAN at every ring size; percentiles ordered.
        for r in &out.latency {
            assert!(r.locates > 0);
            assert!(
                r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms,
                "{}/{}: percentiles ordered",
                r.policy,
                r.servers
            );
        }
        let lan = out.latency.iter().find(|r| r.policy == "lan").unwrap();
        let wan = out.latency.iter().find(|r| r.policy == "wan").unwrap();
        assert!(
            wan.p50_ms > 10.0 * lan.p50_ms.max(0.1),
            "WAN ({:.1} ms) must dwarf LAN ({:.1} ms)",
            wan.p50_ms,
            lan.p50_ms
        );
        // More servers → more hops → more latency under the same policy.
        let wan_big = out
            .latency
            .iter()
            .filter(|r| r.policy == "wan")
            .max_by_key(|r| r.servers)
            .unwrap();
        assert!(wan_big.mean_hops > wan.mean_hops || wan_big.servers == wan.servers);

        // (b) loss: identical protocol outcomes, growing retry overhead,
        // full oracle agreement.
        assert_eq!(out.loss.len(), 3);
        let baseline = &out.loss[0];
        assert_eq!(baseline.retransmissions, 0);
        assert!(
            baseline.splits > 0,
            "the loss scenario must exercise splits"
        );
        for r in &out.loss {
            assert_eq!(
                (r.splits, r.merges),
                (baseline.splits, baseline.merges),
                "loss must not change protocol decisions"
            );
            assert_eq!(
                r.sweep.agreed, r.sweep.checked,
                "oracle agreement under loss"
            );
        }
        assert!(
            out.loss[2].retry_overhead > out.loss[1].retry_overhead,
            "10% loss must out-retry 2%"
        );
        assert!(
            out.loss[2].locate_p95_ms > baseline.locate_p95_ms,
            "retries must inflate tail latency"
        );

        // (c) partition: failures during, 100% agreement after healing.
        let p = &out.partition;
        assert!(p.unreachable_during > 0, "the cut must sever some locates");
        assert!(p.ok_during > 0, "intra-island locates keep working");
        assert_eq!(
            p.sweep.agreed, p.sweep.checked,
            "post-heal oracle agreement must be 100%"
        );

        let rendered = render(&out);
        assert!(rendered.contains("Partition/heal"));
        assert!(rendered.contains("p95 ms"));
    }
}
