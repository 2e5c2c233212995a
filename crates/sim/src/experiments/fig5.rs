//! Figure 5: CLASH communication overhead in messages/sec/server, for
//! workloads A/B/C × `Ld ∈ {50, 1000}` × {no query clients, 50k query
//! clients}.
//!
//! Each bar of the paper's figure becomes one steady-state single-phase
//! run; rates are measured after a warm-up window (the paper's transient).

use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_simkernel::time::SimDuration;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

use crate::catalogue::paper_spec;
use crate::driver::{RunResult, SampleRow};
use crate::experiments::run_variants;
use crate::report;

/// One bar of Figure 5.
#[derive(Debug, Clone)]
pub struct OverheadBar {
    /// The workload.
    pub workload: WorkloadKind,
    /// Mean virtual-stream length in packets.
    pub stream_packets: f64,
    /// Query-client population (0 = the paper's case A).
    pub query_clients: usize,
    /// Steady-state control messages/sec/server (full DHT-hop charging).
    pub ctrl_msgs: f64,
    /// Steady-state protocol-only messages/sec/server.
    pub proto_msgs: f64,
    /// Steady-state total messages/sec/server (incl. state transfer).
    pub total_msgs: f64,
}

/// The regenerated Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5Output {
    /// All 12 bars (3 workloads × 2 stream lengths × 2 query settings).
    pub bars: Vec<OverheadBar>,
    /// Scale factor applied to the paper populations.
    pub scale: f64,
}

fn steady_state_rates(run: &RunResult, warmup_hours: f64) -> (f64, f64, f64) {
    let rows: Vec<_> = run
        .samples
        .iter()
        .filter(|r| r.time_hours >= warmup_hours)
        .collect();
    // Zero (not NaN) when the run never left its warm-up.
    let n = rows.len().max(1) as f64;
    let mean = |rate: fn(&SampleRow) -> f64| rows.iter().map(|r| rate(r)).sum::<f64>() / n;
    (
        mean(|r| r.ctrl_msgs_per_sec_per_server),
        mean(|r| r.proto_msgs_per_sec_per_server),
        mean(|r| r.total_msgs_per_sec_per_server),
    )
}

/// Runs all 12 bars (in parallel) at the paper populations scaled by
/// `scale`. Each bar is a 40-minute steady-state run with a 10-minute
/// warm-up. `seed` overrides the paper scenario's hard-coded seed.
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>) -> Result<Fig5Output, ClashError> {
    let base = paper_spec(scale, seed);
    let query_population = (50_000.0 * scale).round().max(1.0) as usize;
    let mut variants = Vec::new();
    let mut meta = Vec::new();
    for &workload in &WorkloadKind::ALL {
        for &ld in &[50.0, 1000.0] {
            for &queries in &[0usize, query_population] {
                let spec = ScenarioSpec {
                    phases: vec![Phase {
                        workload,
                        duration: SimDuration::from_mins(40),
                    }],
                    query_clients: queries,
                    mean_stream_packets: ld,
                    ..base.clone()
                };
                let label = format!("{workload}/Ld={ld}/q={queries}");
                variants.push((ClashConfig::paper(), spec, label));
                meta.push((workload, ld, queries));
            }
        }
    }
    let runs = run_variants(variants)?;
    let warmup = 10.0 / 60.0; // hours
    let bars = runs
        .iter()
        .zip(meta)
        .map(|(run, (workload, ld, queries))| {
            let (ctrl, proto, total) = steady_state_rates(run, warmup);
            OverheadBar {
                workload,
                stream_packets: ld,
                query_clients: queries,
                ctrl_msgs: ctrl,
                proto_msgs: proto,
                total_msgs: total,
            }
        })
        .collect();
    Ok(Fig5Output { bars, scale })
}

/// Renders the figure as a table grouped like the paper's bar chart.
pub fn render(out: &Fig5Output) -> String {
    let mut rows = Vec::new();
    for bar in &out.bars {
        rows.push(vec![
            if bar.query_clients == 0 {
                "no queries".to_owned()
            } else {
                format!("{} query clients", bar.query_clients)
            },
            bar.workload.to_string(),
            format!("{}", bar.stream_packets),
            report::f2(bar.ctrl_msgs),
            report::f2(bar.proto_msgs),
            report::f2(bar.total_msgs),
        ]);
    }
    format!(
        "Figure 5 — communication overhead (scale {}): messages/sec/server\n{}",
        out.scale,
        report::ascii_table(
            &[
                "case",
                "workload",
                "Ld (pkts)",
                "ctrl msgs/s/srv (incl. DHT hops)",
                "protocol-only msgs/s/srv",
                "total msgs/s/srv",
            ],
            &rows,
        )
    )
}

/// Writes `fig5_overhead.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &Fig5Output, dir: &str) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = out
        .bars
        .iter()
        .map(|b| {
            vec![
                b.workload.to_string(),
                format!("{}", b.stream_packets),
                b.query_clients.to_string(),
                report::f2(b.ctrl_msgs),
                report::f2(b.proto_msgs),
                report::f2(b.total_msgs),
            ]
        })
        .collect();
    report::write_csv(
        format!("{dir}/fig5_overhead.csv"),
        &[
            "workload",
            "stream_packets",
            "query_clients",
            "ctrl_msgs_per_sec_per_server",
            "proto_msgs_per_sec_per_server",
            "total_msgs_per_sec_per_server",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At small scale the qualitative Figure 5 claims hold: shorter
    /// streams (Ld = 50) cost far more than long ones (Ld = 1000), and
    /// query clients add state-transfer overhead on top.
    #[test]
    fn overhead_shape_small_scale() {
        let out = run(0.01, None).unwrap(); // 10 servers, 1000 sources
        assert_eq!(out.bars.len(), 12);
        let get = |wl: WorkloadKind, ld: f64, q: bool| -> &OverheadBar {
            out.bars
                .iter()
                .find(|b| {
                    b.workload == wl && b.stream_packets == ld && ((b.query_clients > 0) == q)
                })
                .expect("bar exists")
        };
        for wl in WorkloadKind::ALL {
            let short = get(wl, 50.0, false);
            let long = get(wl, 1000.0, false);
            assert!(
                short.ctrl_msgs > 3.0 * long.ctrl_msgs,
                "workload {wl}: Ld=50 ({:.2}) should far exceed Ld=1000 ({:.2})",
                short.ctrl_msgs,
                long.ctrl_msgs
            );
        }
        // Query clients add total overhead over the no-query case.
        let with_q = get(WorkloadKind::B, 1000.0, true);
        let without_q = get(WorkloadKind::B, 1000.0, false);
        assert!(with_q.total_msgs > without_q.total_msgs);
        let rendered = render(&out);
        assert!(rendered.contains("messages/sec/server"));
    }
}
