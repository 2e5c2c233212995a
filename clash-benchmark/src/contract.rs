//! The declared metric set — the single source both the harness's output
//! and the repo-root `BENCHMARK.json` are generated from, so the two can
//! never list different names (`--print-contract` emits the file; a test
//! compares it with the committed one).
//!
//! What each per-layer metric is expected to move, and on which
//! workload, is the interaction table in `README.md`.

use clash_obs::CheckPhase;

use crate::json::Json;
use crate::workloads::WorkloadId;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. Host-time metrics are medians over
/// repetitions and carry run-to-run noise; virtual-time metrics and
/// counts are functions of the seed alone and must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median the metric may
    /// worsen by before a change is refused.
    pub bound: Option<f64>,
}

fn decl(name: &str, unit: &'static str, better: Better, clock: Clock) -> MetricDecl {
    MetricDecl {
        name: name.to_owned(),
        unit,
        better,
        clock,
        bound: None,
    }
}

/// Bound on the host-time end-to-end metrics. The driver varies the seed
/// from run to run, so a bound has to cover input variance (`storm_lossy`
/// draws a different Poisson membership schedule per seed: ~11 % spread)
/// as well as host noise (5 % on a quiet host, 20 % seen on a busy one);
/// README.md § Noise has the measured spreads this was chosen against.
const HOST_BOUND: f64 = 0.25;

/// The end-to-end metrics, in report order. Every workload reports all.
pub fn end_to_end() -> Vec<MetricDecl> {
    use Better::{Higher, Lower};
    use Clock::{Host, Virtual};
    let e = |name, unit, better, clock, bound| MetricDecl {
        bound: Some(bound),
        ..decl(name, unit, better, clock)
    };
    vec![
        e("setup_s", "s", Lower, Host, 0.25),
        e("run_s", "s", Lower, Host, HOST_BOUND),
        e("events_per_s", "1/s", Higher, Host, HOST_BOUND),
        e("cpu_s_per_mevent", "s", Lower, Host, HOST_BOUND),
        e("peak_rss_mb", "MiB", Lower, Host, 0.15),
        e("sim_msgs_per_event", "count", Lower, Virtual, 0.05),
        e("sim_active_server_ratio", "ratio", Lower, Virtual, 0.15),
    ]
}

/// The per-layer metrics, in report order (layer = name prefix = crate).
pub fn per_layer() -> Vec<MetricDecl> {
    use Better::{Higher, Lower};
    use Clock::{Host, Virtual};
    let mut m = vec![
        // driver / simulated outcome
        decl("sim.residual_ratio", "ratio", Lower, Host),
        decl("sim.replay_loop_share", "ratio", Lower, Host),
        decl("sim.events", "count", Lower, Virtual),
        decl("sim.membership_events", "count", Lower, Virtual),
        decl("sim.load_checks", "count", Lower, Virtual),
        decl("sim.locate_p50_ms", "ms", Lower, Virtual),
        decl("sim.locate_p95_ms", "ms", Lower, Virtual),
        decl("sim.locate_samples", "count", Higher, Virtual),
        decl("sim.max_load_ratio", "ratio", Lower, Virtual),
        decl("sim.recovery_success_ratio", "ratio", Higher, Virtual),
        decl("sim.sources_lost", "count", Lower, Virtual),
        decl("simkernel.event_queue_ns_per_event", "ns", Lower, Host),
        decl("workload.sample_key_ns", "ns", Lower, Host),
        // keyspace
        decl("keyspace.hash_prefix_ns", "ns", Lower, Host),
        decl("keyspace.cover_locate_ns", "ns", Lower, Host),
        decl("keyspace.groups", "count", Lower, Virtual),
        decl("keyspace.depth_mean", "count", Lower, Virtual),
        decl("keyspace.depth_max", "count", Lower, Virtual),
        // chord
        decl("chord.route_ns_per_lookup", "ns", Lower, Host),
        decl("chord.hops_per_lookup", "count", Lower, Virtual),
        decl("chord.snapshot_build_ms", "ms", Lower, Host),
        decl("chord.snapshot_route_ns_per_lookup", "ns", Lower, Host),
        decl("chord.join_ms", "ms", Lower, Host),
        decl("chord.lookups", "count", Lower, Virtual),
        // transport
        decl("transport.send_ns_per_msg", "ns", Lower, Host),
        decl("transport.send_batch_ns_per_msg", "ns", Lower, Host),
        decl("transport.messages", "count", Lower, Virtual),
        decl("transport.retries_per_msg", "ratio", Lower, Virtual),
        decl("transport.mean_latency_ms", "ms", Lower, Virtual),
        // core, from the traced replay
        decl("core.attach_source_us_p50", "us", Lower, Host),
        decl("core.move_us_p50", "us", Lower, Host),
        decl("core.move_us_p99", "us", Lower, Host),
        decl("core.locate_us_per_move", "us", Lower, Host),
        decl("core.flush_batch_ms_total", "ms", Lower, Host),
        decl("core.load_check_ms_p50", "ms", Lower, Host),
        decl("core.load_check_ms_max", "ms", Lower, Host),
        decl("core.join_ms_p50", "ms", Lower, Host),
        decl("core.leave_ms_p50", "ms", Lower, Host),
        decl("core.fail_ms_p50", "ms", Lower, Host),
        decl("core.share.attach", "ratio", Lower, Host),
        decl("core.share.move", "ratio", Lower, Host),
        decl("core.share.flush", "ratio", Lower, Host),
        decl("core.share.load_check", "ratio", Lower, Host),
        decl("core.share.membership", "ratio", Lower, Host),
        // core, read from the untraced run's public results
        decl("core.check_mean_ms", "ms", Lower, Host),
    ];
    for phase in CheckPhase::ALL {
        m.push(decl(
            &format!("core.phase.{}_ms", phase.name()),
            "ms",
            Lower,
            Host,
        ));
    }
    m.extend([
        decl("core.splits", "count", Lower, Virtual),
        decl("core.merges", "count", Lower, Virtual),
        decl("core.self_mapped_retries", "count", Lower, Virtual),
        // replication
        decl("replication.msgs_per_event", "count", Lower, Virtual),
        decl("replication.groups_recovered", "count", Higher, Virtual),
        decl("replication.groups_lost", "count", Lower, Virtual),
        decl("replication.oracle_reads", "count", Lower, Virtual),
        // the measuring itself
        decl("obs.profiler_overhead_ratio", "ratio", Lower, Host),
        decl("trace.overhead_ratio", "ratio", Lower, Host),
    ]);
    m
}

/// The repo-root `BENCHMARK.json`, exactly as committed.
pub fn benchmark_json() -> Json {
    let metric = |d: &MetricDecl| {
        let mut fields = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(bound) = d.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "clash-benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("clash-benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WorkloadId::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str, max: usize) -> bool {
        name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_driver_schema() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(name_ok(&d.name, 64), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate name {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        for d in &e2e {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
        for w in WorkloadId::ALL {
            assert!(name_ok(w.name(), 64) && seen.insert(w.name().to_owned()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }

    /// The committed file is this module's output: the harness and
    /// `BENCHMARK.json` list exactly the same names.
    #[test]
    fn committed_benchmark_json_is_generated_from_here() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json().pretty(),
            "regenerate with `clash-benchmark --print-contract > BENCHMARK.json`"
        );
    }
}
