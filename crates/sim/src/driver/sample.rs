//! Metric sampling: the rows of the Figure 4 panels, taken at every
//! `Sample` event and at the run's end, and their per-phase summaries.

use clash_core::cluster::{ClashCluster, MessageStats};
use clash_simkernel::metrics::Histogram;
use clash_simkernel::time::SimTime;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

/// One metric sample (a row of the Figure 4 panels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRow {
    /// Sample time in hours (the paper's x-axis).
    pub time_hours: f64,
    /// Workload in force.
    pub workload: WorkloadKind,
    /// Maximum server load, % of capacity.
    pub max_load_pct: f64,
    /// Mean load over *active* servers, % of capacity.
    pub avg_active_load_pct: f64,
    /// Servers with load ≥ 1% of capacity.
    pub active_servers: usize,
    /// Minimum active-group depth.
    pub depth_min: u32,
    /// Mean active-group depth.
    pub depth_avg: f64,
    /// Maximum active-group depth.
    pub depth_max: u32,
    /// Control messages/sec/server in the last window (Figure 5 case A),
    /// charging full DHT routing cost per probe.
    pub ctrl_msgs_per_sec_per_server: f64,
    /// Protocol-only control messages/sec/server (DHT routing treated as
    /// substrate cost — the paper's most plausible accounting).
    pub proto_msgs_per_sec_per_server: f64,
    /// All messages/sec/server including state transfer (case B).
    pub total_msgs_per_sec_per_server: f64,
    /// Servers in the ring at sample time (varies only under churn).
    pub server_count: usize,
    /// Membership handoff messages/sec/server in the last window (0
    /// without churn).
    pub handoff_msgs_per_sec_per_server: f64,
    /// Median end-to-end locate latency in the last window, virtual ms
    /// (0 with the instant transport or when the window had no locates).
    pub locate_p50_ms: f64,
    /// 95th-percentile locate latency in the last window, virtual ms.
    pub locate_p95_ms: f64,
    /// 99th-percentile locate latency in the last window, virtual ms.
    pub locate_p99_ms: f64,
}

/// Per-phase aggregates (the paper reports per-workload numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// The workload.
    pub workload: WorkloadKind,
    /// Peak of the max-load series in this phase, % of capacity.
    pub peak_load_pct: f64,
    /// Mean of the max-load series in this phase.
    pub mean_max_load_pct: f64,
    /// Mean of the avg-active-load series.
    pub mean_avg_load_pct: f64,
    /// Mean active servers.
    pub mean_active_servers: f64,
    /// Mean control messages/sec/server.
    pub mean_ctrl_msgs: f64,
    /// Mean protocol-only control messages/sec/server.
    pub mean_proto_msgs: f64,
    /// Mean total messages/sec/server.
    pub mean_total_msgs: f64,
    /// Maximum group depth observed in the phase.
    pub max_depth: u32,
}

/// The sampled series and the counters its next window diffs against.
pub(super) struct Sampler {
    samples: Vec<SampleRow>,
    last_time: SimTime,
    last_msgs: MessageStats,
    last_servers: usize,
    last_locate: Histogram,
}

impl Sampler {
    /// Baselines the window counters; the populate window must be closed.
    pub(super) fn new(cluster: &ClashCluster) -> Self {
        Sampler {
            samples: Vec::new(),
            last_time: SimTime::ZERO,
            last_msgs: cluster.message_stats(),
            last_servers: cluster.server_count(),
            last_locate: cluster.latency_metrics().locate.clone(),
        }
    }

    /// Appends the row for the window ending at `at`; an empty window (a
    /// run ending on a sample instant) adds nothing.
    pub(super) fn record(&mut self, at: SimTime, spec: &ScenarioSpec, cluster: &ClashCluster) {
        let window = at.saturating_duration_since(self.last_time);
        if window.is_zero() {
            return;
        }
        self.last_time = at;
        let capacity = cluster.config().capacity;
        let active_eps = capacity * 0.01;
        let mut max_load = 0.0f64;
        let mut active = 0usize;
        let mut active_sum = 0.0f64;
        for (_, load) in cluster.server_loads() {
            max_load = max_load.max(load);
            if load >= active_eps {
                active += 1;
                active_sum += load;
            }
        }
        let (depth_min, depth_avg, depth_max) = cluster.depth_stats().unwrap_or((0, 0.0, 0));
        let msgs = cluster.message_stats();
        let secs = window.as_secs_f64().max(1e-9);
        let server_count = cluster.server_count();
        // Under churn the fleet size varies mid-window; normalizing
        // per-server rates by the window-average count keeps them honest
        // across a ramp (exact when membership is fixed).
        let servers = (server_count + self.last_servers) as f64 / 2.0;
        self.last_servers = server_count;
        let last = self.last_msgs;
        let ctrl = (msgs.control_messages() - last.control_messages()) as f64;
        let proto = (msgs.protocol_control_messages() - last.protocol_control_messages()) as f64;
        let total = (msgs.total_messages() - last.total_messages()) as f64;
        let handoff = (msgs.handoff_messages - last.handoff_messages) as f64;
        self.last_msgs = msgs;
        // Windowed locate latency percentiles: quantiles over only the
        // locates completed since the previous sample (one bucket diff
        // for all three). The instant transport's observations are all
        // exactly zero, so skip the histogram clone/diff entirely there.
        let [locate_p50_ms, locate_p95_ms, locate_p99_ms] = if cluster.transport_is_instant() {
            [0.0; 3]
        } else {
            let locate = &cluster.latency_metrics().locate;
            let q = locate.quantiles_since(&self.last_locate, &[0.50, 0.95, 0.99]);
            self.last_locate = locate.clone();
            [0, 1, 2].map(|i| q[i].unwrap_or(0.0))
        };
        self.samples.push(SampleRow {
            time_hours: at.as_hours_f64(),
            workload: spec.workload_at(at - SimTime::ZERO),
            max_load_pct: 100.0 * max_load / capacity,
            avg_active_load_pct: if active > 0 {
                100.0 * active_sum / active as f64 / capacity
            } else {
                0.0
            },
            active_servers: active,
            depth_min,
            depth_avg,
            depth_max,
            ctrl_msgs_per_sec_per_server: ctrl / secs / servers,
            proto_msgs_per_sec_per_server: proto / secs / servers,
            total_msgs_per_sec_per_server: total / secs / servers,
            server_count,
            handoff_msgs_per_sec_per_server: handoff / secs / servers,
            locate_p50_ms,
            locate_p95_ms,
            locate_p99_ms,
        });
    }

    /// The sampled series and its summaries, one per workload in phase
    /// order (phases with repeated workloads fold together).
    pub(super) fn finish(self, phases: &[Phase]) -> (Vec<SampleRow>, Vec<PhaseSummary>) {
        let mut out: Vec<PhaseSummary> = Vec::new();
        for phase in phases {
            let rows = || self.samples.iter().filter(|r| r.workload == phase.workload);
            let n = rows().count();
            if n == 0 || out.iter().any(|p| p.workload == phase.workload) {
                continue;
            }
            let mean = |f: fn(&SampleRow) -> f64| rows().map(f).sum::<f64>() / n as f64;
            out.push(PhaseSummary {
                workload: phase.workload,
                peak_load_pct: rows().map(|r| r.max_load_pct).fold(0.0, f64::max),
                mean_max_load_pct: mean(|r| r.max_load_pct),
                mean_avg_load_pct: mean(|r| r.avg_active_load_pct),
                mean_active_servers: mean(|r| r.active_servers as f64),
                mean_ctrl_msgs: mean(|r| r.ctrl_msgs_per_sec_per_server),
                mean_proto_msgs: mean(|r| r.proto_msgs_per_sec_per_server),
                mean_total_msgs: mean(|r| r.total_msgs_per_sec_per_server),
                max_depth: rows().map(|r| r.depth_max).max().unwrap_or(0),
            });
        }
        (self.samples, out)
    }
}
