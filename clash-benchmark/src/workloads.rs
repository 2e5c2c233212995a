//! The four named workloads. Names are fixed: later issues refer to
//! them, and `BENCHMARK.json` lists them with the same one-line reasons.
//!
//! Every workload is a `(ClashConfig, ScenarioSpec, transport)` triple
//! handed to `SimDriver::with_transport` — the program's real entry
//! point. `--seed` feeds `ScenarioSpec.seed` and the transport seed; the
//! program only ever sees the generated inputs.

use clash_core::config::ClashConfig;
use clash_simkernel::time::SimDuration;
use clash_transport::{InstantTransport, LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::{ChurnSpec, FlashCrowd};
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::WorkloadKind;

/// The paper's source density (sources per server, §6.1); capacity is
/// scaled by each workload's density relative to it, as `scale.rs` does,
/// so split/merge dynamics stay in the paper's regime at every size.
const PAPER_DENSITY: f64 = 100.0;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Fig4Static,
    ChurnWanSeq,
    ChurnWanSharded,
    StormLossy,
}

/// The link model a workload charges its messages through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Link {
    Instant,
    Policy(LinkPolicy),
}

/// A fully sized scenario, ready to build drivers from.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub id: WorkloadId,
    pub config: ClashConfig,
    pub spec: ScenarioSpec,
    pub link: Link,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Fig4Static,
        WorkloadId::ChurnWanSeq,
        WorkloadId::ChurnWanSharded,
        WorkloadId::StormLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fig4Static => "fig4_static",
            WorkloadId::ChurnWanSeq => "churn_wan_seq",
            WorkloadId::ChurnWanSharded => "churn_wan_sharded",
            WorkloadId::StormLossy => "storm_lossy",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Fig4Static => {
                "paper Fig. 4 at reduced population on the instant transport, r=0, no churn: \
                 driver/event queue, keyspace and the sequential depth search are the whole wall"
            }
            WorkloadId::ChurnWanSeq => {
                "key churn over WAN links with r=2 write-through replication and membership \
                 churn on the sequential locate path (shards=0)"
            }
            WorkloadId::ChurnWanSharded => {
                "the same scenario and seed as churn_wan_seq with shards=2: the batched \
                 plan/route/merge pipeline; must reproduce churn_wan_seq's fingerprint"
            }
            WorkloadId::StormLossy => {
                "membership storm on a lossy WAN, r=2: chord join/stabilize/handoff, replica \
                 promotion and transport retries dominate; key churn is a minor share"
            }
        }
    }

    /// Sizes the workload. `scale` = 1.0 is the committed size; `--smoke`
    /// passes a small fraction so tests can run the whole harness.
    pub fn scenario(self, seed: u64, scale: f64) -> Scenario {
        let n = |full: usize, floor: usize| ((full as f64 * scale).round() as usize).max(floor);
        match self {
            WorkloadId::Fig4Static => {
                let spec = ScenarioSpec {
                    servers: n(FIG4_SERVERS, 8),
                    sources: n(FIG4_SOURCES, 400),
                    query_clients: 0,
                    seed,
                    ..ScenarioSpec::paper()
                        .with_phase_duration(SimDuration::from_mins(FIG4_PHASE_MINS))
                };
                Scenario {
                    id: self,
                    config: density_config(&spec),
                    spec,
                    link: Link::Instant,
                }
            }
            WorkloadId::ChurnWanSeq | WorkloadId::ChurnWanSharded => {
                let servers = n(CHURN_SERVERS, 32);
                let spec = ScenarioSpec {
                    servers,
                    sources: n(CHURN_SOURCES, 320),
                    query_clients: 0,
                    phases: vec![Phase {
                        workload: WorkloadKind::C,
                        duration: SimDuration::from_mins(30),
                    }],
                    load_check_period: SimDuration::from_secs(60),
                    sample_period: SimDuration::from_mins(5),
                    seed,
                    churn: Some(
                        ChurnSpec::sustained(
                            SimDuration::from_mins(10),
                            SimDuration::from_mins(12),
                            (servers / 2).max(2),
                            servers * 2,
                        )
                        .with_crashes(SimDuration::from_mins(20)),
                    ),
                    ..ScenarioSpec::paper()
                };
                let shards = if self == WorkloadId::ChurnWanSharded {
                    2
                } else {
                    0
                };
                Scenario {
                    id: self,
                    config: density_config(&spec)
                        .with_replication(2)
                        .with_shards(shards),
                    spec,
                    link: Link::Policy(LinkPolicy::wan()),
                }
            }
            WorkloadId::StormLossy => {
                let servers = n(STORM_SERVERS, 48);
                let spec = ScenarioSpec {
                    servers,
                    sources: n(STORM_SOURCES, 96),
                    query_clients: 0,
                    phases: vec![Phase {
                        workload: WorkloadKind::C,
                        duration: SimDuration::from_mins(10),
                    }],
                    load_check_period: SimDuration::from_secs(20),
                    sample_period: SimDuration::from_secs(60),
                    seed,
                    churn: Some(ChurnSpec {
                        flash_crowd: Some(FlashCrowd {
                            at: SimDuration::from_secs(240),
                            joins: n(STORM_FLASH_JOINS, 4),
                            spacing: SimDuration::from_millis(500),
                        }),
                        ..ChurnSpec::sustained(
                            SimDuration::from_secs(10),
                            SimDuration::from_secs(12),
                            (servers / 2).max(2),
                            servers * 2,
                        )
                        .with_crashes(SimDuration::from_secs(15))
                        .with_crash_bursts(SimDuration::from_secs(60), 3)
                    }),
                    ..ScenarioSpec::paper()
                };
                Scenario {
                    id: self,
                    config: density_config(&spec).with_replication(2),
                    spec,
                    link: Link::Policy(LinkPolicy::lossy_wan(0.02)),
                }
            }
        }
    }
}

// Committed sizes. The issue's sizes (500/50 000 × 2 h, 5 000/50 000,
// 8 000/16 000) run 7–8 s per repetition on the reference host; the
// driver's budget (92 runs inside 3 420 s, each a whole process with
// several set-ups and ≥ 3 repetitions) leaves ~2 s per repetition, so
// populations and phase length are cut while density, cadence, churn
// rates and link policies — what decides which layer does the work — are
// kept. See README.md § Sizes.
const FIG4_SERVERS: usize = 500;
const FIG4_SOURCES: usize = 50_000;
const FIG4_PHASE_MINS: u64 = 30;
const CHURN_SERVERS: usize = 2_000;
const CHURN_SOURCES: usize = 20_000;
const STORM_SERVERS: usize = 4_000;
const STORM_SOURCES: usize = 8_000;
const STORM_FLASH_JOINS: usize = 100;

/// `ClashConfig::paper()` with capacity scaled by the scenario's source
/// density (see [`PAPER_DENSITY`]).
fn density_config(spec: &ScenarioSpec) -> ClashConfig {
    let density = spec.sources as f64 / spec.servers as f64;
    ClashConfig {
        capacity: ClashConfig::paper().capacity * density / PAPER_DENSITY,
        ..ClashConfig::paper()
    }
}

impl Scenario {
    /// A fresh transport for one driver (or one replay / micro-bench).
    pub fn transport(&self) -> Box<dyn Transport> {
        match self.link {
            Link::Instant => Box::new(InstantTransport::new()),
            Link::Policy(policy) => Box::new(LinkTransport::new(policy, self.spec.seed)),
        }
    }

    /// The run label. `churn_wan_sharded` shares `churn_wan_seq`'s so the
    /// two fingerprints (which include the label) can be compared whole.
    pub fn label(&self) -> String {
        match self.id {
            WorkloadId::ChurnWanSharded => WorkloadId::ChurnWanSeq.name().to_owned(),
            id => id.name().to_owned(),
        }
    }
}
