//! The scenario catalogue: every scenario that more than one test or
//! experiment runs, built in one place.
//!
//! * [`SCENARIOS`] — the five small CLASH runs the golden table, the
//!   locate-window pin and the tracing pin enumerate: the Figure-4 pin
//!   ([`fig4`]) and four membership schedules over it, all at
//!   capacity 60;
//! * [`dht8`] — the fixed-depth `DHT(8)` baseline over the fig4 spec;
//! * [`LINKS`] / [`link`] — the four transports those runs go over;
//! * [`paper_spec`] and [`figure4_variants`] — the paper-scale base
//!   every experiment starts from;
//! * [`fault_config`] — the capacity the fault experiments run at;
//! * `heat` — the workload-C load the cluster-level experiments split
//!   under before they measure.
//!
//! A run picks its replication factor itself
//! (`scenario.config.with_replication(r)`).

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::{InstantTransport, LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;
use clash_workload::skew::{Workload, WorkloadKind};

/// What a run plays: the protocol configuration and the scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The protocol configuration (replication factor 0).
    pub config: ClashConfig,
    /// The scenario the driver plays.
    pub spec: ScenarioSpec,
}

/// A named scenario: its name and the function that builds it.
pub type Entry = (&'static str, fn() -> Scenario);

/// The five CLASH scenarios, by name, in the golden table's order.
pub const SCENARIOS: [Entry; 5] = [
    ("fig4", fig4),
    ("churn", churn),
    ("burst", burst),
    ("flash", flash),
    ("storm", storm),
];

/// Capacity scaled so 300 sources over ≈ 12 active servers bite: they
/// offer 300–600 pkt/s in total, so capacity 60 splits.
fn capacity_60(config: ClashConfig) -> ClashConfig {
    ClashConfig {
        capacity: 60.0,
        ..config
    }
}

/// The Figure-4 pin: 16 servers, 300 sources, 20 query clients, three
/// 5-minute workload phases (A, B, C), 60-second load checks and
/// samples, no churn.
pub fn fig4() -> Scenario {
    Scenario {
        config: capacity_60(ClashConfig::paper()),
        spec: ScenarioSpec {
            servers: 16,
            sources: 300,
            query_clients: 20,
            load_check_period: SimDuration::from_secs(60),
            sample_period: SimDuration::from_secs(60),
            ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
        },
    }
}

/// The fig4 run with `churn` layered over its spec.
fn fig4_with(churn: ChurnSpec) -> Scenario {
    let Scenario { config, spec } = fig4();
    Scenario {
        config,
        spec: spec.with_churn(churn),
    }
}

/// Sustained joins and drains plus single crashes, 8–32 servers: every
/// membership event is a barrier between open locate windows.
pub fn churn() -> Scenario {
    fig4_with(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 32)
            .with_crashes(SimDuration::from_mins(4)),
    )
}

/// The churn with correlated 3-server crash bursts instead of single
/// crashes: simultaneous failures drive replica promotion and recovery
/// at once.
pub fn burst() -> Scenario {
    fig4_with(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 32)
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    )
}

/// A flash crowd: 16 joins 10 s apart from minute 3, 16 → 32 servers.
/// Every joining server at once takes part in split placement and
/// replica sweeps.
pub fn flash() -> Scenario {
    fig4_with(ChurnSpec::flash_crowd(
        SimDuration::from_mins(3),
        16,
        SimDuration::from_secs(10),
    ))
}

/// A membership storm over 2-minute phases: a join, drain, crash or
/// 3-server burst every ≈ 2 s of virtual time, thirty-odd between
/// consecutive load checks, so ring repair and replica re-sync, not
/// the load check, are the cluster's steady work.
pub fn storm() -> Scenario {
    let mut storm = fig4_with(
        ChurnSpec::sustained(SimDuration::from_secs(4), SimDuration::from_secs(10), 8, 32)
            .with_crashes(SimDuration::from_secs(12))
            .with_crash_bursts(SimDuration::from_secs(45), 3),
    );
    storm.spec = storm.spec.with_phase_duration(SimDuration::from_mins(2));
    storm
}

/// The fixed-depth `DHT(8)` baseline over the fig4 spec.
pub fn dht8() -> Scenario {
    Scenario {
        config: capacity_60(ClashConfig::dht_baseline(8)),
        ..fig4()
    }
}

/// The four links the catalogue's scenarios run over, by name.
pub const LINKS: [&str; 4] = ["instant", "lan", "wan", "lossy"];

/// The transport of link `name`: the instant transport, or a
/// [`LinkTransport`] over LAN, WAN or 5 %-lossy WAN links whose draws
/// are seeded by `seed`.
///
/// # Panics
///
/// Panics if `name` is not one of [`LINKS`].
pub fn link(name: &str, seed: u64) -> Box<dyn Transport> {
    let policy = match name {
        "instant" => return Box::new(InstantTransport::new()),
        "lan" => LinkPolicy::lan(),
        "wan" => LinkPolicy::wan(),
        "lossy" => LinkPolicy::lossy_wan(0.05),
        other => panic!("no link {other}"),
    };
    Box::new(LinkTransport::new(policy, seed))
}

/// The paper scenario scaled by `scale`; `seed` overrides its root seed
/// (`None` keeps the hard-coded one, reproducing historical outputs).
pub fn paper_spec(scale: f64, seed: Option<u64>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper().scaled(scale);
    spec.seed = seed.unwrap_or(spec.seed);
    spec
}

/// The four Figure 4 protocol variants: CLASH and the fixed-depth
/// baselines DHT(6), DHT(12), DHT(24).
pub fn figure4_variants() -> Vec<(ClashConfig, String)> {
    vec![
        (ClashConfig::paper(), "CLASH".to_owned()),
        (ClashConfig::dht_baseline(6), "DHT(6)".to_owned()),
        (ClashConfig::dht_baseline(12), "DHT(12)".to_owned()),
        (ClashConfig::dht_baseline(24), "DHT(24)".to_owned()),
    ]
}

/// The capacity the fault experiments (`netfault`, `availability`) run
/// at. The paper capacity (2500) never overloads at smoke populations;
/// 1000 keeps ≈ 20 % average utilization with a workload-C hot group
/// several times over threshold, so the fault paths run against a
/// *splitting* tree at every scale.
pub fn fault_config() -> ClashConfig {
    ClashConfig {
        capacity: 1000.0,
        ..ClashConfig::paper()
    }
}

/// Heats `cluster`: attaches sources `0..sources` at workload-C keys
/// drawn from `rng`, 2 pkt/s each (≈ the paper's workload-C rate), then
/// runs `checks` load checks. Workload C piles most of that load onto
/// one initial-depth group, so a cluster whose capacity the population
/// overloads splits before the caller measures it.
pub(crate) fn heat(
    cluster: &mut ClashCluster,
    sources: u64,
    rng: &mut DetRng,
    checks: usize,
) -> Result<(), ClashError> {
    let workload = Workload::paper(WorkloadKind::C);
    let width = cluster.config().key_width;
    for i in 0..sources {
        cluster.attach_source(i, workload.sample_key(width, rng), 2.0)?;
    }
    for _ in 0..checks {
        cluster.run_load_check()?;
    }
    Ok(())
}
