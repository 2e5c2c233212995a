//! Differential pins for the batched locate path.
//!
//! `ClashConfig::shards != 0` batches client locates: ops are *planned*
//! synchronously (every RNG draw and ledger mutation in op order), their
//! DHT routing resolves in plan order against a frozen snapshot, and the
//! results are charged through one `send_batch` at the next barrier. The
//! invariant is absolute: **zero protocol-behavior change** — same seed ⇒
//! identical `RunResult`, bit for bit, as the sequential `shards = 0`,
//! at any replication factor, with or without churn and crash bursts.
//!
//! `RunResult::deterministic_fingerprint()` digests every deterministic
//! field (samples, phases, message stats, action and recovery totals);
//! comparing fingerprints makes a divergence print both full states.

use clash_core::config::ClashConfig;
use clash_sim::driver::{RunResult, SimDriver};
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;

/// The Figure-4-style pin scenario: three workload phases, no churn.
fn pin_spec() -> ScenarioSpec {
    ScenarioSpec {
        servers: 16,
        sources: 300,
        query_clients: 20,
        load_check_period: SimDuration::from_secs(60),
        sample_period: SimDuration::from_secs(60),
        ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
    }
}

/// Sustained joins/drains plus single crashes: every membership event
/// is a flush barrier interleaving with open batch windows.
fn churn_spec() -> ScenarioSpec {
    pin_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crashes(SimDuration::from_mins(4)),
    )
}

/// Correlated crash bursts layered on the churn: simultaneous
/// multi-server failures hit the batched path's snapshot invalidation
/// and the replication recovery machinery at once.
fn burst_spec() -> ScenarioSpec {
    pin_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    )
}

/// A flash crowd: a rapid join ramp mid-run. Every joining server
/// immediately participates in split placement and replica sweeps, and
/// every join is a barrier that drops the route snapshot.
fn flash_spec() -> ScenarioSpec {
    pin_spec().with_churn(ChurnSpec::flash_crowd(
        SimDuration::from_mins(3),
        24,
        SimDuration::from_secs(10),
    ))
}

/// A membership storm: a join, drain, crash or 3-server burst every
/// ≈ 2 s of virtual time, thirty-odd between consecutive load checks —
/// the cadence at which the incremental ring repair and the scoped
/// replica re-sync, not the load check, are the cluster's steady work.
fn storm_spec() -> ScenarioSpec {
    pin_spec()
        .with_phase_duration(SimDuration::from_mins(2))
        .with_churn(
            ChurnSpec::sustained(SimDuration::from_secs(4), SimDuration::from_secs(10), 8, 64)
                .with_crashes(SimDuration::from_secs(12))
                .with_crash_bursts(SimDuration::from_secs(45), 3),
        )
}

fn run(spec: ScenarioSpec, replication: usize, shards: u32) -> RunResult {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    }
    .with_replication(replication)
    .with_shards(shards);
    let transport: Box<dyn Transport> = Box::new(LinkTransport::new(LinkPolicy::wan(), spec.seed));
    let (result, cluster) =
        SimDriver::with_transport(config, spec, "CLASH/shard-equiv".to_owned(), transport)
            .unwrap()
            .run_with_cluster()
            .unwrap();
    cluster.verify_consistency();
    result
}

fn assert_equal_runs(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.final_messages, b.final_messages,
        "{label}: MessageStats diverged between batched and sequential"
    );
    assert_eq!(a.samples, b.samples, "{label}: sampled series diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        (a.splits, a.merges, a.joins, a.leaves, a.crashes),
        (b.splits, b.merges, b.joins, b.leaves, b.crashes),
        "{label}: action totals diverged"
    );
    assert_eq!(a.recovery, b.recovery, "{label}: recovery totals diverged");
    assert_eq!(
        a.load_checks, b.load_checks,
        "{label}: check counts diverged"
    );
    assert_eq!(
        a.deterministic_fingerprint(),
        b.deterministic_fingerprint(),
        "{label}: deterministic fingerprints diverged"
    );
}

/// The headline pin: the batched plan/route/charge path must reproduce
/// the sequential run *bit for bit* — Figure-4, churn, crash-burst and
/// flash-crowd and membership-storm scenarios, r = 0 and r = 2, three
/// seeds each.
#[test]
fn single_shard_batching_matches_sequential_bit_for_bit() {
    type SpecFn = fn() -> ScenarioSpec;
    let scenarios: [(&str, SpecFn); 5] = [
        ("fig4", pin_spec),
        ("churn", churn_spec),
        ("burst", burst_spec),
        ("flash", flash_spec),
        ("storm", storm_spec),
    ];
    for (name, make_spec) in scenarios {
        for replication in [0usize, 2] {
            for seed in [1u64, 42, 0xBEEF] {
                let mut spec = make_spec();
                spec.seed = seed;
                let sequential = run(spec.clone(), replication, 0);
                let batched = run(spec, replication, 1);
                assert_equal_runs(
                    &sequential,
                    &batched,
                    &format!("{name} r={replication} seed={seed}"),
                );
                match name {
                    "burst" => assert!(sequential.crashes > 0, "burst scenario must crash servers"),
                    "flash" => assert!(sequential.joins >= 24, "flash crowd must join its servers"),
                    "storm" => assert!(
                        sequential.joins + sequential.leaves + sequential.crashes >= 100,
                        "storm must keep membership changing"
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// `shards` is a switch, not a size: every non-zero value — including
/// one no allocation could honour — runs the same batched path and
/// matches the sequential run.
#[test]
fn any_nonzero_shards_value_is_the_same_batched_path() {
    let sequential = run(churn_spec(), 2, 0);
    for shards in [1u32, 7, u32::MAX] {
        let batched = run(churn_spec(), 2, shards);
        assert_equal_runs(&sequential, &batched, &format!("shards={shards}"));
    }
}
