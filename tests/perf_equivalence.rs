//! Differential pins for the dirty-tracked load-check optimization
//! (PR: hot-path overhaul).
//!
//! The optimization replaced the per-period O(cluster) sweeps (report
//! delivery, split/merge candidate scans, replica re-ensure) with
//! incrementally-maintained candidate sets. The invariant is absolute:
//! **zero protocol-behavior change** — same seed ⇒ identical `RunResult`
//! and `MessageStats`, bit for bit, at any replication factor, with or
//! without churn.
//!
//! `ClashCluster::set_full_scan_load_checks(true)` re-enables the
//! historical semantics (every check reclassifies every server and
//! full-syncs every replica group from scratch); these tests run every
//! scenario both ways and require equality on everything observable.

use clash_core::config::ClashConfig;
use clash_sim::driver::{RunResult, SimDriver};
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;

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

fn churn_spec() -> ScenarioSpec {
    pin_spec().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
            .with_crashes(SimDuration::from_mins(4))
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    )
}

/// A membership storm: a join, drain, crash or 3-server burst every
/// ≈ 2 s of virtual time, thirty-odd between consecutive load checks.
/// Each of them re-syncs replicas for the ring neighbourhood it changed
/// on the optimized path and sweeps the whole cluster in the reference.
fn storm_spec() -> ScenarioSpec {
    pin_spec()
        .with_phase_duration(SimDuration::from_mins(2))
        .with_churn(
            ChurnSpec::sustained(SimDuration::from_secs(4), SimDuration::from_secs(10), 8, 64)
                .with_crashes(SimDuration::from_secs(12))
                .with_crash_bursts(SimDuration::from_secs(45), 3),
        )
}

fn run(spec: ScenarioSpec, replication: usize, full_scan: bool) -> RunResult {
    let config = ClashConfig {
        capacity: 60.0,
        ..ClashConfig::paper()
    }
    .with_replication(replication);
    let transport: Box<dyn Transport> = Box::new(LinkTransport::new(LinkPolicy::wan(), spec.seed));
    let mut driver =
        SimDriver::with_transport(config, spec, "CLASH/equiv".to_owned(), transport).unwrap();
    driver.cluster_mut().set_full_scan_load_checks(full_scan);
    let (result, cluster) = driver.run_with_cluster().unwrap();
    cluster.verify_consistency();
    result
}

fn assert_equal_runs(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.final_messages, b.final_messages,
        "{label}: MessageStats diverged between dirty-tracked and full-scan checks"
    );
    assert_eq!(a.samples, b.samples, "{label}: sampled series diverged");
    assert_eq!(a.events, b.events, "{label}: event counts diverged");
    assert_eq!(
        (a.splits, a.merges, a.joins, a.leaves, a.crashes),
        (b.splits, b.merges, b.joins, b.leaves, b.crashes),
        "{label}: action totals diverged"
    );
    assert_eq!(a.recovery, b.recovery, "{label}: recovery totals diverged");
}

#[test]
fn dirty_tracking_matches_full_scan_on_pin_scenario() {
    for replication in [0usize, 2] {
        let dirty = run(pin_spec(), replication, false);
        let full = run(pin_spec(), replication, true);
        assert_equal_runs(&dirty, &full, &format!("pin r={replication}"));
    }
}

#[test]
fn dirty_tracking_matches_full_scan_under_churn_and_bursts() {
    // Joins, drains, single crashes and correlated bursts interleave
    // with the load checks — every membership path feeds the candidate
    // indices and the replica worklist, and all of them must agree with
    // the from-scratch sweep.
    for replication in [0usize, 2] {
        let dirty = run(churn_spec(), replication, false);
        let full = run(churn_spec(), replication, true);
        assert_equal_runs(&dirty, &full, &format!("churn r={replication}"));
        assert!(dirty.crashes > 0, "churn scenario must crash servers");
        assert!(dirty.joins > 0, "churn scenario must join servers");
    }
}

#[test]
fn dirty_tracking_matches_full_scan_across_seeds() {
    // A small seed sweep over the churn scenario at r = 2 — different
    // membership interleavings exercise different mark-dirty paths.
    for seed in [1u64, 42, 0xBEEF] {
        let mut spec = churn_spec();
        spec.seed = seed;
        let dirty = run(spec.clone(), 2, false);
        let full = run(spec, 2, true);
        assert_equal_runs(&dirty, &full, &format!("seed {seed}"));
    }
}

#[test]
fn scoped_membership_resync_matches_full_scan_in_a_storm() {
    for replication in [0usize, 2] {
        for seed in [1u64, 42, 0xBEEF] {
            let mut spec = storm_spec();
            spec.seed = seed;
            let scoped = run(spec.clone(), replication, false);
            let full = run(spec, replication, true);
            assert_equal_runs(
                &scoped,
                &full,
                &format!("storm r={replication} seed={seed}"),
            );
            assert!(
                scoped.joins + scoped.leaves + scoped.crashes >= 100,
                "storm must keep membership changing"
            );
        }
    }
}
