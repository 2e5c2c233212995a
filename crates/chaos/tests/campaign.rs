//! Campaign-level acceptance tests: a full seeded campaign is green on
//! the stock protocol, and a seeded bug is caught, shrunk, and
//! replayable from its repro file.

use clash_chaos::{
    parse_repro, render_repro, run_campaign, run_schedule, ChaosOptions, ChaosSchedule,
    CONVERGENCE_CHECKS,
};
use clash_workload::FaultKind;

/// The headline robustness claim: a 64-schedule seeded campaign at the
/// default scale completes with every invariant green.
#[test]
fn default_scale_campaign_of_64_schedules_is_all_green() {
    let options = ChaosOptions::default();
    let report = run_campaign(&options, 0xC1A5_4CA0, 64);
    assert_eq!(report.schedules_run, 64);
    assert!(
        report.failures.is_empty(),
        "stock protocol must hold every invariant; first failure: {:?}",
        report.failures.first().map(|f| (&f.violation, &f.minimal))
    );
    assert!(
        report.faults_injected > 100,
        "campaign actually injects faults"
    );
    assert!(
        report.invariant_checks > 1_000,
        "invariants are checked throughout, got {}",
        report.invariant_checks
    );
    // Every fault class fires somewhere in 64 schedules.
    for (i, label) in FaultKind::CLASS_LABELS.iter().enumerate() {
        assert!(
            report.faults_by_class[i] > 0,
            "class {label} never injected across the campaign"
        );
    }
    assert!(
        report.worst_convergence_checks >= 1
            && report.worst_convergence_checks <= CONVERGENCE_CHECKS,
        "convergence stayed within the bound, worst {}",
        report.worst_convergence_checks
    ); // The campaign runs the default config, i.e. the locate-window
       // code, and telemetry says which closing rule ran: the engine keeps
       // client traffic off a partitioned network, so every window was
       // closed by a barrier — far fewer flushes than probes, and never
       // more than one per barrier the engine and the cluster raise.
    let counted = |name: &str| report.telemetry.counter_value(name).expect(name);
    let flushes = counted("locate.flushes");
    assert!(flushes > 0, "the campaign located nothing");
    assert!(
        counted("messages.probes") > 4 * flushes,
        "{} probes in {flushes} windows",
        counted("messages.probes")
    );
}

/// Campaigns are a pure function of their inputs: same seed, same
/// report (the property delta-debugging and repro replay stand on).
#[test]
fn campaigns_are_deterministic() {
    let options = ChaosOptions::default();
    let a = run_campaign(&options, 99, 4);
    let b = run_campaign(&options, 99, 4);
    assert_eq!(a.faults_by_class, b.faults_by_class);
    assert_eq!(a.invariant_checks, b.invariant_checks);
    assert_eq!(a.worst_convergence_checks, b.worst_convergence_checks);
    assert_eq!(a.failures.len(), b.failures.len());
}

/// The end-to-end bug-hunting story: a seeded replication bug (merges
/// skip replica re-seeding) is caught by the campaign, delta-debugged
/// to a minimal schedule of at most 5 events, and the emitted repro
/// file replays to the same violation.
#[test]
fn seeded_merge_reseed_bug_is_caught_shrunk_and_replayable() {
    let options = ChaosOptions {
        inject_merge_reseed_bug: true,
        ..ChaosOptions::default()
    };
    let campaign_seed = 0xB06u64;
    let report = run_campaign(&options, campaign_seed, 16);
    assert!(
        !report.failures.is_empty(),
        "the seeded bug must be caught within 16 schedules"
    );
    let failure = &report.failures[0];
    assert!(
        failure.minimal.events.len() <= 5,
        "minimal repro must be at most 5 events, got {}: {:?}",
        failure.minimal.events.len(),
        failure.minimal.events
    );
    assert!(
        failure.minimal.events.len() < failure.schedule.events.len(),
        "shrinking removed something"
    );
    // The minimal schedule fails on its own...
    let replay = run_schedule(&options, &failure.minimal);
    let violation = replay.violation.expect("minimal schedule still fails");
    assert_eq!(violation, failure.violation);
    // ...and names the replica-placement/convergence surface the bug
    // lives on, not some unrelated invariant.
    assert!(
        violation.invariant == "convergence" || violation.invariant == "replica_placement",
        "unexpected invariant: {violation:?}"
    );
    // The repro file round-trips and replays to the same violation.
    let text = render_repro(&options, campaign_seed, failure);
    let repro = parse_repro(&text).expect("repro parses");
    let replayed = repro.replay();
    assert_eq!(replayed.violation, Some(failure.violation.clone()));
    // And the stock protocol passes the exact same schedule — the
    // violation is the bug, not the harness.
    let clean_options = ChaosOptions {
        inject_merge_reseed_bug: false,
        ..options
    };
    let clean = run_schedule(
        &clean_options,
        &ChaosSchedule {
            seed: failure.minimal.seed,
            events: failure.minimal.events.clone(),
        },
    );
    assert_eq!(
        clean.violation, None,
        "stock protocol passes the repro schedule"
    );
}
