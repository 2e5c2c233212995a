//! Differential pins for the flight recorder (PR: observability).
//!
//! The contract the tracing tentpole lives or dies by: **recording is
//! observation, not behaviour**. Attaching any trace sink — the bounded
//! ring or the unbounded full-export buffer — must leave the protocol's
//! decisions bit-for-bit identical to the untraced run, across
//! replication factors, and must draw *zero* RNG of its own.
//!
//! Each pin runs catalogue scenarios three ways (tracing off, ring,
//! full) and compares `RunResult::deterministic_fingerprint()` strings
//! plus the cluster's exact `DetRng` draw count. The capture checks
//! run the churn scenario: splits under skew, sustained membership
//! churn, and single crashes driving the recovery paths.

use clash_core::cluster::ClashCluster;
use clash_obs::{TraceEventKind, TraceMode};
use clash_sim::catalogue::{self, link, Scenario, SCENARIOS};
use clash_sim::driver::{RunResult, SimDriver};

fn run(scenario: Scenario, replication: usize, trace: TraceMode) -> (RunResult, ClashCluster) {
    let Scenario { config, spec } = scenario;
    let config = config.with_replication(replication);
    let transport = link("wan", spec.seed);
    let mut driver =
        SimDriver::with_transport(config, spec, "CLASH/trace-equiv".to_owned(), transport).unwrap();
    driver.cluster_mut().set_trace_sink(trace.make_sink());
    let (result, cluster) = driver.run_with_cluster().unwrap();
    cluster.verify_consistency();
    (result, cluster)
}

/// Off vs ring vs full: identical fingerprints and identical RNG draw
/// counts on every catalogue scenario, with and without replication.
#[test]
fn tracing_mode_never_changes_the_run() {
    for (name, make) in SCENARIOS {
        for replication in [0usize, 2] {
            let (off, off_cluster) = run(make(), replication, TraceMode::Off);
            let (ring, ring_cluster) = run(make(), replication, TraceMode::Ring(256));
            let (full, full_cluster) = run(make(), replication, TraceMode::Full);
            let label = format!("{name} r={replication}");
            assert_eq!(
                off.deterministic_fingerprint(),
                ring.deterministic_fingerprint(),
                "{label}: ring tracing changed the run"
            );
            assert_eq!(
                off.deterministic_fingerprint(),
                full.deterministic_fingerprint(),
                "{label}: full tracing changed the run"
            );
            // Tracing draws no RNG: the protocol stream's draw count is
            // the strictest possible "no hidden behaviour" witness.
            assert_eq!(
                off_cluster.rng_draws(),
                ring_cluster.rng_draws(),
                "{label}: ring tracing drew RNG"
            );
            assert_eq!(
                off_cluster.rng_draws(),
                full_cluster.rng_draws(),
                "{label}: full tracing drew RNG"
            );
        }
    }
}

/// The full sink actually captures the run: every traceable moment class
/// this scenario exercises shows up, stamped with non-decreasing virtual
/// time and strictly increasing sequence numbers.
#[test]
fn full_trace_captures_the_expected_event_classes() {
    let (result, mut cluster) = run(catalogue::churn(), 2, TraceMode::Full);
    let events = cluster.take_trace_events();
    assert!(
        events.len() > 1000,
        "a 15-minute churn run must record thousands of events, got {}",
        events.len()
    );
    let mut last_seq = None;
    let mut last_at = None;
    for ev in &events {
        if let Some(prev) = last_seq {
            assert!(ev.seq > prev, "sequence numbers must strictly increase");
        }
        if let Some(prev) = last_at {
            assert!(ev.at >= prev, "virtual timestamps must be monotone");
        }
        last_seq = Some(ev.seq);
        last_at = Some(ev.at);
    }
    let has = |pred: &dyn Fn(&TraceEventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(
        has(&|k| matches!(k, TraceEventKind::LocateProbe { .. })),
        "locate probes must be traced"
    );
    assert!(
        has(&|k| matches!(k, TraceEventKind::Split { .. })),
        "splits must be traced (run reported {})",
        result.splits
    );
    assert!(
        has(&|k| matches!(k, TraceEventKind::FlushBegin { .. }))
            && has(&|k| matches!(k, TraceEventKind::FlushEnd { .. })),
        "flush windows must be traced"
    );
    assert!(
        has(&|k| matches!(k, TraceEventKind::LoadCheckBegin { .. }))
            && has(&|k| matches!(k, TraceEventKind::LoadCheckEnd { .. })),
        "load checks must be traced"
    );
    assert!(
        has(&|k| matches!(k, TraceEventKind::ServerJoined { .. }))
            && has(&|k| matches!(k, TraceEventKind::ServerLeft { .. }))
            && has(&|k| matches!(k, TraceEventKind::ServerCrashed { .. })),
        "membership events must be traced"
    );
    assert!(
        has(&|k| matches!(
            k,
            TraceEventKind::ReplicaPromoted { .. }
                | TraceEventKind::RecoveryDeferred { .. }
                | TraceEventKind::RecoveryLost { .. }
        )),
        "crashes under r=2 must leave a recovery timeline"
    );
    // The whole capture exports as valid Chrome trace JSON.
    let json = clash_obs::to_chrome_json(&events);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"locate_probe\""));
}

/// The ring keeps only the newest events and reports what it shed; the
/// tail it retains matches the end of the full capture.
#[test]
fn ring_sink_retains_the_newest_tail() {
    let (_, mut full_cluster) = run(catalogue::churn(), 0, TraceMode::Full);
    let full = full_cluster.take_trace_events();
    // Both sides of the panic dump's 64-event window: a ring smaller
    // than the window (the case the capacity accessor exists for) and
    // one larger than it.
    for cap in [16usize, 128] {
        let (_, mut ring_cluster) = run(catalogue::churn(), 0, TraceMode::Ring(cap));
        let kept = ring_cluster.take_trace_events();
        assert_eq!(kept.len(), cap.min(full.len()), "cap={cap}");
        // Conservation: every emitted event is either kept or counted
        // as shed — nothing vanishes unaccounted.
        assert_eq!(
            ring_cluster.trace_dropped() + kept.len() as u64,
            full.len() as u64,
            "ring must account every shed event (cap={cap})"
        );
        let tail = &full[full.len() - kept.len()..];
        assert_eq!(kept, tail, "ring tail must equal the full capture's end");
    }
}

/// The unified telemetry registry agrees with the legacy per-struct
/// counters it replaces, for both the cluster and driver namespaces.
#[test]
fn telemetry_registry_matches_legacy_counters() {
    let (result, cluster) = run(catalogue::churn(), 2, TraceMode::Off);
    let t = result.telemetry(&cluster);
    assert_eq!(
        t.counter_value("cluster.messages.total"),
        Some(result.final_messages.total_messages()),
        "message totals must agree"
    );
    assert_eq!(
        t.counter_value("driver.load_checks"),
        Some(result.load_checks)
    );
    assert_eq!(t.counter_value("driver.splits"), Some(result.splits));
    assert_eq!(
        t.counter_value("cluster.rng.draws"),
        Some(cluster.rng_draws())
    );
    // The render is non-empty, deterministic-ordered, and covers both
    // namespaces.
    let rendered = t.render();
    assert!(rendered.contains("cluster.messages."));
    assert!(rendered.contains("driver.check_phase.splits_ms"));
    let keys: Vec<&str> = t.iter().map(|(k, _)| k).collect();
    let sorted = {
        let mut s = keys.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(keys, sorted, "telemetry iterates in deterministic order");
}
