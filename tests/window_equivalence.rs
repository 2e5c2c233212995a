//! Differential pins for the locate window's closing rules.
//!
//! Client locates are *planned* synchronously (every RNG draw and ledger
//! mutation in op order) into a window; one flush routes the window's
//! probes in plan order and charges them through one `send_keyed`. A
//! window closes at the next barrier, at a fixed probe count, or — while
//! the transport is partitioned — after every probe. The invariant is
//! absolute: **when the window closes is unobservable** — same seed ⇒
//! identical `RunResult`, bit for bit, at any replication factor, with
//! or without churn and crash bursts. The reference twin is the
//! probe-by-probe one: a "partition" whose single island holds every
//! server severs nothing but closes every window at its first probe; the
//! windowed twin closes its windows where they fall.
//!
//! `RunResult::deterministic_fingerprint()` digests every deterministic
//! field (samples, phases, message stats, action and recovery totals);
//! comparing fingerprints makes a divergence print both full states.

use clash_core::cluster::{ClashCluster, Placement};
use clash_core::config::ClashConfig;
use clash_keyspace::key::Key;
use clash_obs::MetricValue;
use clash_sim::catalogue::{link, Scenario, SCENARIOS};
use clash_sim::driver::{RunResult, SimDriver};
use clash_transport::{LinkPolicy, LinkTransport};

/// Puts every server on one island: nothing is severed (servers that
/// join later land on island 0 too), but the transport reports a
/// partition, so every probe is flushed on its own.
fn close_every_window_per_probe(cluster: &mut ClashCluster) {
    let everyone = cluster.server_ids();
    cluster.partition_network(&[everyone]);
}

fn run(scenario: Scenario, replication: usize, reference: bool) -> RunResult {
    let Scenario { config, spec } = scenario;
    let config = config.with_replication(replication);
    let transport = link("wan", spec.seed);
    let mut driver =
        SimDriver::with_transport(config, spec, "CLASH/window-equiv".to_owned(), transport)
            .unwrap();
    if reference {
        close_every_window_per_probe(driver.cluster_mut());
    }
    let (result, cluster) = driver.run_with_cluster().unwrap();
    cluster.verify_consistency();
    result
}

fn assert_equal_runs(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.final_messages, b.final_messages,
        "{label}: MessageStats diverged between windowed and probe-by-probe"
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

/// The headline pin: windows closed by barriers and the window bound
/// must reproduce the probe-by-probe run *bit for bit* — every catalogue
/// scenario (Figure-4, churn, crash-burst, flash-crowd and
/// membership-storm), r = 0 and r = 2, three seeds each.
#[test]
fn windowed_locates_match_probe_by_probe_bit_for_bit() {
    for (name, make) in SCENARIOS {
        for replication in [0usize, 2] {
            for seed in [1u64, 42, 0xBEEF] {
                let mut scenario = make();
                scenario.spec.seed = seed;
                let crowd = scenario.spec.churn.and_then(|c| c.flash_crowd);
                let reference = run(scenario.clone(), replication, true);
                let windowed = run(scenario, replication, false);
                assert_equal_runs(
                    &reference,
                    &windowed,
                    &format!("{name} r={replication} seed={seed}"),
                );
                match name {
                    "burst" => assert!(reference.crashes > 0, "burst scenario must crash servers"),
                    "flash" => assert!(
                        reference.joins >= crowd.map_or(0, |c| c.joins as u64),
                        "flash crowd must join its servers"
                    ),
                    "storm" => assert!(
                        reference.joins + reference.leaves + reference.crashes >= 100,
                        "storm must keep membership changing"
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// The window bound falls where it falls, including between two probes
/// of one locate: that locate is charged by two flushes and must still
/// be observed once, with the latency of all its probes — exactly what
/// the probe-by-probe reference records. (A flush that kept the op's
/// latency to itself would observe only the probes after the bound.)
#[test]
fn a_locate_straddling_the_window_bound_is_one_observation() {
    let mk = |reference: bool| {
        let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), 5));
        let mut c =
            ClashCluster::with_transport(ClashConfig::small_test(), 8, 5, transport).unwrap();
        let width = c.config().key_width;
        let key = |bits: u64| Key::from_bits_truncated(bits, width);
        // Split deep, so a locate hinted at the wrong depth needs
        // several probes.
        for i in 0..150u64 {
            c.attach_source(i, key(i % 32), 2.0).unwrap();
        }
        for _ in 0..4 {
            c.run_load_check().unwrap();
        }
        if reference {
            close_every_window_per_probe(&mut c);
        }
        c
    };
    let (mut reference, mut windowed) = (mk(true), mk(false));
    let mut locate = Twins {
        reference: &mut reference,
        windowed: &mut windowed,
    };
    // Outgrow one window, to read the (private) bound off telemetry.
    let mut planned = 0u64;
    let mut multi_probe = None;
    for i in 0..6000u64 {
        let (bits, hint) = (i.wrapping_mul(37) % 256, (i % 9) as u32);
        let probes = locate.both(bits, hint).probes;
        planned += u64::from(probes);
        if probes >= 3 {
            multi_probe = Some((bits, hint));
        }
    }
    let (hot_bits, wrong_hint) = multi_probe.expect("some mis-hinted locate needs 3 probes");
    let cold_depth = locate.both(0xF0, 0).depth;
    locate.windowed.flush_batch().unwrap();
    let bound = match locate.windowed.telemetry().get("locate.window_probes_max") {
        Some(MetricValue::Gauge(max)) => *max as u64,
        other => panic!("locate.window_probes_max is a gauge, got {other:?}"),
    };
    assert!(planned > bound, "the sweep must outgrow one window");
    // Fill a fresh window to one short of the bound with one-probe
    // locates, then plan the one that needs three.
    for _ in 1..bound {
        assert_eq!(locate.both(0xF0, cold_depth).probes, 1);
    }
    assert!(locate.both(hot_bits, wrong_hint).probes >= 3);
    windowed.flush_batch().unwrap();
    let (a, b) = (
        &reference.latency_metrics().locate,
        &windowed.latency_metrics().locate,
    );
    assert_eq!(a.summary().count(), windowed.message_stats().locates);
    assert_eq!(a.summary().snapshot(), b.summary().snapshot());
    assert_eq!(reference.message_stats(), windowed.message_stats());
    assert_eq!(reference.transport_stats(), windowed.transport_stats());
}

/// The probe-by-probe reference and its windowed twin, located in step.
struct Twins<'a> {
    reference: &'a mut ClashCluster,
    windowed: &'a mut ClashCluster,
}

impl Twins<'_> {
    fn both(&mut self, bits: u64, hint: u32) -> Placement {
        let key = Key::from_bits_truncated(bits, self.windowed.config().key_width);
        let placed = self.windowed.locate_hinted(key, Some(hint)).unwrap();
        assert_eq!(
            placed,
            self.reference.locate_hinted(key, Some(hint)).unwrap()
        );
        placed
    }
}
