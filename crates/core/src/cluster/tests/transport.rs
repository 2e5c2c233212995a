// Message accounting, transports and network partitions.

/// A profiler that counts, per phase, spans begun and not yet ended.
#[derive(Default)]
struct OpenPhases(PhaseProfile);

impl PhaseProfiler for OpenPhases {
    fn begin(&mut self, phase: CheckPhase) {
        self.0.ms[phase.index()] += 1.0;
    }
    fn end(&mut self, phase: CheckPhase) {
        self.0.ms[phase.index()] -= 1.0;
    }
    fn profile(&self) -> PhaseProfile {
        self.0
    }
}

// Pinned by `figure5_protocol_accounting_pinned`: the seed-1
// 8-server hot-workload run performs 2 splits, both placed remotely
// (2 ACCEPT_KEYGROUPs, 0 self-mapped retries), and its corrected
// protocol accounting is 2·168 probes + 2 accepts + 68 redirects.
const PIN_SPLITS: u64 = 2;
const PIN_ACCEPTS: u64 = 2;
const PIN_RETRIES: u64 = 0;
const PIN_PROTOCOL: u64 = 406;

#[test]
fn local_right_child_merge_conserves_load() {
    // Single server: every split self-maps, so try_merge takes the
    // local-right-child path (merge_group with GroupLoad::zero(), the
    // real load read from the local entry). Total load must be
    // conserved across those merges.
    let mut c = cluster(1);
    for i in 0..40 {
        c.attach_source(i, key(i % 64), 3.0).unwrap();
    }
    c.run_load_check().unwrap();
    assert!(c.message_stats().splits > 0);
    // Cool *partially*: the survivors' rates must survive the merges.
    for i in 0..30 {
        c.detach_source(i).unwrap();
    }
    c.flush_batch().unwrap();
    let total_before: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
    assert!(total_before > 0.0);
    let merges_before = c.message_stats().merges;
    let merge_msgs_before = c.message_stats().merge_messages;
    for _ in 0..12 {
        c.run_load_check().unwrap();
    }
    assert!(
        c.message_stats().merges > merges_before,
        "cooling must trigger local merges"
    );
    assert_eq!(
        c.message_stats().merge_messages,
        merge_msgs_before,
        "both children are local: merges must be message-free"
    );
    let total_after: f64 = c.server_loads().iter().map(|&(_, l)| l).sum();
    assert!(
        (total_after - total_before).abs() < 1e-9,
        "local merge lost load: {total_before} -> {total_after}"
    );
    c.verify_consistency();
}

#[test]
fn split_accounting_distinguishes_remote_and_self_mapped() {
    // Single server: every placement self-maps, so no ACCEPT_KEYGROUP
    // is ever sent; the corrected accounting must not charge any.
    let mut c = cluster(1);
    for i in 2..60 {
        c.attach_source(i, key(i % 64), 3.0).unwrap();
    }
    c.run_load_check().unwrap();
    let s = c.message_stats();
    assert!(s.splits > 0);
    assert_eq!(s.accept_keygroups, 0, "self-mapped splits send nothing");
    assert!(s.self_mapped_retries > 0, "retries must be counted apart");
    assert_eq!(
        s.protocol_control_messages(),
        2 * s.probes + s.merge_messages + s.report_messages + s.redirect_messages,
        "Figure-5 protocol accounting must not charge self-mapped splits"
    );

    // Multi-server: every split is remote or retried; the counters
    // partition the splits (terminal self-maps are the remainder).
    let mut c = cluster(8);
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    c.run_load_check().unwrap();
    let s = c.message_stats();
    assert!(s.accept_keygroups > 0);
    assert!(
        s.accept_keygroups + s.self_mapped_retries <= s.splits,
        "every split is a remote placement, a retry, or a terminal self-map"
    );
}

#[test]
fn figure5_protocol_accounting_pinned() {
    // Regression pin for the corrected Figure-5 accounting: the seed-1
    // 8-server cluster under the standard hot workload. These counts
    // changed when self-mapped retries stopped being charged as
    // ACCEPT_KEYGROUPs; any further drift is a protocol change and
    // must be justified.
    let mut c = cluster(8);
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    c.run_load_check().unwrap();
    let s = c.message_stats();
    assert_eq!(
        (s.splits, s.accept_keygroups, s.self_mapped_retries),
        (PIN_SPLITS, PIN_ACCEPTS, PIN_RETRIES),
        "split accounting drifted: {s:?}"
    );
    assert_eq!(
        s.protocol_control_messages(),
        PIN_PROTOCOL,
        "protocol_control_messages drifted: {s:?}"
    );
}

#[test]
fn transport_swap_preserves_protocol_behavior() {
    // The same seed and workload through the instant transport and a
    // lossy WAN transport must produce identical protocol decisions
    // and MessageStats: the transport charges time, it never perturbs
    // the protocol's own RNG draws.
    use clash_transport::{LinkPolicy, LinkTransport};
    let run = |transport: Box<dyn clash_transport::Transport>| {
        let mut c =
            ClashCluster::with_transport(ClashConfig::small_test(), 8, 1, transport).unwrap();
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        c.run_load_check().unwrap();
        for i in 0..50 {
            c.detach_source(i).unwrap();
        }
        for _ in 0..6 {
            c.run_load_check().unwrap();
        }
        c
    };
    let instant = run(Box::new(clash_transport::InstantTransport::new()));
    let lossy = run(Box::new(LinkTransport::new(LinkPolicy::lossy_wan(0.1), 77)));
    assert_eq!(instant.message_stats(), lossy.message_stats());
    assert_eq!(
        instant.global_cover().len(),
        lossy.global_cover().len(),
        "identical split/merge decisions"
    );
    // But the transports tell very different time stories.
    assert_eq!(instant.transport_stats().total_latency_us, 0);
    assert!(lossy.transport_stats().total_latency_us > 0);
    assert!(lossy.transport_stats().retransmissions > 0);
    assert_eq!(instant.latency_metrics().locate.summary().max(), Some(0.0));
    assert!(lossy.latency_metrics().locate.summary().mean() > 0.0);
    lossy.verify_consistency();
}

#[test]
fn partition_blocks_cross_island_operations_and_heals() {
    use clash_transport::{LinkPolicy, LinkTransport};
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        8,
        1,
        Box::new(LinkTransport::new(LinkPolicy::lan(), 5)),
    )
    .unwrap();
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    c.run_load_check().unwrap();
    let ids = c.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    c.partition_network(&[left.to_vec(), right.to_vec()]);

    // During the partition, some locates fail with NetworkUnreachable
    // (whenever the route crosses islands) — and nothing panics or
    // corrupts state, including load checks. Every probe closes its own
    // window, through the flush's error arm when it hits the cut: the
    // span and the phase that flush opened must close all the same, and
    // it must send nothing past the cut.
    c.set_trace(TraceMode::Full);
    c.set_profiler(Box::new(OpenPhases::default()));
    let mut failed = 0;
    let mut ok = 0;
    for bits in 0..256u64 {
        match c.locate(key(bits)) {
            Ok(_) => ok += 1,
            Err(ClashError::NetworkUnreachable { .. }) => failed += 1,
            Err(e) => panic!("unexpected error under partition: {e}"),
        }
    }
    assert!(failed > 0, "an island split must sever some routes");
    assert!(ok > 0, "intra-island routes keep working");
    let events = c.take_trace_events();
    let count = |pred: fn(&TraceEventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let begun = count(|k| matches!(k, TraceEventKind::FlushBegin { probes: 1, .. }));
    assert!(begun >= 256, "one flush per probe, got {begun}");
    assert_eq!(
        begun,
        count(|k| matches!(k, TraceEventKind::FlushEnd { .. })),
        "a failed flush left its trace span open"
    );
    assert_eq!(
        c.phase_profile().ms,
        [0.0; 10],
        "a failed flush left a profiler phase open"
    );
    assert_eq!(
        c.transport_stats().unreachable,
        failed,
        "a probe stops at the cut: one refused send per failed locate"
    );
    c.run_load_check().unwrap();
    c.verify_consistency();
    assert!(c.transport_stats().unreachable > 0);

    // After healing, every lookup agrees with the oracle again.
    c.heal_partition();
    c.run_load_check().unwrap();
    for bits in 0..256u64 {
        let p = c.locate(key(bits)).unwrap();
        let (oracle_server, oracle_group) = c.oracle_locate(key(bits)).unwrap();
        assert_eq!(p.server, oracle_server);
        assert_eq!(p.group, oracle_group);
    }
    c.flush_batch().unwrap();
    c.verify_consistency();
    assert!(c.global_cover().is_partition());
}

#[test]
fn committed_splits_under_partition_are_always_reported() {
    use clash_transport::{LinkPolicy, LinkTransport};
    // Fully sever a small fleet and overload its servers: self-mapped
    // retry splits commit locally even though every remote placement
    // is unreachable. Each committed split must surface in the
    // LoadCheckReport — a partition may defer work, never hide it.
    for seed in 0..8u64 {
        let mut c = ClashCluster::with_transport(
            ClashConfig::small_test(),
            2,
            seed,
            Box::new(LinkTransport::new(LinkPolicy::lan(), seed)),
        )
        .unwrap();
        for i in 0..100 {
            c.attach_source(i, key(i % 64), 2.0).unwrap();
        }
        let islands: Vec<Vec<ServerId>> = c.server_ids().into_iter().map(|id| vec![id]).collect();
        c.partition_network(&islands);
        let before = c.message_stats().splits;
        let report = c.run_load_check().unwrap();
        let committed = c.message_stats().splits - before;
        if committed > 0 {
            assert!(
                !report.splits.is_empty(),
                "seed {seed}: {committed} splits committed but none reported"
            );
        }
        c.verify_consistency();
        assert!(c.global_cover().is_partition());
    }
    // Four servers, one cut off: the hot server commits a self-mapped
    // split, then routes its next right child through a reachable hop
    // before the cut. The latency of that hop still reaches the split's
    // observation. Constants recorded with each message's draws keyed by
    // its link and chain ordinal.
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        4,
        19,
        Box::new(LinkTransport::new(LinkPolicy::lan(), 19)),
    )
    .unwrap();
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    let ids = c.server_ids();
    c.partition_network(&[vec![], vec![ids[2]]]);
    let report = c.run_load_check().unwrap();
    assert_eq!(report.splits.len(), 1);
    assert_eq!(report.splits[0].right_child_server, report.splits[0].server);
    assert_eq!(c.message_stats().self_mapped_retries, 1);
    let partial = 3.383;
    assert_eq!(
        c.latency_metrics().split.summary().snapshot(),
        SummarySnapshot {
            count: 1,
            mean: partial,
            stddev: 0.0,
            min: partial,
            max: partial,
        }
    );
    assert_eq!(
        c.transport_stats(),
        TransportStats {
            messages: 446,
            retransmissions: 0,
            unreachable: 2,
            total_latency_us: 479_644,
            per_class: [298, 148, 0, 0, 0, 0, 0, 0],
        }
    );
}

#[test]
fn each_report_observes_its_own_delivery() {
    use clash_transport::{LinkPolicy, LinkTransport};
    // A check's reports leave in one dispatch and are read back in
    // order. A report read back with another link's delivery keeps the
    // latency multiset but reorders the observations, which moves the
    // summary's last bits. Constants recorded with each message's draws
    // keyed by its link and chain ordinal.
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        4,
        0,
        Box::new(LinkTransport::new(LinkPolicy::wan(), 0)),
    )
    .unwrap();
    for i in 0..1000 {
        c.attach_source(i, key(i % 256), 2.0).unwrap();
    }
    for _ in 0..6 {
        c.run_load_check().unwrap();
    }
    assert_eq!(c.message_stats().report_messages, 618);
    assert_eq!(
        c.latency_metrics().report.summary().snapshot(),
        SummarySnapshot {
            count: 618,
            mean: 97.397_881_877_022_6,
            stddev: 19.976_925_341_526_75,
            min: 61.406,
            max: 210.251_999_999_999_98,
        }
    );
}

#[test]
fn partition_defers_merges_until_heal() {
    use clash_transport::{LinkPolicy, LinkTransport};
    // Heat, partition, cool: merges whose RELEASE_KEYGROUP would
    // cross the partition are deferred, then complete after healing.
    let mut c = ClashCluster::with_transport(
        ClashConfig::small_test(),
        8,
        1,
        Box::new(LinkTransport::new(LinkPolicy::lan(), 9)),
    )
    .unwrap();
    for i in 0..100 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    c.run_load_check().unwrap();
    let depth_hot = c.depth_stats().unwrap().2;
    assert!(depth_hot > 2);
    for i in 0..100 {
        c.detach_source(i).unwrap();
    }
    let ids = c.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    c.partition_network(&[left.to_vec(), right.to_vec()]);
    for _ in 0..12 {
        c.run_load_check().unwrap();
    }
    c.verify_consistency();
    c.heal_partition();
    for _ in 0..12 {
        c.run_load_check().unwrap();
    }
    c.verify_consistency();
    assert_eq!(
        c.depth_stats().unwrap().2,
        2,
        "after healing, consolidation must complete back to the roots"
    );
}
