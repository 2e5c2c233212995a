//! Accounting and observation: what a protocol step charges and what it
//! leaves behind for a reader — never anything a step decides on.
//! [`Wire`] is the one way a message leaves a server (counted in
//! [`MessageStats`], charged virtual time through the transport, its
//! operation's latency observed); [`Obs`] is the flight recorder and the
//! per-phase profiler.

use clash_chord::id::ChordId;
use clash_obs::{
    CheckPhase, PhaseProfile, PhaseProfiler, Telemetry, TraceEvent, TraceEventKind, TraceSink,
};
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{Delivery, LinkPolicy, MessageClass, Transport, TransportStats};

use super::data_plane::GroupLedger;
use super::ClashCluster;
use crate::latency::{ms, LatencyMetrics};
use crate::ServerId;

/// Message and action counters for the whole cluster (the Figure 5
/// accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Depth-search probes issued.
    pub probes: u64,
    /// Messages spent on probes: DHT routing hops plus one response each.
    pub probe_messages: u64,
    /// Completed locate operations.
    pub locates: u64,
    /// Messages spent placing right children (routing hops +
    /// `ACCEPT_KEYGROUP`).
    pub split_messages: u64,
    /// Messages spent on consolidation (`RELEASE_KEYGROUP` + response).
    pub merge_messages: u64,
    /// Remote leaf-to-parent load reports.
    pub report_messages: u64,
    /// State-transfer messages (one per migrated query object).
    pub state_transfer_messages: u64,
    /// Client redirect notifications after splits/merges (one per
    /// affected source).
    pub redirect_messages: u64,
    /// Splits performed.
    pub splits: u64,
    /// Merges performed.
    pub merges: u64,
    /// `ACCEPT_KEYGROUP` placements that landed on a *remote* server —
    /// one per completed split whose right child left the splitting
    /// server. Self-mapped splits send no `ACCEPT_KEYGROUP`.
    pub accept_keygroups: u64,
    /// Self-mapped split retries: the right child mapped back to the
    /// splitting server, which kept it and split again (§5's "another
    /// randomized attempt"). No `ACCEPT_KEYGROUP` is sent for these.
    pub self_mapped_retries: u64,
    /// Messages spent on live membership: join lookups and finger
    /// seeding, join/leave announcements, handoff `ACCEPT_KEYGROUP`s
    /// carrying full tree state, and pointer re-point notifications.
    pub handoff_messages: u64,
    /// Servers that joined the running cluster.
    pub joins: u64,
    /// Servers that left gracefully (drained).
    pub leaves: u64,
    /// Successor-list replication traffic: `REPLICATE_KEYGROUP` seeds and
    /// invalidations, `ACK_REPLICA` responses, and the per-group state
    /// fetch a crash recovery pays to promote a replica. Zero when the
    /// replication factor is 0.
    pub replication_messages: u64,
}

impl MessageStats {
    /// All control-plane messages (everything except state transfer) —
    /// Figure 5's case (A). This is the *conservative* accounting: each
    /// depth probe and `ACCEPT_KEYGROUP` placement is charged its full
    /// O(log S) DHT routing cost.
    pub fn control_messages(&self) -> u64 {
        self.probe_messages
            + self.split_messages
            + self.merge_messages
            + self.report_messages
            + self.redirect_messages
            + self.handoff_messages
            + self.replication_messages
    }

    /// Control messages counting only CLASH-protocol exchanges (request +
    /// response per probe, one `ACCEPT_KEYGROUP` per *remote* placement,
    /// reports, releases, redirects, membership handoffs) — treating DHT
    /// routing as substrate cost the way the paper's Figure 5 most
    /// plausibly does. Self-mapped split retries send no
    /// `ACCEPT_KEYGROUP` at all, so they are deliberately *not* charged
    /// here (they used to be, via `splits`, overcounting Figure 5).
    pub fn protocol_control_messages(&self) -> u64 {
        2 * self.probes
            + self.accept_keygroups
            + self.merge_messages
            + self.report_messages
            + self.redirect_messages
            + self.handoff_messages
            + self.replication_messages
    }

    /// All messages including state transfer — Figure 5's case (B).
    pub fn total_messages(&self) -> u64 {
        self.control_messages() + self.state_transfer_messages
    }
}

/// The message path. Every protocol message is charged virtual time (and
/// may be refused by a partition) through `transport`, counted in `msgs`,
/// and the end-to-end latency of its operation observed into `latency`.
pub(super) struct Wire {
    /// The default [`clash_transport::InstantTransport`] reproduces
    /// direct-call semantics exactly.
    pub(super) transport: Box<dyn Transport>,
    pub(super) msgs: MessageStats,
    /// End-to-end per-operation latency recorders.
    pub(super) latency: LatencyMetrics,
    /// The `(from, to)` hops of the route being charged: the ring writes
    /// each lookup's path here, so no probe or placement allocates one.
    pub(super) hops: Vec<(ChordId, ChordId)>,
}

impl Wire {
    /// Sends one protocol message through the transport, accumulating the
    /// delivered latency into `total`. Returns false (leaving `total`
    /// untouched) when the destination is unreachable.
    pub(super) fn send(
        &mut self,
        from: ChordId,
        to: ChordId,
        class: MessageClass,
        total: &mut SimDuration,
    ) -> bool {
        match self.transport.send(from.value(), to.value(), class) {
            Delivery::Delivered { latency, .. } => {
                *total += latency;
                true
            }
            Delivery::Unreachable { .. } => false,
        }
    }

    /// Sends a `Probe` along every routing hop in `self.hops`, in order.
    /// Returns the first severed hop, if any (latency accumulated up to
    /// it stands).
    pub(super) fn send_hops(&mut self, total: &mut SimDuration) -> Option<(ChordId, ChordId)> {
        (0..self.hops.len()).find_map(|i| {
            let (from, to) = self.hops[i];
            (!self.send(from, to, MessageClass::Probe, total)).then_some((from, to))
        })
    }

    /// One charged `REPLICATE_KEYGROUP` + `ACK_REPLICA` exchange (a
    /// replica seed, or a recovery's state fetch). Returns false, with
    /// nothing counted, when either leg is undeliverable.
    pub(super) fn replica_round_trip(&mut self, from: ChordId, to: ChordId) -> bool {
        let mut lat = SimDuration::ZERO;
        let delivered = self.send(from, to, MessageClass::ReplicateKeygroup, &mut lat)
            && self.send(to, from, MessageClass::AckReplica, &mut lat);
        if delivered {
            self.msgs.replication_messages += 2;
            self.latency.replication.observe(ms(lat));
        }
        delivered
    }

    /// Counts a group's state changing servers: one state-transfer
    /// message per query object, one client redirect per source.
    pub(super) fn count_group_move(&mut self, ledger: &GroupLedger) {
        self.msgs.state_transfer_messages += ledger.queries.len() as u64;
        self.msgs.redirect_messages += ledger.sources.len() as u64;
    }
}

/// The flight recorder and profiler. Strictly passive: events are
/// pre-stamped with the driver-advanced virtual clock, recording never
/// draws RNG or reads a wall clock (the one clock reader lives in
/// `clash-obs`, behind the `PhaseProfiler` trait), and nothing here
/// feeds back into protocol decisions — `tests/trace_equivalence.rs`
/// pins bit-for-bit identical fingerprints with tracing on and off.
#[derive(Default)]
pub(super) struct Obs {
    /// Where emitted `TraceEvent`s go, once an enabled sink is installed.
    trace: Option<Box<dyn TraceSink>>,
    /// Monotone event sequence number (orders same-instant events).
    trace_seq: u64,
    /// Load checks run since construction (the trace ordinal).
    pub(super) load_checks_run: u64,
    /// Virtual "now" for event stamps, advanced by the driver before it
    /// dispatches each simulation event; zero in cluster-only tests.
    sim_now: SimTime,
    /// Per-phase load-check/flush profiler, once one is installed.
    profiler: Option<Box<dyn PhaseProfiler>>,
}

impl Obs {
    pub(super) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Records the event `kind` builds, stamped with the virtual clock.
    /// With tracing off the event is never even constructed.
    pub(super) fn trace(&mut self, kind: impl FnOnce() -> TraceEventKind) {
        if let Some(sink) = &mut self.trace {
            sink.record(TraceEvent {
                at: self.sim_now,
                seq: self.trace_seq,
                kind: kind(),
            });
            self.trace_seq += 1;
        }
    }

    pub(super) fn phase_begin(&mut self, phase: CheckPhase) {
        if let Some(profiler) = &mut self.profiler {
            profiler.begin(phase);
        }
    }

    pub(super) fn phase_end(&mut self, phase: CheckPhase) {
        if let Some(profiler) = &mut self.profiler {
            profiler.end(phase);
        }
    }

    /// On a consistency failure: dump the flight recorder's tail to
    /// stderr so the panic message comes with the decisions that led
    /// there. No-op when tracing is off or nothing is buffered.
    pub(super) fn dump_trace_tail(&self) {
        // Ask for at most what the sink can actually hold: a ring
        // smaller than the default window used to make the header's
        // "last N" claim overstate the available history.
        const TAIL: usize = 64;
        let Some(trace) = &self.trace else {
            return;
        };
        let want = trace.capacity().map_or(TAIL, |cap| cap.min(TAIL));
        let tail = trace.tail(want);
        if tail.is_empty() {
            return;
        }
        eprintln!(
            "--- flight recorder: last {} event(s) before failure ({} shed) ---",
            tail.len(),
            trace.dropped()
        );
        for ev in &tail {
            eprintln!(
                "  [{:>12} us seq {:>8}] {:?}",
                ev.at.as_micros(),
                ev.seq,
                ev.kind
            );
        }
        eprintln!("--- end flight recorder tail ---");
    }
}

impl ClashCluster {
    /// Message statistics since the last reset.
    pub fn message_stats(&self) -> MessageStats {
        self.debug_assert_window_closed();
        self.wire.msgs
    }

    /// Resets message statistics (per-measurement-window accounting).
    /// Closes the locate window first: probes planned before the reset
    /// belong to the measurement it ends.
    pub fn reset_message_stats(&mut self) {
        self.flush_batch()
            .expect("a window that outlives its op never spans a partition");
        self.wire.msgs = MessageStats::default();
        self.net.reset_stats();
        self.wire.transport.reset_stats();
    }

    /// The transport's delivery counters (retransmissions, unreachable
    /// sends, mean latency).
    pub fn transport_stats(&self) -> TransportStats {
        self.debug_assert_window_closed();
        self.wire.transport.stats()
    }

    /// The per-operation latency histograms (virtual milliseconds).
    pub fn latency_metrics(&self) -> &LatencyMetrics {
        self.debug_assert_window_closed();
        &self.wire.latency
    }

    /// True when the cluster runs over the zero-latency instant
    /// transport — every latency observation is identically zero, so
    /// callers can skip percentile bookkeeping entirely.
    pub fn transport_is_instant(&self) -> bool {
        self.wire.transport.is_instant()
    }

    /// True while the transport is severed into islands.
    pub fn network_is_partitioned(&self) -> bool {
        self.wire.transport.is_partitioned()
    }

    /// Installs a flight-recorder sink; whatever the previous sink still
    /// buffered is discarded with it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.trace = sink.enabled().then_some(sink);
    }

    /// Installs a per-phase profiler (the driver wires a wall-clock one;
    /// the cluster itself only names phases and never reads a clock).
    pub fn set_profiler(&mut self, profiler: Box<dyn PhaseProfiler>) {
        self.obs.profiler = Some(profiler);
    }

    /// The profiler's accumulated per-phase milliseconds.
    pub fn phase_profile(&self) -> PhaseProfile {
        self.obs
            .profiler
            .as_ref()
            .map_or_else(PhaseProfile::default, |p| p.profile())
    }

    /// Advances the recorder's virtual clock. The driver calls this
    /// before dispatching each simulation event so every trace stamp is
    /// the sim time of the decision, not a wall-clock reading.
    pub fn set_now(&mut self, now: SimTime) {
        self.obs.sim_now = now;
    }

    /// Drains everything the flight recorder buffered, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.obs
            .trace
            .as_mut()
            .map_or_else(Vec::new, |sink| sink.drain())
    }

    /// Events the bounded ring sink had to shed (0 for other sinks).
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace.as_ref().map_or(0, |sink| sink.dropped())
    }

    /// Total protocol RNG draws since construction. Trace collection
    /// must never move this — `tests/trace_equivalence.rs` pins it.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draw_count()
    }

    /// Exports the cluster's counters and latency distributions into a
    /// unified [`Telemetry`] registry (the driver layers its own
    /// counters on top under a `driver.` prefix).
    pub fn telemetry(&self) -> Telemetry {
        self.debug_assert_window_closed();
        let mut t = Telemetry::new();
        let m = &self.wire.msgs;
        t.counter("messages.probes", m.probes);
        t.counter("messages.probe_messages", m.probe_messages);
        t.counter("messages.locates", m.locates);
        t.counter("messages.split_messages", m.split_messages);
        t.counter("messages.merge_messages", m.merge_messages);
        t.counter("messages.report_messages", m.report_messages);
        t.counter(
            "messages.state_transfer_messages",
            m.state_transfer_messages,
        );
        t.counter("messages.redirect_messages", m.redirect_messages);
        t.counter("messages.splits", m.splits);
        t.counter("messages.merges", m.merges);
        t.counter("messages.accept_keygroups", m.accept_keygroups);
        t.counter("messages.self_mapped_retries", m.self_mapped_retries);
        t.counter("messages.handoff_messages", m.handoff_messages);
        t.counter("messages.joins", m.joins);
        t.counter("messages.leaves", m.leaves);
        t.counter("messages.replication_messages", m.replication_messages);
        t.counter("messages.control_total", m.control_messages());
        t.counter("messages.total", m.total_messages());
        t.counter("locate.flushes", self.batch.flush_seq);
        let widest = self.batch.window_probes_max as f64;
        t.gauge("locate.window_probes_max", widest);
        t.gauge("servers.active", self.server_count() as f64);
        t.gauge("recovery.pending", self.recovery.pending.len() as f64);
        t.counter("recovery.retries", self.recovery.retries);
        t.counter("recovery.retries_blocked", self.recovery.retries_blocked);
        t.counter(
            "recovery.deferred_max_wait_checks",
            self.recovery.deferred_max_wait,
        );
        t.counter("recovery.oracle_reads", self.recovery_oracle_reads());
        t.counter("trace.dropped", self.trace_dropped());
        t.counter("rng.draws", self.rng.draw_count());
        let l = &self.wire.latency;
        t.summary("latency.locate_ms", l.locate.summary().snapshot());
        t.summary("latency.report_ms", l.report.summary().snapshot());
        t.summary("latency.split_ms", l.split.summary().snapshot());
        t.summary("latency.merge_ms", l.merge.summary().snapshot());
        t.summary("latency.handoff_ms", l.handoff.summary().snapshot());
        t.summary("latency.replication_ms", l.replication.summary().snapshot());
        t
    }

    /// Severs the network into islands of servers: protocol messages
    /// between islands fail with `ClashError::NetworkUnreachable` (or
    /// are silently lost, for soft-state reports) until
    /// [`ClashCluster::heal_partition`]. No-op on the instant transport.
    pub fn partition_network(&mut self, islands: &[Vec<ServerId>]) {
        // Close the locate window before the cut: ops planned on the
        // connected network are charged at its prices, and a window left
        // open is one the transport was connected for.
        self.flush_batch()
            .expect("flush before partition cannot hit a severed link");
        let raw: Vec<Vec<u64>> = islands
            .iter()
            .map(|island| island.iter().map(|id| id.value()).collect())
            .collect();
        self.wire.transport.partition(&raw);
    }

    /// Replaces the transport's link policy for all future messages —
    /// the gray-failure knob: latency/loss degrade (or recover) at
    /// runtime without rebuilding the transport. Existing links keep
    /// their sampled base propagation delay (see
    /// [`Transport::set_policy`]). No-op on the instant transport.
    pub fn set_link_policy(&mut self, policy: LinkPolicy) {
        // Close the locate window first: ops planned under the old policy
        // are charged at its prices. While partitioned every probe closes
        // its own window, so nothing here can hit a severed link.
        self.flush_batch()
            .expect("flush before policy change cannot hit a severed link");
        self.wire.transport.set_policy(policy);
    }

    /// Heals any active network partition.
    pub fn heal_partition(&mut self) {
        // Nothing to flush: a partition closes every probe's window.
        self.wire.transport.heal();
    }
}
