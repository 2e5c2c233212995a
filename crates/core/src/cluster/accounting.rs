//! Accounting and observation: what a protocol step charges and what it
//! leaves behind for a reader — never anything a step decides on.
//! [`Wire`] is the one way a message leaves a server (counted in
//! [`MessageStats`], charged virtual time through the transport — no
//! other code in this crate sends — its operation's latency observed);
//! [`Obs`] is the flight recorder and the per-phase profiler.

use clash_chord::id::ChordId;
use clash_chord::net::{LookupResult, SimNet};
use clash_obs::{
    CheckPhase, PhaseProfile, PhaseProfiler, Recorder, Telemetry, TraceEvent, TraceEventKind,
    TraceMode,
};
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{
    Chain, ChainOutcome, LinkPolicy, MessageClass, SendSpec, Transport, TransportStats,
};

use super::data_plane::GroupLedger;
use super::locate::WINDOW_PROBES;
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

/// One leg of a chain: a `(from, to, class)` message.
pub(super) type Leg = (ChordId, ChordId, MessageClass);

/// Legs a window's probe is reserved: a Chord lookup on up to 2¹⁴
/// servers averages at most 7 hops, plus the probe's response.
const LEGS_PER_PROBE: usize = 8;

/// The message path: [`open`](Wire::open) a dispatch, lay out its
/// *chains* (legs a sender sends in turn, each once the last arrived:
/// a lookup's hops [`route`](Wire::route)d straight off the ring, then
/// the legs [`lay_out`](Wire::lay_out) closes the chain with), send them
/// in one [`Transport::send_chains`], read each outcome back in order.
/// Callers count the messages in `msgs` and observe their latency.
///
/// Every chain has an **ordinal**, counted here: a probe takes the next
/// one when `locate_hinted` plans it and carries it to the flush that
/// lays it out; every other chain takes one when it is laid out. So
/// ordinals follow op order whenever a window closes. The transport
/// keys leg `i` of chain `c` [`clash_transport::message_key`]`(c, i)`
/// and stops a chain at the first leg a partition refuses.
pub(super) struct Wire {
    /// The default [`clash_transport::InstantTransport`] reproduces
    /// direct-call semantics exactly.
    pub(super) transport: Box<dyn Transport>,
    pub(super) msgs: MessageStats,
    /// End-to-end per-operation latency recorders.
    pub(super) latency: LatencyMetrics,
    /// The dispatch's legs, each chain's `(ordinal, end)` and, once
    /// sent, each chain's outcome. Reserved for a full locate window, so
    /// a window reuses the last one's buffers.
    legs: Vec<SendSpec>,
    chains: Vec<Chain>,
    outcomes: Vec<ChainOutcome>,
    /// Chains read back so far.
    read: usize,
    /// Ordinals handed out so far: the next chain's ordinal.
    ordinals: u64,
}

impl Wire {
    pub(super) fn new(transport: Box<dyn Transport>) -> Self {
        Wire {
            transport,
            msgs: MessageStats::default(),
            latency: LatencyMetrics::new(),
            legs: Vec::with_capacity(WINDOW_PROBES * LEGS_PER_PROBE),
            chains: Vec::with_capacity(WINDOW_PROBES),
            outcomes: Vec::with_capacity(WINDOW_PROBES),
            read: 0,
            ordinals: 0,
        }
    }

    /// Opens a dispatch, forgetting the last one.
    pub(super) fn open(&mut self) {
        self.legs.clear();
        self.chains.clear();
        self.read = 0;
    }

    /// The next chain ordinal, taken.
    pub(super) fn take_ordinal(&mut self) -> u64 {
        let ordinal = self.ordinals;
        self.ordinals += 1;
        ordinal
    }

    /// Routes a lookup for `h` from `start` on `net`, laying out a
    /// `Probe` leg per hop as the chain's first legs; the next
    /// [`Wire::lay_out`] or [`Wire::lay_out_as`] closes the chain.
    /// Records no lookup statistics.
    #[inline]
    pub(super) fn route(&mut self, net: &SimNet, start: ChordId, h: u64) -> LookupResult {
        let (legs, class) = (&mut self.legs, MessageClass::Probe);
        net.route_each(start, h, |src, dst| legs.push(SendSpec { src, dst, class }))
    }

    /// [`Wire::route`] from the ring positions of the start and of the
    /// owner of `h` (see [`SimNet::route_each_from`]).
    #[inline]
    pub(super) fn route_from(&mut self, net: &SimNet, at: u32, h: u64, owner: u32) -> LookupResult {
        let (legs, class) = (&mut self.legs, MessageClass::Probe);
        net.route_each_from(at, h, owner, |src, dst| {
            legs.push(SendSpec { src, dst, class });
        })
    }

    /// Closes a chain with `legs` under the next ordinal (see
    /// [`Wire::lay_out_as`]).
    #[inline]
    pub(super) fn lay_out(&mut self, legs: &[Leg]) {
        let ordinal = self.take_ordinal();
        self.lay_out_as(ordinal, legs);
    }

    /// Closes chain `ordinal`: the legs [`Wire::route`] laid out since
    /// the last chain closed, then `legs`.
    #[inline]
    pub(super) fn lay_out_as(&mut self, ordinal: u64, legs: &[Leg]) {
        self.legs
            .extend(legs.iter().map(|&(from, to, class)| SendSpec {
                src: from.value(),
                dst: to.value(),
                class,
            }));
        self.chains.push((ordinal, self.legs.len()));
    }

    /// Sends every chain laid out since [`Wire::open`] at once.
    pub(super) fn dispatch(&mut self) {
        self.transport
            .send_chains(&self.legs, &self.chains, &mut self.outcomes);
    }

    /// Reads the next chain back: adds its delivered legs' latency to
    /// `total` (a cut chain's too) and names a cut chain's refused leg.
    #[inline]
    pub(super) fn next_chain(&mut self, total: &mut SimDuration) -> Result<(), SendSpec> {
        let outcome = self.outcomes[self.read];
        self.read += 1;
        *total += outcome.latency;
        outcome.cut.map_or(Ok(()), |cut| Err(self.legs[cut]))
    }

    /// One chain on its own; its latency if every leg arrived.
    pub(super) fn send_chain(&mut self, legs: &[Leg]) -> Option<SimDuration> {
        self.open();
        self.lay_out(legs);
        self.dispatch();
        let mut total = SimDuration::ZERO;
        self.next_chain(&mut total).ok().map(|()| total)
    }

    /// One charged `REPLICATE_KEYGROUP` + `ACK_REPLICA` exchange (a
    /// replica seed, or a recovery's state fetch). Returns false, with
    /// nothing counted, when either leg is undeliverable.
    pub(super) fn replica_round_trip(&mut self, from: ChordId, to: ChordId) -> bool {
        let legs = [
            (from, to, MessageClass::ReplicateKeygroup),
            (to, from, MessageClass::AckReplica),
        ];
        let delivered = self.send_chain(&legs);
        if let Some(lat) = delivered {
            self.msgs.replication_messages += 2;
            self.latency.replication.observe(ms(lat));
        }
        delivered.is_some()
    }

    /// Counts a group's state changing servers: one state-transfer
    /// message per live query object, one client redirect per live
    /// source.
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
    /// The flight recorder emitted `TraceEvent`s go to; `None` is off.
    trace: Option<Recorder>,
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
        if let Some(recorder) = &mut self.trace {
            recorder.record(TraceEvent {
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

    /// On a consistency failure: dump the flight recorder's newest 64
    /// events (all of them when its ring holds fewer) to stderr so the
    /// panic message comes with the decisions that led there. No-op
    /// when tracing is off or nothing is buffered.
    pub(super) fn dump_trace_tail(&self) {
        let Some(trace) = &self.trace else {
            return;
        };
        let tail = trace.tail(64);
        if tail.len() == 0 {
            return;
        }
        eprintln!(
            "--- flight recorder: last {} event(s) before failure ({} shed) ---",
            tail.len(),
            trace.dropped()
        );
        for ev in tail {
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
    /// Message statistics since construction.
    pub fn message_stats(&self) -> MessageStats {
        self.debug_assert_window_closed();
        self.wire.msgs
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

    /// Installs the flight recorder `mode` describes ([`TraceMode::Off`]
    /// removes it); whatever the previous recorder still held is
    /// discarded with it, shed count included.
    pub fn set_trace(&mut self, mode: TraceMode) {
        self.obs.trace = Recorder::new(mode);
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

    /// Drains everything the flight recorder holds, oldest first (empty
    /// when tracing is off). Its shed count stays.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.obs
            .trace
            .as_mut()
            .map_or_else(Vec::new, Recorder::drain)
    }

    /// Events the flight recorder's ring had to shed since it was
    /// installed (0 when unbounded or off).
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace.as_ref().map_or(0, Recorder::dropped)
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
        t.counter("mem.ring_bytes", self.net.heap_bytes());
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
    /// runtime without rebuilding the transport. Links keep no state, so
    /// every link's base delay follows the new policy too (see
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

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::hash::HashSpace;
    use clash_keyspace::key::Key;
    use clash_simkernel::rng::DetRng;
    use clash_transport::{InstantTransport, LinkTransport};
    use proptest::prelude::*;

    /// The reference for [`Wire`]'s routine: one chain, its legs laid
    /// out by hand, sent on its own under `ordinal`.
    fn send_alone(transport: &mut dyn Transport, ordinal: u64, legs: &[SendSpec]) -> ChainOutcome {
        let mut out = Vec::new();
        transport.send_chains(legs, &[(ordinal, legs.len())], &mut out);
        out[0]
    }

    fn spec((from, to, class): Leg) -> SendSpec {
        SendSpec {
            src: from.value(),
            dst: to.value(),
            class,
        }
    }

    #[test]
    fn locate_windows_keep_the_dispatch_buffers_they_reserved() {
        // fig4's size: 16 servers under the paper's configuration, every
        // window closed full by its 512th probe.
        let mut c = ClashCluster::new(crate::ClashConfig::paper(), 16, 7).unwrap();
        let capacities = |w: &Wire| {
            [
                w.legs.capacity(),
                w.chains.capacity(),
                w.outcomes.capacity(),
            ]
        };
        let reserved = capacities(&c.wire);
        let width = c.config.key_width;
        let mut rng = DetRng::new(8);
        while c.batch.flush_seq < 100 {
            c.locate(Key::from_bits_truncated(rng.next_u64(), width))
                .unwrap();
            assert_eq!(capacities(&c.wire), reserved, "flush {}", c.batch.flush_seq);
        }
        assert_eq!(c.batch.window_probes_max, WINDOW_PROBES as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Steps over an 8-node ring, on the instant transport or a
        /// lossy WAN: kind 0 partitions the nodes into up to four
        /// islands, kind 1 heals, any other kind dispatches its chains —
        /// 0–6 legs between ring nodes (self-sends included), after a
        /// routed lookup's hops when drawn so. One dispatch gives each
        /// chain the outcome the chain's legs, routed by
        /// `SimNet::route_path` and laid out leg by leg, get when sent on
        /// their own under the chain's ordinal, and leaves the same
        /// counters. (`clash-transport` pins a chain against its legs
        /// sent one at a time.)
        #[test]
        fn one_dispatch_matches_sending_each_chain_leg_by_leg(
            instant in any::<bool>(),
            seed in 0u64..u64::MAX,
            steps in prop::collection::vec(
                (
                    0u8..8,
                    0u64..u64::MAX,
                    prop::collection::vec(
                        (
                            0u8..2,
                            (0usize..8, 0u64..256),
                            prop::collection::vec((0usize..8, 0usize..8, 0usize..8), 0..7),
                        ),
                        1..6,
                    ),
                ),
                1..24,
            ),
        ) {
            let space = HashSpace::new(8).unwrap();
            let net = SimNet::with_random_nodes(space, 8, &mut DetRng::new(seed));
            let nodes = net.node_ids();
            let transport = || -> Box<dyn Transport> {
                if instant {
                    Box::new(InstantTransport::new())
                } else {
                    Box::new(LinkTransport::new(LinkPolicy::lossy_wan(0.2), seed))
                }
            };
            let mut wire = Wire::new(transport());
            let mut reference = transport();
            let mut ordinal = 0;
            let mut path = Vec::new();
            for (kind, island_bits, drawn) in steps {
                if kind == 0 {
                    let mut islands = vec![Vec::new(); 4];
                    for (i, node) in nodes.iter().enumerate() {
                        islands[((island_bits >> (2 * i)) & 3) as usize].push(node.value());
                    }
                    wire.transport.partition(&islands);
                    reference.partition(&islands);
                    continue;
                }
                if kind == 1 {
                    wire.transport.heal();
                    reference.heal();
                    continue;
                }
                wire.open();
                let mut by_hand = Vec::new();
                for (routed, (start, h), tail) in &drawn {
                    let tail: Vec<Leg> = tail
                        .iter()
                        .map(|&(from, to, class)| (nodes[from], nodes[to], MessageClass::ALL[class]))
                        .collect();
                    path.clear();
                    if *routed == 1 {
                        let lookup = wire.route(&net, nodes[*start], *h);
                        prop_assert_eq!(lookup, net.route_path(nodes[*start], *h, &mut path));
                    }
                    wire.lay_out(&tail);
                    let hops = path.iter().map(|&(from, to)| (from, to, MessageClass::Probe));
                    by_hand.push(hops.chain(tail).map(spec).collect::<Vec<_>>());
                }
                prop_assert_eq!(&wire.legs, &by_hand.concat());
                wire.dispatch();
                for (i, legs) in by_hand.iter().enumerate() {
                    let want = send_alone(&mut *reference, ordinal, legs);
                    ordinal += 1;
                    let mut got = SimDuration::ZERO;
                    let outcome = wire.next_chain(&mut got);
                    prop_assert_eq!(outcome.err(), want.cut.map(|cut| legs[cut]), "chain {} cut", i);
                    prop_assert_eq!(got, want.latency, "chain {} latency", i);
                }
                prop_assert_eq!(wire.transport.stats(), reference.stats());
            }
        }
    }
}
