//! Virtual-time message transport for the CLASH harness.
//!
//! The paper (§6) evaluates CLASH purely by message *counts*: its C++
//! simulator, like the seed of this reproduction, delivers every message as
//! a synchronous direct call. This crate adds the missing dimension — a
//! [`Transport`] abstraction that charges each message a deterministic
//! virtual-time cost drawn from a per-link [`LinkPolicy`]:
//!
//! * **latency** — a per-link base delay plus per-message jitter, each a
//!   pure function of the transport seed, the link and the message's key
//!   ([`message_key`]), so enabling latency never perturbs the protocol's
//!   own RNG draws and no link keeps any state;
//! * **loss** — transient drops repaired by timeout + retransmission, with
//!   a bounded retry count (the transport is *reliable*, like TCP over a
//!   lossy path: loss inflates latency and retransmission counts, it never
//!   destroys a message);
//! * **partitions** — a severable island matrix; messages between islands
//!   are [`Delivery::Unreachable`] until [`Transport::heal`] is called.
//!
//! Two implementations ship:
//!
//! * [`InstantTransport`] — zero latency, no loss, never draws randomness.
//!   A cluster wired to it is bit-for-bit identical to the pre-transport
//!   direct-call semantics (pinned by the `transport_faults` integration
//!   tests).
//! * [`link::LinkTransport`] — the full latency/loss/partition model.
//!
//! Messages are logically synchronous RPCs: the *cluster* stays in charge
//! of protocol state, the transport decides "how long did this take, and
//! did it get through?". The protocol sends *chains* — a routed lookup's
//! hops, then the message they carry — through
//! [`Transport::send_chains`]: the transport keys each leg from its
//! chain's ordinal and its place in the chain, stops a chain at the
//! first leg a partition refuses, and reports per chain. That keeps the
//! harness's analytic-aggregation design (the `clash-sim` driver's module
//! doc) while making locate latency CDFs, retry overhead and partition
//! behavior measurable — see the `netfault` experiment in `clash-sim`.

// The grep audit at PR 7 found zero `unsafe` in the protocol crates;
// lock that in — determinism reasoning assumes no aliasing backdoors.
#![forbid(unsafe_code)]
pub mod link;
pub mod policy;

pub use link::LinkTransport;
pub use policy::{LatencyModel, LinkPolicy};

use clash_simkernel::rng::{indexed_seed, splitmix64_mix};
use clash_simkernel::time::SimDuration;

/// A node address on the transport: the raw ring-identifier value.
///
/// The transport deliberately knows nothing about `ChordId`/`ServerId`
/// (those live higher in the stack); links are keyed by the underlying
/// `u64` the ring identifiers wrap.
pub type NodeAddr = u64;

/// Protocol message classes, for per-class transport accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MessageClass {
    /// A depth-search probe (`ACCEPT_OBJECT`) or DHT routing hop.
    Probe,
    /// A probe response back to the querying node.
    ProbeResponse,
    /// A leaf-to-parent `LOAD_REPORT`.
    LoadReport,
    /// An `ACCEPT_KEYGROUP` placement.
    AcceptKeygroup,
    /// A `RELEASE_KEYGROUP` request or response.
    ReleaseKeygroup,
    /// A membership handoff (join/leave entry transfer).
    Handoff,
    /// A `REPLICATE_KEYGROUP` seed/refresh/invalidate to a ring-successor
    /// replica, or a recovery state fetch from one.
    ReplicateKeygroup,
    /// An `ACK_REPLICA` response (seed acknowledgement or fetched state).
    AckReplica,
}

impl MessageClass {
    /// All classes, in stats order.
    pub const ALL: [MessageClass; 8] = [
        MessageClass::Probe,
        MessageClass::ProbeResponse,
        MessageClass::LoadReport,
        MessageClass::AcceptKeygroup,
        MessageClass::ReleaseKeygroup,
        MessageClass::Handoff,
        MessageClass::ReplicateKeygroup,
        MessageClass::AckReplica,
    ];

    /// Stable index into per-class stats arrays.
    pub fn index(self) -> usize {
        match self {
            MessageClass::Probe => 0,
            MessageClass::ProbeResponse => 1,
            MessageClass::LoadReport => 2,
            MessageClass::AcceptKeygroup => 3,
            MessageClass::ReleaseKeygroup => 4,
            MessageClass::Handoff => 5,
            MessageClass::ReplicateKeygroup => 6,
            MessageClass::AckReplica => 7,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Probe => "probe",
            MessageClass::ProbeResponse => "probe-resp",
            MessageClass::LoadReport => "load-report",
            MessageClass::AcceptKeygroup => "accept-keygroup",
            MessageClass::ReleaseKeygroup => "release-keygroup",
            MessageClass::Handoff => "handoff",
            MessageClass::ReplicateKeygroup => "replicate-keygroup",
            MessageClass::AckReplica => "ack-replica",
        }
    }
}

/// Outcome of one [`Transport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrived after `latency` of virtual time, on the
    /// `attempts`-th transmission (1 = no retransmission).
    Delivered {
        /// End-to-end virtual-time cost, including retransmission
        /// timeouts.
        latency: SimDuration,
        /// Transmissions used (first try plus retries).
        attempts: u32,
    },
    /// The destination is unreachable (severed by a partition); the
    /// sender gave up after `attempts` transmissions.
    Unreachable {
        /// Transmissions wasted before giving up.
        attempts: u32,
    },
}

impl Delivery {
    /// The latency if delivered, `None` if unreachable.
    pub fn latency(self) -> Option<SimDuration> {
        match self {
            Delivery::Delivered { latency, .. } => Some(latency),
            Delivery::Unreachable { .. } => None,
        }
    }

    /// True if the message arrived.
    pub fn is_delivered(self) -> bool {
        matches!(self, Delivery::Delivered { .. })
    }
}

/// Aggregate transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Envelopes delivered.
    pub messages: u64,
    /// Extra transmissions forced by loss (timeout + retry).
    pub retransmissions: u64,
    /// Sends refused because source and destination were partitioned.
    pub unreachable: u64,
    /// Sum of delivered end-to-end latency, in microseconds (saturating:
    /// a valid policy's single delivery may take most of `u64`).
    pub total_latency_us: u64,
    /// Envelopes delivered, per [`MessageClass::index`].
    pub per_class: [u64; 8],
}

impl TransportStats {
    /// Mean delivered latency in milliseconds (0 when nothing delivered).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / 1e3 / self.messages as f64
        }
    }

    /// Retransmissions per delivered message (the lossy-link overhead).
    pub fn retry_overhead(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.messages as f64
        }
    }
}

/// One pre-planned message of a batch (see [`Transport::send_batch`]) or
/// one leg of a chain (see [`Transport::send_chains`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendSpec {
    /// Sender address.
    pub src: NodeAddr,
    /// Destination address.
    pub dst: NodeAddr,
    /// Accounting class.
    pub class: MessageClass,
}

/// One chain of a [`Transport::send_chains`] dispatch: its ordinal and
/// the end of its legs, exclusive. A chain's legs start where the
/// previous chain's legs end.
pub type Chain = (u64, usize);

/// What became of one chain of a [`Transport::send_chains`] dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Summed latency of the chain's delivered legs.
    pub latency: SimDuration,
    /// The index, in the dispatch's legs, of the leg a partition refused:
    /// the chain stopped there. `None` when every leg arrived.
    pub cut: Option<usize>,
}

/// The key of leg `leg` of chain `chain`: what [`Transport::send_chains`]
/// draws that leg's loss and jitter under. Distinct `(chain, leg)` pairs
/// give distinct keys, so two messages on one link draw apart even when
/// they belong to one chain.
pub fn message_key(chain: u64, leg: u64) -> u64 {
    indexed_seed(splitmix64_mix(chain), leg)
}

/// A virtual-time message transport.
///
/// Implementations must be deterministic: the outcome of a send may
/// depend only on the construction seed, the policy, the partition in
/// force, and the message — its link and its key — or, for the unkeyed
/// [`Transport::send`], on the sequence of previous calls; never on
/// wall-clock time or global state.
pub trait Transport: Send {
    /// Attempts to deliver one message from `src` to `dst`.
    ///
    /// Local deliveries (`src == dst`) are free and always succeed.
    fn send(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery;

    /// Delivers a pre-planned batch, writing one [`Delivery`] per spec
    /// into `out` (cleared first), in spec order: exactly
    /// [`Transport::send`] once per spec, in order.
    fn send_batch(&mut self, sends: &[SendSpec], out: &mut Vec<Delivery>) {
        out.clear();
        out.reserve(sends.len());
        for s in sends {
            let d = self.send(s.src, s.dst, s.class);
            out.push(d);
        }
    }

    /// Sends a dispatch of chains — legs a sender sends in turn, each
    /// once the last arrived — writing one [`ChainOutcome`] per chain
    /// into `out` (cleared first), in chain order. Chain
    /// `(ordinal, end)` is the legs from the previous chain's end (0 for
    /// the first) up to `end`; its leg `i` is sent under key
    /// [`message_key`]`(ordinal, i)`, and **the cut rule:** the chain
    /// stops at its first leg a partition refuses, which is counted
    /// unreachable and named in the outcome. A leg's delivery is a
    /// function of its link, its key, the policy and the partition in
    /// force, so how a dispatch is cut into calls and in which order its
    /// chains are charged cannot change any outcome. `clash-core`'s one
    /// dispatch routine sends through it: a locate window's probes at
    /// once, a load check's reports at once, and every other protocol
    /// operation's messages as one chain.
    ///
    /// # Panics
    ///
    /// Implementations may panic unless the chains' ends are
    /// nondecreasing and at most `legs.len()`.
    fn send_chains(&mut self, legs: &[SendSpec], chains: &[Chain], out: &mut Vec<ChainOutcome>);

    /// No-op: `send_batch` is single-threaded. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    fn set_batch_workers(&mut self, _workers: usize) {}

    /// Counters accumulated since construction.
    fn stats(&self) -> TransportStats;

    /// Severs the network into islands: messages between nodes of
    /// different islands become [`Delivery::Unreachable`]. Nodes not
    /// listed in any island belong to island 0. Default: no-op (the
    /// instant transport cannot be partitioned).
    fn partition(&mut self, _islands: &[Vec<NodeAddr>]) {}

    /// Heals any active partition. Default: no-op.
    fn heal(&mut self) {}

    /// Replaces the link policy in force for all *future* sends — the
    /// gray-failure knob: a chaos schedule degrades latency/loss at
    /// runtime without rebuilding the transport. The new policy governs
    /// every later send's jitter, loss and retries, and its base delay
    /// too: a link keeps no state, so its base is drawn from the link's
    /// own key under the model in force, and a link that carried
    /// traffic before the change takes the new model's base after it.
    /// Default: no-op (the instant transport has no policy to mutate).
    fn set_policy(&mut self, _policy: LinkPolicy) {}

    /// The partition island `addr` currently belongs to, or `None` while
    /// the network is healed. Side-effect-free, like
    /// [`Transport::reachable`]. Used by recovery diagnostics to name
    /// the islands blocking a deferred recovery. Default: `None` (the
    /// instant transport cannot be partitioned).
    fn island_of(&self, _addr: NodeAddr) -> Option<u32> {
        None
    }

    /// True while a partition is in force.
    fn is_partitioned(&self) -> bool {
        false
    }

    /// True if a message from `src` could currently reach `dst` — a
    /// side-effect-free connectivity probe (no message is charged, no
    /// randomness drawn). Used by soft-state maintenance (replica payload
    /// refresh) to decide whether an update can piggyback on in-flight
    /// data-plane traffic. Default: always reachable.
    fn reachable(&self, _src: NodeAddr, _dst: NodeAddr) -> bool {
        true
    }

    /// True for the zero-latency direct-call transport (lets callers skip
    /// latency bookkeeping they know will be all zeros).
    fn is_instant(&self) -> bool {
        false
    }
}

/// The zero-cost transport: every message is delivered instantly, nothing
/// is ever dropped, and no randomness is drawn. A cluster wired to this
/// transport behaves bit-for-bit like the pre-transport direct-call code.
#[derive(Debug, Default)]
pub struct InstantTransport {
    stats: TransportStats,
}

impl InstantTransport {
    /// Creates the instant transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for InstantTransport {
    fn send(&mut self, _src: NodeAddr, _dst: NodeAddr, class: MessageClass) -> Delivery {
        self.stats.messages += 1;
        self.stats.per_class[class.index()] += 1;
        Delivery::Delivered {
            latency: SimDuration::ZERO,
            attempts: 1,
        }
    }

    /// Draws nothing, so derives no key: every leg arrives at once and
    /// is only counted, per class into a local array added to the
    /// running counters once per dispatch.
    fn send_chains(&mut self, legs: &[SendSpec], chains: &[Chain], out: &mut Vec<ChainOutcome>) {
        let sent = &legs[..chains.last().map_or(0, |&(_, end)| end)];
        let mut per_class = [0u64; 8];
        for leg in sent {
            per_class[leg.class.index()] += 1;
        }
        self.stats.messages += sent.len() as u64;
        for (count, add) in self.stats.per_class.iter_mut().zip(per_class) {
            *count += add;
        }
        out.clear();
        out.resize(chains.len(), ChainOutcome::default());
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn is_instant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_transport_is_free_and_counts() {
        let mut t = InstantTransport::new();
        for i in 0..10 {
            let d = t.send(i, i + 1, MessageClass::Probe);
            assert_eq!(
                d,
                Delivery::Delivered {
                    latency: SimDuration::ZERO,
                    attempts: 1
                }
            );
        }
        t.send(1, 2, MessageClass::LoadReport);
        let s = t.stats();
        assert_eq!(s.messages, 11);
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.unreachable, 0);
        assert_eq!(s.per_class[MessageClass::Probe.index()], 10);
        assert_eq!(s.per_class[MessageClass::LoadReport.index()], 1);
        assert_eq!(s.mean_latency_ms(), 0.0);
        assert!(t.is_instant());
    }

    #[test]
    fn instant_transport_ignores_partitions() {
        let mut t = InstantTransport::new();
        t.partition(&[vec![1], vec![2]]);
        assert!(!t.is_partitioned());
        assert!(t.send(1, 2, MessageClass::Probe).is_delivered());
    }

    #[test]
    fn message_class_indices_are_distinct() {
        let mut seen = [false; 8];
        for c in MessageClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
            assert!(!c.label().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn delivery_accessors() {
        let d = Delivery::Delivered {
            latency: SimDuration::from_millis(5),
            attempts: 2,
        };
        assert_eq!(d.latency(), Some(SimDuration::from_millis(5)));
        assert!(d.is_delivered());
        let u = Delivery::Unreachable { attempts: 3 };
        assert_eq!(u.latency(), None);
        assert!(!u.is_delivered());
    }

    #[test]
    fn stats_ratios() {
        let s = TransportStats {
            messages: 4,
            retransmissions: 2,
            total_latency_us: 8_000,
            ..TransportStats::default()
        };
        assert!((s.mean_latency_ms() - 2.0).abs() < 1e-12);
        assert!((s.retry_overhead() - 0.5).abs() < 1e-12);
        assert_eq!(TransportStats::default().retry_overhead(), 0.0);
    }
}
