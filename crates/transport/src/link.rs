//! The full latency/loss/partition transport.

use std::collections::BTreeMap;

use clash_simkernel::collections::ShardedMap;
use clash_simkernel::rng::{splitmix64_mix, DetRng};
use clash_simkernel::time::SimDuration;

use crate::policy::LinkPolicy;
use crate::{Delivery, MessageClass, NodeAddr, SendSpec, Transport, TransportStats};

/// Lazily created per-directed-link state: an independent RNG substream
/// plus the link's sampled base propagation delay.
#[derive(Debug)]
struct LinkState {
    rng: DetRng,
    base: SimDuration,
}

/// The partition matrix: an assignment of nodes to islands. `None` means
/// fully connected. Nodes not listed in any island belong to island 0.
#[derive(Debug, Default)]
struct PartitionMatrix {
    islands: Option<BTreeMap<NodeAddr, u32>>,
}

impl PartitionMatrix {
    fn sever(&mut self, islands: &[Vec<NodeAddr>]) {
        let mut map = BTreeMap::new();
        for (gi, island) in islands.iter().enumerate() {
            for &node in island {
                map.insert(node, gi as u32);
            }
        }
        self.islands = Some(map);
    }

    fn heal(&mut self) {
        self.islands = None;
    }

    fn is_active(&self) -> bool {
        self.islands.is_some()
    }

    fn connected(&self, a: NodeAddr, b: NodeAddr) -> bool {
        match &self.islands {
            None => true,
            Some(map) => map.get(&a).copied().unwrap_or(0) == map.get(&b).copied().unwrap_or(0),
        }
    }
}

/// A deterministic transport applying one [`LinkPolicy`] to every directed
/// link, with independent per-link randomness and a severable partition
/// matrix.
///
/// # Example
///
/// ```
/// use clash_transport::{LinkPolicy, LinkTransport, MessageClass, Transport};
///
/// let mut t = LinkTransport::new(LinkPolicy::wan(), 42);
/// let d = t.send(1, 2, MessageClass::Probe);
/// assert!(d.is_delivered());
/// assert!(d.latency().unwrap().as_secs_f64() >= 0.020); // ≥ 20 ms base
/// ```
#[derive(Debug)]
pub struct LinkTransport {
    policy: LinkPolicy,
    root: DetRng,
    /// Per-directed-link state, hashed (not ordered): looked up once
    /// per send and never iterated, so an O(1) deterministic hash beats
    /// the tree walk on large rings. Sharded by [`pair_mix`] to bound the
    /// rehash peak (one map for every link measured `peak_rss_mb`
    /// 34.5 → 47.5 on `churn_wan_seq` and 27.1 → 33.3 on `storm_lossy`,
    /// with no time change); a link's state and draw order depend only
    /// on its pair, so the split cannot change any delivery.
    links: ShardedMap<(NodeAddr, NodeAddr), LinkState>,
    partition: PartitionMatrix,
    stats: TransportStats,
}

/// Sends per cache-warming window in the batch path: lookups for a
/// window are issued back-to-back (independent loads the CPU overlaps)
/// before the window is charged, turning the per-send dependent-miss
/// chain into memory-level-parallel misses. 64 windows × ~2 lines per
/// link stay comfortably within L1.
const WARM_WINDOW: usize = 64;

/// The derived 64-bit identity of a directed link: seeds the link's RNG
/// substream and picks the link's sub-map.
fn pair_mix(src: NodeAddr, dst: NodeAddr) -> u64 {
    splitmix64_mix(src.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dst)
}

impl LinkTransport {
    /// Creates a transport over `policy`, with all randomness derived from
    /// `seed`. The seed is independent of the cluster's protocol seed by
    /// construction (callers derive it as a labelled substream).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`LinkPolicy::validate`]).
    pub fn new(policy: LinkPolicy, seed: u64) -> Self {
        policy.validate();
        LinkTransport {
            policy,
            root: DetRng::new(seed).substream("transport"),
            links: ShardedMap::new(),
            partition: PartitionMatrix::default(),
            stats: TransportStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// Creates the per-link state for a first use: one independent RNG
    /// substream per directed link, derived from the pair — stable no
    /// matter in which order links first carry traffic.
    fn make_link(policy: &LinkPolicy, root: &DetRng, pair: u64) -> LinkState {
        let mut rng = root.substream_indexed("link", pair);
        let base = policy.latency.sample_base(&mut rng);
        LinkState { rng, base }
    }

    fn link_state(&mut self, src: NodeAddr, dst: NodeAddr) -> &mut LinkState {
        let policy = self.policy;
        let root = &self.root;
        let pair = pair_mix(src, dst);
        self.links
            .shard_mut(pair)
            .entry((src, dst))
            .or_insert_with(|| Self::make_link(&policy, root, pair))
    }

    /// The monomorphic single-send core shared by [`Transport::send`]
    /// and [`Transport::send_batch`].
    #[inline]
    fn send_one(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery {
        if src == dst {
            // Local delivery: free, no randomness drawn.
            self.stats.messages += 1;
            self.stats.per_class[class.index()] += 1;
            return Delivery::Delivered {
                latency: SimDuration::ZERO,
                attempts: 1,
            };
        }
        if !self.partition.connected(src, dst) {
            let attempts = self.policy.max_retries + 1;
            self.stats.unreachable += 1;
            return Delivery::Unreachable { attempts };
        }
        let policy = self.policy;
        let link = self.link_state(src, dst);
        // Transient loss: each transmission drops independently; after
        // max_retries losses the final transmission goes through.
        let mut attempts = 1u32;
        while attempts <= policy.max_retries && link.rng.chance(policy.drop_probability) {
            attempts += 1;
        }
        let latency = policy.retry_timeout * u64::from(attempts - 1)
            + policy.latency.sample(link.base, &mut link.rng);
        self.stats.messages += 1;
        self.stats.per_class[class.index()] += 1;
        self.stats.retransmissions += u64::from(attempts - 1);
        self.stats.total_latency_us += latency.as_micros();
        Delivery::Delivered { latency, attempts }
    }
}

impl Transport for LinkTransport {
    fn send(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery {
        self.send_one(src, dst, class)
    }

    /// Per [`WARM_WINDOW`] window, first touch every send's link entry
    /// in a tight loop — the lookups are independent, so their cache
    /// misses overlap — then charge the window in order against the
    /// now-warm entries. Draw order per link and stats totals are
    /// exactly the sequential loop's (same calls, same order). The warm
    /// window is the transport's share of what charging probes in one
    /// pass per flush saves over sending each on its own.
    fn send_batch(&mut self, sends: &[SendSpec], out: &mut Vec<Delivery>) {
        out.clear();
        out.reserve(sends.len());
        for window in sends.chunks(WARM_WINDOW) {
            for s in window {
                if s.src != s.dst {
                    let shard = self.links.shard(pair_mix(s.src, s.dst));
                    if let Some(l) = shard.get(&(s.src, s.dst)) {
                        std::hint::black_box(l);
                    }
                }
            }
            for s in window {
                let d = self.send_one(s.src, s.dst, s.class);
                out.push(d);
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TransportStats::default();
    }

    fn partition(&mut self, islands: &[Vec<NodeAddr>]) {
        self.partition.sever(islands);
    }

    fn heal(&mut self) {
        self.partition.heal();
    }

    fn is_partitioned(&self) -> bool {
        self.partition.is_active()
    }

    fn reachable(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        self.partition.connected(src, dst)
    }

    fn set_policy(&mut self, policy: LinkPolicy) {
        policy.validate();
        self.policy = policy;
    }

    fn island_of(&self, addr: NodeAddr) -> Option<u32> {
        self.partition
            .islands
            .as_ref()
            .map(|map| map.get(&addr).copied().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LatencyModel;

    fn drain(t: &mut LinkTransport, n: u64) -> Vec<Delivery> {
        (0..n)
            .map(|i| t.send(i % 8, (i + 1) % 8, MessageClass::Probe))
            .collect()
    }

    #[test]
    fn same_seed_same_deliveries() {
        let mut a = LinkTransport::new(LinkPolicy::lossy_wan(0.2), 11);
        let mut b = LinkTransport::new(LinkPolicy::lossy_wan(0.2), 11);
        assert_eq!(drain(&mut a, 500), drain(&mut b, 500));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LinkTransport::new(LinkPolicy::wan(), 1);
        let mut b = LinkTransport::new(LinkPolicy::wan(), 2);
        assert_ne!(drain(&mut a, 100), drain(&mut b, 100));
    }

    #[test]
    fn link_base_is_stable_per_link() {
        // Two messages on the same WAN link share the base propagation
        // delay: both latencies are >= the base, and the base for a given
        // link is the same regardless of traffic order elsewhere.
        let mut t1 = LinkTransport::new(LinkPolicy::wan(), 5);
        let first = t1.send(100, 200, MessageClass::Probe).latency().unwrap();
        let mut t2 = LinkTransport::new(LinkPolicy::wan(), 5);
        t2.send(7, 8, MessageClass::Probe); // unrelated traffic first
        let second = t2.send(100, 200, MessageClass::Probe).latency().unwrap();
        assert_eq!(
            first, second,
            "per-link substream must be order-independent"
        );
    }

    #[test]
    fn self_send_is_free() {
        let mut t = LinkTransport::new(LinkPolicy::wan(), 3);
        let d = t.send(9, 9, MessageClass::LoadReport);
        assert_eq!(d.latency(), Some(SimDuration::ZERO));
        assert_eq!(t.stats().messages, 1);
    }

    #[test]
    fn loss_inflates_latency_and_counts_retries() {
        let policy = LinkPolicy {
            latency: LatencyModel::Zero,
            drop_probability: 0.5,
            retry_timeout: SimDuration::from_millis(100),
            max_retries: 4,
        };
        let mut t = LinkTransport::new(policy, 17);
        let mut max_attempts = 0;
        for i in 0..2000u64 {
            match t.send(i % 4, 1000, MessageClass::Probe) {
                Delivery::Delivered { latency, attempts } => {
                    assert!(attempts <= 5, "retry budget respected");
                    assert_eq!(
                        latency,
                        SimDuration::from_millis(100) * u64::from(attempts - 1),
                        "each retry charges one timeout"
                    );
                    max_attempts = max_attempts.max(attempts);
                }
                Delivery::Unreachable { .. } => panic!("loss never destroys messages"),
            }
        }
        assert!(max_attempts > 1, "p=0.5 must force retransmissions");
        let s = t.stats();
        assert!(
            s.retransmissions > 500,
            "retries counted: {}",
            s.retransmissions
        );
        let overhead = s.retry_overhead();
        assert!(
            (overhead - 1.0).abs() < 0.2,
            "E[retries] ≈ 1 at p=0.5: {overhead}"
        );
    }

    #[test]
    fn partition_severs_and_heals() {
        let mut t = LinkTransport::new(LinkPolicy::lan(), 23);
        t.partition(&[vec![1, 2], vec![3, 4]]);
        assert!(t.is_partitioned());
        assert!(t.send(1, 2, MessageClass::Probe).is_delivered());
        assert!(!t.send(1, 3, MessageClass::Probe).is_delivered());
        assert!(!t.send(4, 2, MessageClass::Probe).is_delivered());
        // Unlisted nodes fall into island 0.
        assert!(t.send(99, 1, MessageClass::Probe).is_delivered());
        assert!(!t.send(99, 3, MessageClass::Probe).is_delivered());
        assert_eq!(t.stats().unreachable, 3);
        // The side-effect-free probe agrees with send() without counting.
        assert!(t.reachable(1, 2));
        assert!(!t.reachable(1, 3));
        assert_eq!(t.stats().unreachable, 3, "reachable() must not count");
        t.heal();
        assert!(!t.is_partitioned());
        assert!(t.reachable(1, 3));
        assert!(t.send(1, 3, MessageClass::Probe).is_delivered());
    }

    /// A mixed batch exercising every send class: plain WAN links (link
    /// state + RNG draws), self-sends (free), and — when `part` is set —
    /// severed pairs (unreachable, no draws).
    fn mixed_batch(n: usize) -> Vec<SendSpec> {
        let mut state = 0xDEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                let src = r % 97;
                let dst = match r % 13 {
                    0 => src,            // self-send
                    _ => (r >> 16) % 97, // may collide with src too
                };
                SendSpec {
                    src,
                    dst,
                    class: MessageClass::Probe,
                }
            })
            .collect()
    }

    fn assert_batch_matches_sequential(policy: LinkPolicy, partition: bool) {
        let sends = mixed_batch(10_000);
        let mut seq = LinkTransport::new(policy, 77);
        let mut bat = LinkTransport::new(policy, 77);
        if partition {
            // Nodes 0..48 vs 49..96: plenty of severed pairs in the mix.
            let islands: Vec<Vec<u64>> = vec![(0..49).collect(), (49..97).collect()];
            seq.partition(&islands);
            bat.partition(&islands);
        }
        let expected: Vec<Delivery> = sends
            .iter()
            .map(|s| seq.send(s.src, s.dst, s.class))
            .collect();
        let mut got = Vec::new();
        bat.send_batch(&sends, &mut got);
        assert_eq!(expected, got, "partition={partition}");
        assert_eq!(seq.stats(), bat.stats());
        // Draw order per link must also line up for *future* traffic.
        for s in sends.iter().take(200) {
            assert_eq!(
                seq.send(s.src, s.dst, s.class),
                bat.send(s.src, s.dst, s.class),
                "post-batch link state diverged"
            );
        }
    }

    #[test]
    fn send_batch_matches_sequential_inline() {
        assert_batch_matches_sequential(LinkPolicy::lossy_wan(0.2), false);
    }

    #[test]
    fn send_batch_matches_sequential_partitioned() {
        assert_batch_matches_sequential(LinkPolicy::wan(), true);
    }

    #[test]
    fn send_batch_small_batches_and_empty() {
        let mut t = LinkTransport::new(LinkPolicy::wan(), 5);
        let mut out = vec![Delivery::Unreachable { attempts: 9 }];
        t.send_batch(&[], &mut out);
        assert!(out.is_empty(), "empty batch clears out");
        // One short of a warm window.
        let sends = mixed_batch(63);
        let mut seq = LinkTransport::new(LinkPolicy::wan(), 5);
        let expected: Vec<Delivery> = sends
            .iter()
            .map(|s| seq.send(s.src, s.dst, s.class))
            .collect();
        t.send_batch(&sends, &mut out);
        assert_eq!(expected, out);
    }

    #[test]
    fn rapid_sever_heal_flapping_does_not_double_charge() {
        // Regression for link flapping: a sever → unreachable send →
        // heal cycle must leave every link's state (RNG position, base
        // delay) untouched, so post-heal traffic is charged exactly the
        // latency a never-partitioned twin charges — no double-charged
        // retries, no skipped draws.
        let policy = LinkPolicy::lossy_wan(0.2);
        let mut flappy = LinkTransport::new(policy, 31);
        let mut calm = LinkTransport::new(policy, 31);
        let islands: Vec<Vec<u64>> = vec![(0..4).collect(), (4..8).collect()];
        let mut unreachable = 0u64;
        for round in 0..50u64 {
            flappy.partition(&islands);
            assert_eq!(flappy.island_of(1), Some(0));
            assert_eq!(flappy.island_of(5), Some(1));
            assert_eq!(flappy.island_of(99), Some(0), "unlisted nodes → island 0");
            // Mid-flap: the cross-island send is refused without touching
            // link state or randomness.
            let d = flappy.send(round % 4, 4 + round % 4, MessageClass::Probe);
            assert!(!d.is_delivered());
            unreachable += 1;
            flappy.heal();
            assert_eq!(flappy.island_of(1), None, "healed network has no islands");
            // Post-heal traffic on the very link that was refused must
            // match the never-partitioned twin delivery for delivery.
            for _ in 0..3 {
                let src = round % 4;
                let dst = 4 + round % 4;
                assert_eq!(
                    flappy.send(src, dst, MessageClass::Probe),
                    calm.send(src, dst, MessageClass::Probe),
                    "flapping perturbed link state at round {round}"
                );
            }
        }
        let fs = flappy.stats();
        let cs = calm.stats();
        assert_eq!(fs.unreachable, unreachable);
        assert_eq!(fs.messages, cs.messages);
        assert_eq!(fs.retransmissions, cs.retransmissions);
        assert_eq!(fs.total_latency_us, cs.total_latency_us);
    }

    #[test]
    fn set_policy_governs_future_sends() {
        // Degrade a clean LAN into a lossy link at runtime: the policy
        // swap is visible to future sends (retries appear) and is
        // reversible (restoring the old policy restores clean delivery).
        let clean = LinkPolicy {
            latency: LatencyModel::Zero,
            drop_probability: 0.0,
            retry_timeout: SimDuration::from_millis(100),
            max_retries: 4,
        };
        let mut t = LinkTransport::new(clean, 41);
        for i in 0..100u64 {
            let d = t.send(i % 4, 100, MessageClass::Probe);
            assert_eq!(d.latency(), Some(SimDuration::ZERO));
        }
        assert_eq!(t.stats().retransmissions, 0);
        t.set_policy(LinkPolicy {
            drop_probability: 0.9,
            ..clean
        });
        assert_eq!(t.policy().drop_probability, 0.9);
        for i in 0..100u64 {
            t.send(i % 4, 100, MessageClass::Probe);
        }
        let degraded = t.stats().retransmissions;
        assert!(degraded > 100, "p=0.9 must force retries: {degraded}");
        t.set_policy(clean);
        for i in 0..100u64 {
            let d = t.send(i % 4, 100, MessageClass::Probe);
            assert_eq!(d.latency(), Some(SimDuration::ZERO));
        }
        assert_eq!(t.stats().retransmissions, degraded, "clean again");
    }

    #[test]
    fn set_policy_keeps_existing_wan_link_bases() {
        // A link's base propagation delay is part of its identity: a
        // runtime policy mutation (gray failure) must not resample it.
        let wan = LinkPolicy::wan();
        let mut t = LinkTransport::new(wan, 51);
        let no_jitter = LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(20),
                base_hi: SimDuration::from_millis(120),
                jitter_mean: SimDuration::ZERO,
            },
            ..wan
        };
        t.set_policy(no_jitter);
        let first = t.send(1, 2, MessageClass::Probe).latency().unwrap();
        let again = t.send(1, 2, MessageClass::Probe).latency().unwrap();
        assert_eq!(first, again, "zero jitter exposes the stable base");
        t.set_policy(wan);
        let with_jitter = t.send(1, 2, MessageClass::Probe).latency().unwrap();
        assert!(with_jitter >= first, "same base, jitter only adds");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn set_policy_validates() {
        let mut t = LinkTransport::new(LinkPolicy::lan(), 1);
        t.set_policy(LinkPolicy {
            drop_probability: 1.5,
            ..LinkPolicy::lan()
        });
    }

    #[test]
    fn instant_policy_matches_instant_transport() {
        use crate::InstantTransport;
        let mut link = LinkTransport::new(LinkPolicy::instant(), 7);
        let mut instant = InstantTransport::new();
        for i in 0..200u64 {
            assert_eq!(
                link.send(i, i + 1, MessageClass::Handoff),
                instant.send(i, i + 1, MessageClass::Handoff)
            );
        }
        assert_eq!(link.stats().messages, instant.stats().messages);
        assert_eq!(link.stats().total_latency_us, 0);
    }
}
