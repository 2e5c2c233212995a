//! The full latency/loss/partition transport.
//!
//! Every directed link draws from its own generator, seeded from the
//! pair. The link table keeps each link in a 32-byte slot, two to a
//! cache line: a link that has drawn little is replayed from its seed on
//! each send, and only links that carry traffic store their generator
//! state.

use std::collections::BTreeMap;

use clash_simkernel::rng::{
    indexed_seed, splitmix64_mix, DetRng, Rng, RngCore, SeedableRng, SmallRng,
};
use clash_simkernel::time::SimDuration;

use crate::policy::LinkPolicy;
use crate::{Delivery, MessageClass, NodeAddr, SendSpec, Transport, TransportStats};

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

/// Words per link slot, `[src, dst, meta, base_us]`: the pair, the
/// link's generator as a draw count or a [`HOT_TAG`]ged index into
/// [`SubTable::hot`], and its base propagation delay in µs. Two slots
/// share a 64-byte cache line.
const SLOT_WORDS: usize = 4;

/// One link's slot (layout at [`SLOT_WORDS`]).
type Slot = [u64; SLOT_WORDS];

/// Words per 64-byte cache line.
const LINE_WORDS: usize = 64 / std::mem::size_of::<u64>();

/// `log2` of the sub-tables per [`LinkTable`]; a pair's sub-table is the
/// top bits of its [`pair_mix`], its home slot the low bits.
const SUB_TABLE_BITS: u32 = 5;

/// Slots a sub-table starts with (a power of two).
const MIN_SLOTS: usize = 8;

/// Raw draws a link makes before its generator state is stored instead
/// of replayed. A **cold** link (at most this many draws so far) keeps
/// only its draw count; each send re-seeds its generator and steps it
/// that many times. A send that takes a link past this count promotes
/// it, once, to a **hot** link with its 32-byte state in
/// [`SubTable::hot`]. A `wan()` link draws its base on first use and
/// two words per send, so it turns hot on its eighth send.
///
/// Chosen from measurements: medians of ten runs per value (default
/// seed, default reps, copies of the three binaries run in turn, 2-vCPU
/// Xeon). The counts are per repetition, of the 1 745 846
/// (`churn_wan_seq`) and 438 872 (`storm_lossy`) sends that reach a
/// link; replay steps are the generator steps cold sends re-run.
///
/// | `HOT_DRAWS` | workload | `peak_rss_mb` | events/s | hot links | cold sends | replay steps |
/// |---:|---|---:|---:|---:|---:|---:|
/// | 8 | `churn_wan_seq` | 22.47 | 173 k | 24 829 | 103 290 | 467 950 |
/// | 16 | `churn_wan_seq` | 21.38 | 176 k | 19 325 | 186 497 | 1 455 527 |
/// | 32 | `churn_wan_seq` | 21.49 | 180 k | 15 219 | 320 422 | 4 628 740 |
/// | 8 | `storm_lossy` | 17.84 | 90 k | 25 427 | 93 392 | 445 561 |
/// | 16 | `storm_lossy` | 16.71 | 94 k | 13 751 | 163 292 | 1 264 414 |
/// | 32 | `storm_lossy` | 17.51 | 90 k | 5 269 | 226 717 | 2 721 399 |
///
/// 16 has the lowest peak on both workloads. Events/s did not separate
/// the three beyond run-to-run noise (quartiles ≈ 10 % apart), and 32
/// re-runs 2–3× the replay steps of 16.
const HOT_DRAWS: u64 = 16;

/// Set in a hot link's `meta`; the other bits index [`SubTable::hot`].
/// A cold link's `meta` is its draw count, at most [`HOT_DRAWS`].
const HOT_TAG: u64 = 1 << 63;

/// A link's generator for the length of one send, counting its raw
/// draws. Every sampler draws through [`RngCore::next_u64`], so the
/// count is exactly the steps the bare generator took.
#[derive(Debug)]
struct LinkRng {
    rng: SmallRng,
    draws: u64,
}

impl LinkRng {
    /// The generator of the link whose seed is `seed`, `draws` raw
    /// draws in.
    fn replay(seed: u64, draws: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..draws {
            rng.next_u64();
        }
        LinkRng { rng, draws }
    }
}

impl RngCore for LinkRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// One open-addressing sub-table: a power-of-two ring of slots starting
/// on a line boundary, two to a line, probed linearly from a pair's home
/// slot and at most 7/8 full. A slot with `src == dst` is empty — no
/// link has equal endpoints, since a self-send returns before any link
/// state exists — so a zeroed allocation is an empty table.
#[derive(Debug)]
struct SubTable {
    /// The slots, from word `first` on. The words before it are the
    /// lead-in skipped to start slot 0 on a line boundary.
    words: Vec<u64>,
    first: usize,
    /// Slots − 1.
    mask: usize,
    /// Occupied slots.
    len: usize,
    /// The xoshiro256++ state ([`SmallRng::state`]) of every hot link
    /// of this sub-table, in promotion order; a hot slot's `meta` is its
    /// index here under [`HOT_TAG`]. Kept per sub-table so that, like
    /// the slots, it grows in small steps.
    hot: Vec<[u64; 4]>,
}

impl SubTable {
    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        // `vec![0; n]` allocates zeroed (calloc) memory: pages no link
        // ever lands on stay out of the resident set.
        let words = vec![0u64; slots * SLOT_WORDS + LINE_WORDS - 1];
        let misaligned = words.as_ptr() as usize / std::mem::size_of::<u64>() % LINE_WORDS;
        SubTable {
            words,
            first: (LINE_WORDS - misaligned) % LINE_WORDS,
            mask: slots - 1,
            len: 0,
            hot: Vec::new(),
        }
    }

    fn slots(&self) -> usize {
        self.mask + 1
    }

    /// The first word of slot `i`.
    fn at(&self, i: usize) -> usize {
        self.first + i * SLOT_WORDS
    }

    /// The home slot of the pair whose [`pair_mix`] is `hash`.
    fn home(&self, hash: u64) -> usize {
        hash as usize & self.mask
    }

    /// The first word of the slot holding `src → dst`, or of the empty
    /// slot where it belongs, probing on from the home slot of `hash`.
    fn probe(&self, src: NodeAddr, dst: NodeAddr, hash: u64) -> usize {
        let mut i = self.home(hash);
        loop {
            let w = self.at(i);
            let (s, d) = (self.words[w], self.words[w + 1]);
            if s == d || (s == src && d == dst) {
                return w;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the slots, re-placing every link by its pair's hash.
    fn grow(&mut self) {
        let mut next = SubTable::with_slots(self.slots() * 2);
        for i in 0..self.slots() {
            let slot = &self.words[self.at(i)..self.at(i) + SLOT_WORDS];
            let (src, dst) = (slot[0], slot[1]);
            if src != dst {
                let w = next.probe(src, dst, pair_mix(src, dst));
                next.words[w..w + SLOT_WORDS].copy_from_slice(slot);
            }
        }
        next.len = self.len;
        next.hot = std::mem::take(&mut self.hot);
        *self = next;
    }
}

/// Every directed link that ever carried a message: one 32-byte [`Slot`]
/// per link, so a lookup hashes the pair once and reads one line, plus
/// the generator state of the few links that carry traffic
/// ([`HOT_DRAWS`]). Most links carry one or two messages (owner → entry
/// responses); storing each one's 32-byte generator state doubled the
/// table, while replaying it costs a seed and at most [`HOT_DRAWS`]
/// generator steps per send.
///
/// Split into `2^SUB_TABLE_BITS` sub-tables, each growing on its own, to
/// bound the rehash peak: a growing table briefly holds its old and new
/// slots, and one table of every link put a whole second table on top
/// of the resident set (`peak_rss_mb` 34.5 → 47.5 on `churn_wan_seq`,
/// 27.1 → 33.3 on `storm_lossy`, measured on the hashed map this table
/// replaced). A link's state and draws depend only on its pair, so
/// where it sits cannot change any delivery.
#[derive(Debug)]
struct LinkTable {
    subs: Box<[SubTable]>,
}

impl LinkTable {
    fn new() -> Self {
        LinkTable {
            subs: (0..1 << SUB_TABLE_BITS)
                .map(|_| SubTable::with_slots(MIN_SLOTS))
                .collect(),
        }
    }

    /// The sub-table of the pair whose [`pair_mix`] is `hash`.
    fn sub_of(hash: u64) -> usize {
        (hash >> (u64::BITS - SUB_TABLE_BITS)) as usize
    }

    /// Reads the first word of `hash`'s home slot: the line its lookup
    /// starts on.
    fn touch(&self, hash: u64) -> u64 {
        let t = &self.subs[Self::sub_of(hash)];
        t.words[t.at(t.home(hash))]
    }

    /// Runs `send` on link `src → dst`'s generator and base delay and
    /// stores the generator back. `hash` is the pair's [`pair_mix`]; the
    /// link's generator is seeded `indexed_seed(link_seed, hash)`, the
    /// generator `DetRng::substream_indexed` builds. On the link's first
    /// use its base is drawn by `make_base` from the fresh generator.
    fn with_link<T>(
        &mut self,
        src: NodeAddr,
        dst: NodeAddr,
        hash: u64,
        link_seed: u64,
        make_base: impl FnOnce(&mut LinkRng) -> SimDuration,
        send: impl FnOnce(&mut LinkRng, SimDuration) -> T,
    ) -> T {
        let t = &mut self.subs[Self::sub_of(hash)];
        let mut w = t.probe(src, dst, hash);
        let (mut rng, base) = if t.words[w] == t.words[w + 1] {
            // An empty slot: the link's first use.
            if (t.len + 1) * 8 > t.slots() * 7 {
                t.grow();
                w = t.probe(src, dst, hash);
            }
            t.len += 1;
            let mut rng = LinkRng::replay(indexed_seed(link_seed, hash), 0);
            let base = make_base(&mut rng);
            let slot: Slot = [src, dst, 0, base.as_micros()];
            t.words[w..w + SLOT_WORDS].copy_from_slice(&slot);
            (rng, base)
        } else {
            let meta = t.words[w + 2];
            let rng = if meta & HOT_TAG == 0 {
                LinkRng::replay(indexed_seed(link_seed, hash), meta)
            } else {
                // A hot link's draws are no longer counted.
                LinkRng {
                    rng: SmallRng::from_state(t.hot[(meta & !HOT_TAG) as usize]),
                    draws: 0,
                }
            };
            (rng, SimDuration::from_micros(t.words[w + 3]))
        };
        let out = send(&mut rng, base);
        let meta = &mut t.words[w + 2];
        if *meta & HOT_TAG != 0 {
            t.hot[(*meta & !HOT_TAG) as usize] = rng.rng.state();
        } else if rng.draws > HOT_DRAWS {
            *meta = HOT_TAG | t.hot.len() as u64;
            t.hot.push(rng.rng.state());
        } else {
            *meta = rng.draws;
        }
        out
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.subs.iter().map(|t| t.len).sum()
    }

    #[cfg(test)]
    fn hot_links(&self) -> usize {
        self.subs.iter().map(|t| t.hot.len()).sum()
    }

    /// The table's size in bytes: 32 per slot and 32 per hot link. It
    /// leaves out each sub-table's line-alignment lead-in (< 64 bytes)
    /// and the spare capacity of its [`SubTable::hot`].
    #[cfg(test)]
    fn bytes(&self) -> usize {
        let slots: usize = self.subs.iter().map(SubTable::slots).sum();
        std::mem::size_of::<Slot>() * slots + std::mem::size_of::<[u64; 4]>() * self.hot_links()
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
    /// The seed of the transport's `"link"` substreams, derived once:
    /// link `src → dst` draws from the generator seeded
    /// `indexed_seed(link_seed, pair_mix(src, dst))`.
    link_seed: u64,
    links: LinkTable,
    partition: PartitionMatrix,
    stats: TransportStats,
}

/// Sends per cache-warming window in the batch path: the window's home
/// slots are read back-to-back (independent loads the CPU overlaps)
/// before the window is charged, turning the per-send dependent-miss
/// chain into memory-level-parallel misses. 64 lines stay well within
/// L1.
const WARM_WINDOW: usize = 64;

/// The derived 64-bit identity of a directed link: seeds the link's RNG
/// substream and places the link in the [`LinkTable`].
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
            link_seed: DetRng::new(seed)
                .substream("transport")
                .substream("link")
                .seed(),
            links: LinkTable::new(),
            partition: PartitionMatrix::default(),
            stats: TransportStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// The monomorphic single-send core shared by [`Transport::send`]
    /// and [`Transport::send_batch`]; `hash` is the pair's [`pair_mix`].
    #[inline]
    fn send_one(
        &mut self,
        src: NodeAddr,
        dst: NodeAddr,
        class: MessageClass,
        hash: u64,
    ) -> Delivery {
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
        // One independent generator per directed link, seeded from the
        // pair — stable no matter in which order links first carry
        // traffic.
        let (latency, attempts) = self.links.with_link(
            src,
            dst,
            hash,
            self.link_seed,
            |rng| policy.latency.sample_base(rng),
            |rng, base| {
                // Transient loss: each transmission drops independently;
                // after max_retries losses the final transmission goes
                // through.
                let mut attempts = 1u32;
                while attempts <= policy.max_retries && rng.gen_bool(policy.drop_probability) {
                    attempts += 1;
                }
                let latency = policy.retry_timeout * u64::from(attempts - 1)
                    + policy.latency.sample(base, rng);
                (latency, attempts)
            },
        );
        self.stats.messages += 1;
        self.stats.per_class[class.index()] += 1;
        self.stats.retransmissions += u64::from(attempts - 1);
        self.stats.total_latency_us += latency.as_micros();
        Delivery::Delivered { latency, attempts }
    }
}

impl Transport for LinkTransport {
    fn send(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery {
        self.send_one(src, dst, class, pair_mix(src, dst))
    }

    /// Per [`WARM_WINDOW`] window, first hash every send's pair and read
    /// its home slot in a tight loop — the reads are independent, so
    /// their cache misses overlap — then charge the window in order with
    /// the hashes already computed, each lookup finding its line in L1.
    /// Draw order per link and stats totals are exactly the sequential
    /// loop's (same calls, same order). The warm window is the
    /// transport's share of what charging probes in one pass per flush
    /// saves over sending each on its own.
    fn send_batch(&mut self, sends: &[SendSpec], out: &mut Vec<Delivery>) {
        out.clear();
        out.reserve(sends.len());
        let mut hashes = [0u64; WARM_WINDOW];
        for window in sends.chunks(WARM_WINDOW) {
            for (s, hash) in window.iter().zip(&mut hashes) {
                *hash = pair_mix(s.src, s.dst);
                if s.src != s.dst {
                    std::hint::black_box(self.links.touch(*hash));
                }
            }
            for (s, &hash) in window.iter().zip(&hashes) {
                let d = self.send_one(s.src, s.dst, s.class, hash);
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
    use clash_simkernel::collections::ShardedMap;
    use proptest::prelude::*;

    use super::*;
    use crate::policy::LatencyModel;

    /// The per-link state of the reference table.
    #[derive(Debug)]
    struct RefLinkState {
        rng: DetRng,
        base: SimDuration,
    }

    /// The link table [`LinkTable`] replaced, kept as the differential
    /// reference: a sharded hashed map from `(src, dst)` to a `DetRng`
    /// substream forked per link from the transport root, with every draw
    /// made through the `DetRng` helpers.
    #[derive(Debug)]
    struct RefLinkTransport {
        policy: LinkPolicy,
        root: DetRng,
        links: ShardedMap<(NodeAddr, NodeAddr), RefLinkState>,
        partition: PartitionMatrix,
        stats: TransportStats,
    }

    impl RefLinkTransport {
        fn new(policy: LinkPolicy, seed: u64) -> Self {
            RefLinkTransport {
                policy,
                root: DetRng::new(seed).substream("transport"),
                links: ShardedMap::new(),
                partition: PartitionMatrix::default(),
                stats: TransportStats::default(),
            }
        }
    }

    impl Transport for RefLinkTransport {
        fn send(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery {
            if src == dst {
                self.stats.messages += 1;
                self.stats.per_class[class.index()] += 1;
                return Delivery::Delivered {
                    latency: SimDuration::ZERO,
                    attempts: 1,
                };
            }
            if !self.partition.connected(src, dst) {
                self.stats.unreachable += 1;
                return Delivery::Unreachable {
                    attempts: self.policy.max_retries + 1,
                };
            }
            let policy = self.policy;
            let root = &self.root;
            let pair = pair_mix(src, dst);
            let link = self
                .links
                .shard_mut(pair)
                .entry((src, dst))
                .or_insert_with(|| {
                    let mut rng = root.substream_indexed("link", pair);
                    let base = policy.latency.sample_base(&mut rng);
                    RefLinkState { rng, base }
                });
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

        fn set_policy(&mut self, policy: LinkPolicy) {
            self.policy = policy;
        }
    }

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
        // A link first used after every sub-table has doubled several
        // times gets the base and the draws it gets on a fresh transport.
        let lossy = LinkPolicy::lossy_wan(0.3);
        let mut fresh = LinkTransport::new(lossy, 5);
        let mut grown = LinkTransport::new(lossy, 5);
        for i in 0..20_000u64 {
            grown.send(i, i + 7, MessageClass::Probe);
        }
        assert!(grown.links.subs.iter().all(|t| t.slots() >= MIN_SLOTS << 4));
        for _ in 0..50 {
            assert_eq!(
                fresh.send(100, 200, MessageClass::Probe),
                grown.send(100, 200, MessageClass::Probe),
                "a link's draws must not depend on when its table grew"
            );
        }
    }

    #[test]
    fn slots_are_two_per_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        let mut t = LinkTransport::new(LinkPolicy::wan(), 1);
        for i in 0..5_000u64 {
            t.send(i, i + 1, MessageClass::Probe);
        }
        for sub in t.links.subs.iter() {
            assert!(sub.slots() > MIN_SLOTS, "every sub-table grew");
            assert!(sub.at(sub.slots()) <= sub.words.len());
            for i in 0..sub.slots() {
                let addr = &sub.words[sub.at(i)] as *const u64 as usize;
                let last = &sub.words[sub.at(i) + SLOT_WORDS - 1] as *const u64 as usize;
                assert_eq!(addr / 64, last / 64, "slot {i} straddles a line");
                assert_eq!(
                    addr % 64,
                    i % 2 * 32,
                    "slot {i} is not half {} of a line",
                    i % 2
                );
            }
        }
    }

    /// Mean slots and mean 64-byte lines read per lookup over every
    /// stored link (1 = found in its home slot, on its home line).
    fn mean_probes(table: &LinkTable) -> (f64, f64) {
        let slots_per_line = LINE_WORDS / SLOT_WORDS;
        let (mut probes, mut lines, mut links) = (0, 0, 0);
        for t in table.subs.iter() {
            for i in 0..t.slots() {
                let (src, dst) = (t.words[t.at(i)], t.words[t.at(i) + 1]);
                if src != dst {
                    let home = t.home(pair_mix(src, dst));
                    probes += (i.wrapping_sub(home) & t.mask) + 1;
                    let line_mask = t.slots() / slots_per_line - 1;
                    lines +=
                        ((i / slots_per_line).wrapping_sub(home / slots_per_line) & line_mask) + 1;
                    links += 1;
                }
            }
        }
        (probes as f64 / links as f64, lines as f64 / links as f64)
    }

    #[test]
    fn fill_stays_under_seven_eighths_with_short_probes() {
        // 200 099 pairs of small dense ids: the structured keys a weak
        // hash would cluster worst.
        let mut table = LinkTable::new();
        let pairs = || (0..500u64).flat_map(|s| (0..401u64).map(move |d| (s, d)));
        let mut n = 0;
        for (src, dst) in pairs().filter(|(s, d)| s != d) {
            table.with_link(
                src,
                dst,
                pair_mix(src, dst),
                0,
                |_| SimDuration::ZERO,
                |_, _| (),
            );
            n += 1;
        }
        assert_eq!(table.len(), n);
        for t in table.subs.iter() {
            assert!(t.len * 8 <= t.slots() * 7, "over 7/8 full");
            assert!(t.len * 16 > t.slots() * 7, "grew past 7/16 load");
        }
        // Linear probing expects ½(1 + 1/(1 − α)) slots read per hit:
        // 4.5 at the 7/8 cap, ≈ 2.6 at this fill's α ≈ 0.76. Two slots
        // share a line and a probe starts on either half, so a hit of L
        // slots reads (L + 1)/2 lines on average: 1.81 measured.
        let (slots, lines) = mean_probes(&table);
        assert!(slots <= 4.0, "mean probe length {slots} slots");
        assert!(lines <= 2.5, "mean probe length {lines} lines");
        // Every link is found again, none re-created.
        for (src, dst) in pairs().filter(|(s, d)| s != d) {
            let hash = pair_mix(src, dst);
            let t = &table.subs[LinkTable::sub_of(hash)];
            let w = t.probe(src, dst, hash);
            assert_eq!((t.words[w], t.words[w + 1]), (src, dst));
            table.with_link(src, dst, hash, 0, |_| unreachable!(), |_, _| ());
        }
        assert_eq!(table.len(), n);
    }

    #[test]
    fn self_and_refused_sends_create_no_slot() {
        let mut t = LinkTransport::new(LinkPolicy::lossy_wan(0.2), 13);
        t.partition(&[vec![1, 2], vec![3, 4]]);
        for _ in 0..3 {
            assert!(t.send(1, 1, MessageClass::Probe).is_delivered());
            assert!(!t.send(1, 3, MessageClass::Probe).is_delivered());
        }
        let spec = |src, dst| SendSpec {
            src,
            dst,
            class: MessageClass::Handoff,
        };
        let mut out = Vec::new();
        t.send_batch(&[spec(5, 5), spec(4, 2), spec(0, 0)], &mut out);
        assert_eq!(t.links.len(), 0);
        assert_eq!(t.stats().unreachable, 4);
        assert_eq!(t.stats().messages, 5);
        t.send(1, 2, MessageClass::Probe);
        assert_eq!(t.links.len(), 1);
        t.heal();
        t.send_batch(&[spec(1, 3), spec(1, 3), spec(3, 3)], &mut out);
        assert_eq!(t.links.len(), 2);
    }

    /// The `meta` word of link `src → dst`'s slot.
    fn meta_of(t: &LinkTransport, src: NodeAddr, dst: NodeAddr) -> u64 {
        let hash = pair_mix(src, dst);
        let sub = &t.links.subs[LinkTable::sub_of(hash)];
        let w = sub.probe(src, dst, hash);
        assert_eq!((sub.words[w], sub.words[w + 1]), (src, dst), "no such link");
        sub.words[w + 2]
    }

    #[test]
    fn promotion_boundary_matches_reference() {
        // Exactly one raw draw per send and none on first use: a uniform
        // per-message delay and no retries.
        let one_draw = LinkPolicy {
            latency: LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(9),
            },
            drop_probability: 0.0,
            retry_timeout: SimDuration::ZERO,
            max_retries: 0,
        };
        let mut table = LinkTransport::new(one_draw, 19);
        let mut reference = RefLinkTransport::new(one_draw, 19);
        // Links 1, 2 and 3 → 100 end at HOT_DRAWS − 1, HOT_DRAWS and
        // HOT_DRAWS + 1 raw draws.
        for (src, draws) in [(1, HOT_DRAWS - 1), (2, HOT_DRAWS), (3, HOT_DRAWS + 1)] {
            for _ in 0..draws {
                assert_eq!(
                    table.send(src, 100, MessageClass::Probe),
                    reference.send(src, 100, MessageClass::Probe)
                );
            }
        }
        assert_eq!(
            meta_of(&table, 1, 100),
            HOT_DRAWS - 1,
            "cold, one draw short"
        );
        assert_eq!(meta_of(&table, 2, 100), HOT_DRAWS, "cold at the boundary");
        assert_eq!(meta_of(&table, 3, 100), HOT_TAG, "hot link 0");
        assert_eq!(table.links.hot_links(), 1);
        // 50 more sends each with loss and jitter: every link resumes
        // exactly where the reference's generator stands.
        let lossy = LinkPolicy::lossy_wan(0.3);
        table.set_policy(lossy);
        reference.set_policy(lossy);
        for _ in 0..50 {
            for src in 1..=3 {
                assert_eq!(
                    table.send(src, 100, MessageClass::Probe),
                    reference.send(src, 100, MessageClass::Probe)
                );
            }
        }
        assert_eq!(table.links.hot_links(), 3, "each link promoted once");
        assert_eq!(table.stats(), reference.stats());
    }

    #[test]
    fn table_bytes_are_pinned() {
        // 1 000 `wan()` links sent on once (3 raw draws each, cold), of
        // which 100 are sent on eight more times (19 draws, hot).
        let mut t = LinkTransport::new(LinkPolicy::wan(), 7);
        for i in 0..1_000u64 {
            t.send(i, i + 1, MessageClass::Probe);
        }
        for _ in 0..8 {
            for i in 0..100u64 {
                t.send(i, i + 1, MessageClass::Probe);
            }
        }
        assert_eq!(t.links.len(), 1_000);
        assert_eq!(t.links.hot_links(), 100);
        let slots: usize = t.links.subs.iter().map(SubTable::slots).sum();
        assert_eq!(t.links.bytes(), 32 * slots + 32 * 100);
        // 1 664 slots and 100 hot links: 53 248 + 3 200 bytes, where a
        // slot holding every generator's state took 106 496.
        assert_eq!(slots, 1_664);
        assert_eq!(t.links.bytes(), 56_448);
    }

    /// Busy nodes of the differential run: `0..BUSY`, partitioned and
    /// sent between again and again. Other nodes are never listed in an
    /// island.
    const BUSY: u64 = 64;

    /// The `k`-th first-use pair of the differential run: even `k` two
    /// random 64-bit ids, odd `k` a cell of a dense grid.
    fn cold_pair(seed: u64, k: u64) -> (NodeAddr, NodeAddr) {
        if k.is_multiple_of(2) {
            (splitmix64_mix(seed ^ k), splitmix64_mix(!seed ^ k))
        } else {
            (1_000 + k / 2 % 1_000, 2_000_000 + k / 2 / 1_000)
        }
    }

    /// Refills `sends` with `n` sends drawn from `r`: about three in four
    /// on a fresh cold pair, the rest between busy nodes, self-sends
    /// included.
    fn fill(sends: &mut Vec<SendSpec>, seed: u64, mut r: u64, n: usize, cold: &mut u64) {
        sends.clear();
        for _ in 0..n {
            r = splitmix64_mix(r);
            let (src, dst) = if !r.is_multiple_of(4) {
                *cold += 1;
                cold_pair(seed, *cold - 1)
            } else if r >> 60 == 0 {
                (r >> 8 & (BUSY - 1), r >> 8 & (BUSY - 1))
            } else {
                (r >> 8 & (BUSY - 1), r >> 16 & (BUSY - 1))
            };
            let class = MessageClass::ALL[(r >> 32) as usize % MessageClass::ALL.len()];
            sends.push(SendSpec { src, dst, class });
        }
    }

    fn policy_of(r: u64) -> LinkPolicy {
        match r % 6 {
            0 => LinkPolicy::wan(),
            1 => LinkPolicy::lossy_wan(0.3),
            2 => LinkPolicy::lan(),
            3 => LinkPolicy::instant(),
            4 => LinkPolicy {
                latency: LatencyModel::Constant(SimDuration::from_millis(3)),
                drop_probability: 0.6,
                retry_timeout: SimDuration::from_millis(50),
                max_retries: 7,
            },
            _ => LinkPolicy {
                latency: LatencyModel::Wan {
                    base_lo: SimDuration::from_millis(1),
                    base_hi: SimDuration::from_millis(900),
                    jitter_mean: SimDuration::ZERO,
                },
                ..LinkPolicy::lossy_wan(0.05)
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The link table against the sharded-map reference it replaced:
        /// random interleavings of `send`, `send_batch`, `partition`,
        /// `heal` and `set_policy` over at least 100 000 first-use pairs
        /// (every sub-table doubles at least eight times), with equal
        /// deliveries and stats after every call, equal link counts, and
        /// equal draws on later traffic over the links — cold and hot,
        /// and links promoted under each policy variant after a
        /// `set_policy` that followed their creation.
        #[test]
        fn link_table_matches_sharded_reference(
            seed in any::<u64>(),
            ops in prop::collection::vec((0u8..13, any::<u64>()), 40..64),
        ) {
            let policy = policy_of(seed);
            let mut table = LinkTransport::new(policy, seed);
            let mut reference = RefLinkTransport::new(policy, seed);
            let mut cold = 0u64;
            let mut sends = Vec::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (op, r) in ops {
                match op {
                    0..=7 => {
                        fill(&mut sends, seed, r, 1 + r as usize % 4096, &mut cold);
                        table.send_batch(&sends, &mut got);
                        reference.send_batch(&sends, &mut want);
                        prop_assert_eq!(&got, &want);
                    }
                    8 | 9 => {
                        fill(&mut sends, seed, r, 256, &mut cold);
                        for s in &sends {
                            prop_assert_eq!(
                                table.send(s.src, s.dst, s.class),
                                reference.send(s.src, s.dst, s.class)
                            );
                        }
                    }
                    10 => {
                        let mut islands = vec![Vec::new(); 4];
                        for node in 0..BUSY {
                            islands[(r >> (node % 32 * 2) & 3) as usize].push(node);
                        }
                        table.partition(&islands);
                        reference.partition(&islands);
                    }
                    11 => {
                        table.heal();
                        reference.heal();
                    }
                    _ => {
                        table.set_policy(policy_of(r));
                        reference.set_policy(policy_of(r));
                    }
                }
                prop_assert_eq!(table.stats(), reference.stats());
            }
            let mut r = seed;
            while cold < 100_000 {
                r = splitmix64_mix(r);
                fill(&mut sends, seed, r, 4096, &mut cold);
                table.send_batch(&sends, &mut got);
                reference.send_batch(&sends, &mut want);
                prop_assert_eq!(&got, &want);
            }
            prop_assert_eq!(table.stats(), reference.stats());
            prop_assert_eq!(table.links.len(), reference.links.len());
            prop_assert!(table.links.len() as u64 >= cold);
            // Later traffic on every busy link and every seventh cold one.
            table.heal();
            reference.heal();
            table.set_policy(LinkPolicy::lossy_wan(0.3));
            reference.set_policy(LinkPolicy::lossy_wan(0.3));
            sends.clear();
            for k in (0..cold).step_by(7) {
                let (src, dst) = cold_pair(seed, k);
                sends.push(SendSpec { src, dst, class: MessageClass::Probe });
            }
            for src in 0..BUSY {
                for dst in 0..BUSY {
                    sends.push(SendSpec { src, dst, class: MessageClass::Probe });
                }
            }
            table.send_batch(&sends, &mut got);
            reference.send_batch(&sends, &mut want);
            prop_assert_eq!(&got, &want);
            // Under each policy variant in turn, a band of 256 fresh
            // links — created under the policy in force before the
            // switch — is driven past HOT_DRAWS. Every variant but
            // `instant()` draws at least once per send; `instant()`
            // draws nothing and promotes nothing.
            let mut bands = Vec::new();
            for v in 0..6u64 {
                let band: Vec<SendSpec> = (0..256)
                    .map(|i| SendSpec {
                        src: (v + 1) << 40 | i,
                        dst: (v + 1) << 40 | (1_000 + i),
                        class: MessageClass::Probe,
                    })
                    .collect();
                table.send_batch(&band, &mut got);
                reference.send_batch(&band, &mut want);
                prop_assert_eq!(&got, &want);
                table.set_policy(policy_of(v));
                reference.set_policy(policy_of(v));
                let hot = table.links.hot_links();
                for _ in 0..=HOT_DRAWS {
                    table.send_batch(&band, &mut got);
                    reference.send_batch(&band, &mut want);
                    prop_assert_eq!(&got, &want);
                }
                let promoted = table.links.hot_links() - hot;
                prop_assert_eq!(promoted, if v == 3 { 0 } else { band.len() });
                bands.extend(band);
            }
            // Each band link resumes from its stored state.
            table.set_policy(LinkPolicy::lossy_wan(0.3));
            reference.set_policy(LinkPolicy::lossy_wan(0.3));
            for _ in 0..3 {
                table.send_batch(&bands, &mut got);
                reference.send_batch(&bands, &mut want);
                prop_assert_eq!(&got, &want);
            }
            prop_assert_eq!(table.stats(), reference.stats());
            prop_assert_eq!(table.links.len(), reference.links.len());
        }
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
