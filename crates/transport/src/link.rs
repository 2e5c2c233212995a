//! The full latency/loss/partition transport.
//!
//! Every directed link draws from its own generator, seeded from the
//! pair. The link table gives every address a dense index on first sight
//! and keeps each sender's links in a small table of its own, one 8-byte
//! slot per link keyed by the receiver's index. A link that has drawn
//! little is replayed from its seed on each send, its base delay
//! included; only links that carry traffic store their generator state.

use std::collections::BTreeMap;

use clash_simkernel::rng::{
    indexed_seed, splitmix64_mix, DetRng, Rng, RngCore, SeedableRng, SmallRng,
};
use clash_simkernel::time::SimDuration;

use crate::policy::{LatencyModel, LinkPolicy};
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

/// Slots a table starts with (a power of two): for a sender's table, one
/// 64-byte line of 8-byte slots.
const MIN_SLOTS: usize = 8;

/// Raw draws a link makes before its generator state is stored instead
/// of replayed. A **cold** link (at most this many draws so far) keeps
/// only its draw count and the index of its base's latency model; each
/// send re-seeds its generator, re-draws its base and steps on to the
/// count. A send that takes a link past this count promotes it, once, to
/// a **hot** link with its 32-byte state and its base in
/// [`LinkTable::hot`]. A `wan()` link draws its base on first use and
/// two words per send, so it turns hot on its eighth send.
///
/// Chosen from measurements taken on the earlier layout of 32-byte
/// address-keyed slots that stored every link's base (medians of ten runs
/// per value, default seed, default reps, copies of the three binaries
/// run in turn, 2-vCPU Xeon). The counts are per repetition, of the
/// 1 745 846 (`churn_wan_seq`) and 438 872 (`storm_lossy`) sends that
/// reach a link; replay steps are the generator steps cold sends re-run.
/// The hot-link and replay counts depend only on the traffic, so they
/// hold for every layout; the peaks do not.
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
/// 16 had the lowest peak on both workloads. Events/s did not separate
/// the three beyond run-to-run noise (quartiles ≈ 10 % apart), and 32
/// re-runs 2–3× the replay steps of 16.
///
/// Re-run on the per-sender layout (medians of ten rounds of the three
/// builds in turn, `--reps 3`, same host), `peak_rss_mb` for 8 / 16 / 32
/// read 14.84 / 14.58 / 15.18 on `churn_wan_seq` and 16.94 / 16.20 /
/// 15.22 on `storm_lossy`, and events/s again stayed inside each other's
/// quartiles. 16 stays: it is lowest on the workload with the most
/// links, and 32 still re-runs 2–3× its replay steps.
const HOT_DRAWS: u64 = 16;

/// Set in a hot link's `meta`; the other bits index [`LinkTable::hot`].
const HOT_TAG: u32 = 1 << 31;

/// The low bits of a cold link's `meta`, which hold its raw draw count
/// (at most [`HOT_DRAWS`]). The bits above them, up to [`HOT_TAG`], hold
/// the index in [`LinkTable::models`] of the latency model in force at
/// the link's first send.
const DRAW_BITS: u32 = 5;
const _: () = assert!(HOT_DRAWS < 1 << DRAW_BITS);

/// Distinct latency models a transport can run under: the indices a cold
/// link's `meta` has room for.
const MAX_MODELS: usize = (HOT_TAG >> DRAW_BITS) as usize;

/// A link's generator for the length of one send, counting its raw
/// draws. Every sampler draws through [`RngCore::next_u64`], so the
/// count is exactly the steps the bare generator took.
#[derive(Debug)]
struct LinkRng {
    rng: SmallRng,
    draws: u64,
}

impl LinkRng {
    /// The fresh generator of the link whose seed is `seed`.
    fn new(seed: u64) -> Self {
        LinkRng {
            rng: SmallRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// Steps on until `draws` raw draws in.
    fn skip_to(&mut self, draws: u64) {
        while self.draws < draws {
            self.next_u64();
        }
    }
}

impl RngCore for LinkRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// The home slot of `key` in a table of `slots` slots (a power of two):
/// the top bits of its Fibonacci product, which spread dense keys evenly.
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - slots.trailing_zeros())) as usize
}

/// The endpoint interner: gives every address the next dense index on
/// first sight. Open addressing over `(addr, index + 1)` pairs, probed
/// linearly from the address's [`home`] and at most ½ full; a pair
/// `(_, 0)` is an empty slot, so every address, 0 included, can be
/// stored. An index is never reused or forgotten: an address that
/// departs and later sends again resumes its links' streams.
#[derive(Debug)]
struct Endpoints {
    /// A power of two of slots.
    slots: Vec<(NodeAddr, u32)>,
    /// Addresses interned, which is the next index.
    len: u32,
}

impl Endpoints {
    fn new() -> Self {
        Endpoints {
            slots: vec![(0, 0); MIN_SLOTS],
            len: 0,
        }
    }

    /// The slot holding `addr`, or the empty slot where it belongs.
    fn probe(&self, addr: NodeAddr) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = home(addr, self.slots.len());
        loop {
            let (a, key) = self.slots[i];
            if key == 0 || a == addr {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// `addr`'s index, assigning the next one on its first sight.
    #[inline]
    fn intern(&mut self, addr: NodeAddr) -> u32 {
        let i = self.probe(addr);
        match self.slots[i].1.checked_sub(1) {
            Some(index) => index,
            None => self.insert(addr),
        }
    }

    /// Gives `addr`, seen for the first time, the next index.
    ///
    /// # Panics
    ///
    /// Panics on the 2³²-th address, whose index + 1 would not fit 32
    /// bits; the interner would hold 128 GiB by then.
    #[cold]
    fn insert(&mut self, addr: NodeAddr) -> u32 {
        if (self.len as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.probe(addr);
        let index = self.len;
        self.len = self
            .len
            .checked_add(1)
            .expect("an address index + 1 fits 32 bits: 2^32 addresses take a 128 GiB interner");
        self.slots[i] = (addr, self.len);
        index
    }

    /// Doubles the slots, re-placing every address by its hash.
    fn grow(&mut self) {
        let slots = vec![(0, 0); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, slots);
        for (addr, key) in old.into_iter().filter(|&(_, key)| key != 0) {
            let i = self.probe(addr);
            self.slots[i] = (addr, key);
        }
    }

    /// `addr`'s index, if interned.
    #[cfg(test)]
    fn get(&self, addr: NodeAddr) -> Option<u32> {
        self.slots[self.probe(addr)].1.checked_sub(1)
    }
}

/// One sender's links: open addressing over 8-byte slots keyed by the
/// receiver's index, probed linearly from its [`home`], a power of two of at least [`MIN_SLOTS`] slots and at most ¾ full. A
/// slot is the receiver's index + 1 in its low half and the link's `meta`
/// in its high half, so no slot stores an address and 0 is an empty
/// slot. A table holds no slots until its address first sends.
#[derive(Debug, Default)]
struct SenderTable {
    slots: Box<[u64]>,
    /// Occupied slots.
    len: u32,
}

impl SenderTable {
    /// The home slot of receiver key `key` (its index + 1). The table
    /// must hold slots.
    fn home(&self, key: u32) -> usize {
        home(u64::from(key), self.slots.len())
    }

    /// The slot holding the link to receiver key `key`, or the empty slot
    /// where it belongs. The table must hold slots.
    fn probe(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot == 0 || slot as u32 == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slots, or allocates the first line, re-placing every
    /// link by its key.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; slots].into_boxed_slice());
        for &slot in old.iter().filter(|&&slot| slot != 0) {
            let i = self.probe(slot as u32);
            self.slots[i] = slot;
        }
    }
}

/// Every directed link that ever carried a message. A link is one 8-byte
/// slot in its sender's [`SenderTable`], plus, for the few links that
/// carry traffic ([`HOT_DRAWS`]), 40 bytes of generator state and base
/// delay in [`LinkTable::hot`]. Most links carry one or two messages
/// (owner → entry responses): storing each one's 32-byte generator state
/// doubled the table, while replaying it costs a seed and at most
/// [`HOT_DRAWS`] generator steps per send.
///
/// A sender is implicit in which table holds a slot, and a cold link's
/// base is re-drawn from its seed under the model its first send ran
/// under, so no slot stores an address or a base. Each sender's table
/// grows on its own, so the rehash peak is one sender's table. A link's
/// draws depend only on its pair and that model, so where its slot sits
/// cannot change any delivery.
#[derive(Debug)]
struct LinkTable {
    endpoints: Endpoints,
    /// Every interned address's table, by index.
    senders: Vec<SenderTable>,
    /// `[s0, s1, s2, s3, base_us]`: the xoshiro256++ state
    /// ([`SmallRng::state`]) and base delay in µs of every hot link, in
    /// promotion order; a hot slot's `meta` is its index here under
    /// [`HOT_TAG`].
    hot: Vec<[u64; 5]>,
    /// Every distinct latency model the transport has run under, in order
    /// of first use: `new`'s, then each new one `set_policy` brings.
    models: Vec<LatencyModel>,
    /// The index in `models` of the one in force.
    model: u32,
}

impl LinkTable {
    fn new(latency: LatencyModel) -> Self {
        LinkTable {
            endpoints: Endpoints::new(),
            senders: Vec::new(),
            hot: Vec::new(),
            models: vec![latency],
            model: 0,
        }
    }

    /// Puts `latency` in force for the links first used from now on.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_MODELS`] distinct models.
    fn set_model(&mut self, latency: LatencyModel) {
        let index = match self.models.iter().position(|&m| m == latency) {
            Some(index) => index,
            None => {
                assert!(
                    self.models.len() < MAX_MODELS,
                    "a cold link's meta indexes at most 2^26 distinct latency models"
                );
                self.models.push(latency);
                self.models.len() - 1
            }
        };
        self.model = index as u32;
    }

    /// `addr`'s index, interning it (with an empty table) on first sight.
    #[inline]
    fn intern(&mut self, addr: NodeAddr) -> u32 {
        let index = self.endpoints.intern(addr);
        if index as usize == self.senders.len() {
            self.senders.push(SenderTable::default());
        }
        index
    }

    /// Reads the home slot of link `src → dst` (interned indices): the
    /// line its lookup starts on.
    fn touch(&self, src: u32, dst: u32) -> u64 {
        let t = &self.senders[src as usize];
        if t.slots.is_empty() {
            0
        } else {
            t.slots[t.home(dst + 1)]
        }
    }

    /// Runs `send` on link `src → dst`'s generator and base delay, its
    /// ends given as interned indices, and stores the generator back.
    /// `seed` gives the link's generator seed; a hot link never calls it.
    /// On the link's first use its base is drawn from the fresh generator
    /// by the model in force, and each cold send re-draws it with that
    /// same model, so a later model change cannot move it.
    fn with_link<T>(
        &mut self,
        src: u32,
        dst: u32,
        seed: impl FnOnce() -> u64,
        send: impl FnOnce(&mut LinkRng, SimDuration) -> T,
    ) -> T {
        let t = &mut self.senders[src as usize];
        if t.slots.is_empty() {
            t.grow();
        }
        let key = dst + 1;
        let mut i = t.probe(key);
        let meta = (t.slots[i] >> 32) as u32;
        let (mut rng, base, model) = if t.slots[i] == 0 {
            // An empty slot: the link's first use.
            if (t.len as usize + 1) * 4 > t.slots.len() * 3 {
                t.grow();
                i = t.probe(key);
            }
            t.len += 1;
            let mut rng = LinkRng::new(seed());
            let base = self.models[self.model as usize].sample_base(&mut rng);
            (rng, base, self.model)
        } else if meta & HOT_TAG == 0 {
            let model = meta >> DRAW_BITS;
            let mut rng = LinkRng::new(seed());
            let base = self.models[model as usize].sample_base(&mut rng);
            rng.skip_to(u64::from(meta & ((1 << DRAW_BITS) - 1)));
            (rng, base, model)
        } else {
            // A hot link's draws are no longer counted.
            let h = self.hot[(meta & !HOT_TAG) as usize];
            let rng = LinkRng {
                rng: SmallRng::from_state([h[0], h[1], h[2], h[3]]),
                draws: 0,
            };
            (rng, SimDuration::from_micros(h[4]), 0)
        };
        let out = send(&mut rng, base);
        let [s0, s1, s2, s3] = rng.rng.state();
        let meta = if meta & HOT_TAG != 0 {
            self.hot[(meta & !HOT_TAG) as usize] = [s0, s1, s2, s3, base.as_micros()];
            meta
        } else if rng.draws > HOT_DRAWS {
            let index = u32::try_from(self.hot.len())
                .ok()
                .filter(|&index| index < HOT_TAG)
                .expect("a hot index fits 31 bits: 2^31 hot links take 80 GiB");
            self.hot.push([s0, s1, s2, s3, base.as_micros()]);
            HOT_TAG | index
        } else {
            model << DRAW_BITS | rng.draws as u32
        };
        t.slots[i] = u64::from(key) | u64::from(meta) << 32;
        out
    }

    /// The table's heap bytes, from lengths and capacities: the
    /// interner's slots, a [`SenderTable`] per address, 8 per slot, 40
    /// per hot link and the model list, spare `Vec` capacity included.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self.senders.iter().map(|t| t.slots.len()).sum();
        size_of::<(NodeAddr, u32)>() * self.endpoints.slots.capacity()
            + size_of::<SenderTable>() * self.senders.capacity()
            + size_of::<u64>() * slots
            + size_of::<[u64; 5]>() * self.hot.capacity()
            + size_of::<LatencyModel>() * self.models.capacity()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.senders.iter().map(|t| t.len as usize).sum()
    }

    #[cfg(test)]
    fn hot_links(&self) -> usize {
        self.hot.len()
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
/// substream.
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
            links: LinkTable::new(policy.latency),
            partition: PartitionMatrix::default(),
            stats: TransportStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// The monomorphic single-send core shared by [`Transport::send`]
    /// and [`Transport::send_batch`]; `ends` are the interned indices of
    /// `src` and `dst`, unread for a self-send.
    #[inline]
    fn send_one(
        &mut self,
        src: NodeAddr,
        dst: NodeAddr,
        class: MessageClass,
        ends: (u32, u32),
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
        let link_seed = self.link_seed;
        // One independent generator per directed link, seeded from the
        // pair — stable no matter in which order links first carry
        // traffic.
        let (latency, attempts) = self.links.with_link(
            ends.0,
            ends.1,
            || indexed_seed(link_seed, pair_mix(src, dst)),
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
        let ends = if src == dst {
            (0, 0)
        } else {
            (self.links.intern(src), self.links.intern(dst))
        };
        self.send_one(src, dst, class, ends)
    }

    /// Per [`WARM_WINDOW`] window, first intern every send's endpoints
    /// and read its home slot in its sender's table in a tight loop — the
    /// reads are independent, so their cache misses overlap — then charge
    /// the window in order with the indices already found, each lookup
    /// finding its line in L1. A leg of a routed chain starts where the
    /// last one ended, so its sender's index is the last receiver's.
    /// Draw order per link and stats totals are exactly the sequential
    /// loop's (same calls, same order). The warm window is the
    /// transport's share of what charging probes in one pass per flush
    /// saves over sending each on its own.
    fn send_batch(&mut self, sends: &[SendSpec], out: &mut Vec<Delivery>) {
        out.clear();
        out.reserve(sends.len());
        let mut ends = [(0u32, 0u32); WARM_WINDOW];
        // The last receiver interned: its address and index.
        let mut last: Option<(NodeAddr, u32)> = None;
        for window in sends.chunks(WARM_WINDOW) {
            for (s, e) in window.iter().zip(&mut ends) {
                if s.src == s.dst {
                    continue;
                }
                let src = match last {
                    Some((addr, index)) if addr == s.src => index,
                    _ => self.links.intern(s.src),
                };
                let dst = self.links.intern(s.dst);
                last = Some((s.dst, dst));
                *e = (src, dst);
                std::hint::black_box(self.links.touch(src, dst));
            }
            for (s, &e) in window.iter().zip(&ends) {
                let d = self.send_one(s.src, s.dst, s.class, e);
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
        self.links.set_model(policy.latency);
        self.policy = policy;
    }

    fn island_of(&self, addr: NodeAddr) -> Option<u32> {
        self.partition
            .islands
            .as_ref()
            .map(|map| map.get(&addr).copied().unwrap_or(0))
    }

    fn heap_bytes(&self) -> u64 {
        self.links.bytes() as u64
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
        // A link first used after the interner and its sender's table
        // have doubled several times gets the base and the draws it gets
        // on a fresh transport.
        let lossy = LinkPolicy::lossy_wan(0.3);
        let mut fresh = LinkTransport::new(lossy, 5);
        let mut grown = LinkTransport::new(lossy, 5);
        for i in 0..20_000u64 {
            grown.send(i % 200, i + 7, MessageClass::Probe);
        }
        let links = &grown.links;
        assert!(links.endpoints.slots.len() >= MIN_SLOTS << 8);
        let sender = links.endpoints.get(100).expect("100 sent");
        assert!(links.senders[sender as usize].slots.len() >= MIN_SLOTS << 4);
        for _ in 0..50 {
            assert_eq!(
                fresh.send(100, 200, MessageClass::Probe),
                grown.send(100, 200, MessageClass::Probe),
                "a link's draws must not depend on when its table grew"
            );
        }
    }

    #[test]
    fn slots_are_eight_per_line() {
        // 50 senders with 100 links each, every receiver a 64-bit id.
        let mut t = LinkTransport::new(LinkPolicy::wan(), 1);
        for i in 0..5_000u64 {
            t.send(i % 50, u64::MAX - i, MessageClass::Probe);
        }
        let links = &t.links;
        assert_eq!(std::mem::size_of_val(&links.senders[0].slots[0]), 8);
        let receivers = links.endpoints.len;
        let mut sending = 0;
        for table in &links.senders {
            if table.slots.is_empty() {
                assert_eq!(table.len, 0, "a table holds slots once it sends");
                continue;
            }
            sending += 1;
            let slots = table.slots.len();
            assert!(
                slots.is_power_of_two() && slots > MIN_SLOTS,
                "{slots} slots"
            );
            assert!(table.len as usize * 4 <= slots * 3, "over 3/4 full");
            let occupied = table.slots.iter().filter(|&&slot| slot != 0);
            for &slot in occupied.clone() {
                // A receiver's index + 1 and a cold `meta`: no address.
                assert!((1..=receivers).contains(&(slot as u32)), "{slot:#x}");
                assert_eq!((slot >> 32) as u32 & HOT_TAG, 0);
            }
            assert_eq!(occupied.count(), table.len as usize);
        }
        assert_eq!(sending, 50);
        assert_eq!(links.len(), 5_000);
        // A sender of one link takes one line.
        t.send(70_000, 8, MessageClass::Probe);
        let sender = t.links.endpoints.get(70_000).expect("sent");
        assert_eq!(t.links.senders[sender as usize].slots.len() * 8, 64);
    }

    /// Mean slots read per lookup over every stored link (1 = found in
    /// its home slot).
    fn mean_probes(table: &LinkTable) -> f64 {
        let (mut probes, mut links) = (0, 0);
        for t in &table.senders {
            let mask = t.slots.len().wrapping_sub(1);
            for (i, &slot) in t.slots.iter().enumerate() {
                if slot != 0 {
                    probes += (i.wrapping_sub(t.home(slot as u32)) & mask) + 1;
                    links += 1;
                }
            }
        }
        probes as f64 / links as f64
    }

    #[test]
    fn fill_stays_under_three_quarters_with_short_probes() {
        // 200 099 pairs of small dense ids: the structured keys a weak
        // hash would cluster worst.
        let mut table = LinkTable::new(LatencyModel::Zero);
        let pairs = || (0..500u64).flat_map(|s| (0..401u64).map(move |d| (s, d)));
        let mut n = 0;
        for (src, dst) in pairs().filter(|(s, d)| s != d) {
            let (s, d) = (table.intern(src), table.intern(dst));
            table.with_link(s, d, || 0, |_, _| ());
            n += 1;
        }
        assert_eq!(table.len(), n);
        assert_eq!(table.endpoints.len, 500);
        assert_eq!(table.endpoints.slots.len(), 1_024, "at most 1/2 full");
        for t in &table.senders {
            assert!(t.len as usize * 4 <= t.slots.len() * 3, "over 3/4 full");
            assert!(t.len as usize * 8 > t.slots.len() * 3, "grew past 3/8 load");
        }
        // Linear probing expects ½(1 + 1/(1 − α)) slots read per hit:
        // 2.5 at the ¾ cap, ≈ 1.3 at this fill's α ≈ 0.39.
        let slots = mean_probes(&table);
        assert!(slots <= 1.5, "mean probe length {slots} slots");
        // Every link is found again, none re-created.
        for (src, dst) in pairs().filter(|(s, d)| s != d) {
            let s = table.endpoints.get(src).expect("interned");
            let d = table.endpoints.get(dst).expect("interned");
            let t = &table.senders[s as usize];
            assert_eq!(t.slots[t.probe(d + 1)] as u32, d + 1);
            table.with_link(s, d, || 0, |_, _| ());
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

    /// The `meta` half of link `src → dst`'s slot.
    fn meta_of(t: &LinkTransport, src: NodeAddr, dst: NodeAddr) -> u32 {
        let links = &t.links;
        let s = links.endpoints.get(src).expect("src interned");
        let d = links.endpoints.get(dst).expect("dst interned");
        let table = &links.senders[s as usize];
        let slot = table.slots[table.probe(d + 1)];
        assert_eq!(slot as u32, d + 1, "no such link");
        (slot >> 32) as u32
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
            u64::from(meta_of(&table, 1, 100)),
            HOT_DRAWS - 1,
            "cold, one draw short"
        );
        assert_eq!(
            u64::from(meta_of(&table, 2, 100)),
            HOT_DRAWS,
            "cold at the boundary"
        );
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
        // 1 000 `wan()` links, 40 senders × 25 receivers, sent on once (3
        // raw draws each, cold), of which 100 are sent on eight more
        // times (19 draws, hot).
        let mut t = LinkTransport::new(LinkPolicy::wan(), 7);
        let pair = |i: u64| (i % 40, 1_000 + i / 40);
        for i in 0..1_000 {
            let (src, dst) = pair(i);
            t.send(src, dst, MessageClass::Probe);
        }
        for _ in 0..8 {
            for i in 0..100 {
                let (src, dst) = pair(i);
                t.send(src, dst, MessageClass::Probe);
            }
        }
        let links = &t.links;
        assert_eq!(links.len(), 1_000);
        assert_eq!(links.hot_links(), 100);
        // 65 addresses in 256 interner slots (at most ½ full) and 65 table
        // headers; 40 tables of 25 links in 64 slots (at most ¾ full).
        assert_eq!(links.endpoints.slots.len(), 256);
        assert_eq!(links.senders.len(), 65);
        let slots: usize = links.senders.iter().map(|t| t.slots.len()).sum();
        assert_eq!(slots, 40 * 64);
        let bytes = 16 * links.endpoints.slots.capacity()
            + 24 * links.senders.capacity()
            + 8 * slots
            + 40 * links.hot.capacity()
            + 32 * links.models.capacity();
        assert_eq!(t.heap_bytes(), bytes as u64);
        // 4 096 + 3 072 + 20 480 + 5 120 + 32: 32.8 bytes per link, where
        // 32-byte address-keyed slots took 56 448 for this traffic.
        assert_eq!(t.heap_bytes(), 32_800);
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
        /// (the interner doubles at least fifteen times), with equal
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
    fn cold_link_keeps_its_first_use_base_across_a_base_range_change() {
        // Links first sent on under `Wan` 20–120 ms, then under `Wan`
        // 1–900 ms with zero jitter: still cold, each re-draws its base
        // on the next send, under the model of its first send.
        let wan = LinkPolicy::wan();
        let wide = LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(1),
                base_hi: SimDuration::from_millis(900),
                jitter_mean: SimDuration::ZERO,
            },
            ..wan
        };
        let mut t = LinkTransport::new(wan, 61);
        let mut reference = RefLinkTransport::new(wan, 61);
        for src in 1..=20 {
            assert_eq!(
                t.send(src, 100, MessageClass::Probe),
                reference.send(src, 100, MessageClass::Probe)
            );
        }
        t.set_policy(wide);
        reference.set_policy(wide);
        for src in 1..=20 {
            assert_eq!(meta_of(&t, src, 100) & HOT_TAG, 0, "cold");
            let base = t.send(src, 100, MessageClass::Probe);
            assert_eq!(base, reference.send(src, 100, MessageClass::Probe));
            let base = base.latency().expect("no partition");
            let first_range = SimDuration::from_millis(20)..=SimDuration::from_millis(120);
            assert!(first_range.contains(&base), "{base} outside 20–120 ms");
        }
        // A link first used under the wide model draws its base there.
        let mut wide_bases = (101..=120).map(|src| t.send(src, 100, MessageClass::Probe));
        assert!(wide_bases.any(|d| d.latency() > Some(SimDuration::from_millis(120))));
        assert_eq!(t.links.models, [wan.latency, wide.latency]);
        t.set_policy(wan);
        assert_eq!(
            t.links.models.len(),
            2,
            "a model seen before is not appended"
        );
    }

    #[test]
    fn interner_indices_are_dense_and_stable_across_growth() {
        // Dense ids and 64-bit ids, interleaved; 0 and u64::MAX are
        // addresses like any other.
        let addr = |k: u64| match k {
            0 => 0,
            1 => u64::MAX,
            _ if k.is_multiple_of(2) => k / 2,
            _ => splitmix64_mix(k),
        };
        let mut e = Endpoints::new();
        for k in 0..10_000u64 {
            assert_eq!(e.intern(addr(k)), k as u32, "the next index on first sight");
        }
        assert_eq!(e.slots.len(), 1 << 15, "at most 1/2 full");
        for k in 0..10_000u64 {
            assert_eq!(e.get(addr(k)), Some(k as u32), "stable across growth");
            assert_eq!(e.intern(addr(k)), k as u32);
        }
        assert_eq!(e.len, 10_000);
        assert_eq!(e.get(1 << 40), None);
    }

    #[test]
    fn receiver_that_later_sends_keeps_its_index() {
        let lossy = LinkPolicy::lossy_wan(0.3);
        let mut t = LinkTransport::new(lossy, 9);
        let mut reference = RefLinkTransport::new(lossy, 9);
        // 7 is first seen as a receiver: indexed, with no slots.
        assert_eq!(
            t.send(3, 7, MessageClass::Probe),
            reference.send(3, 7, MessageClass::Probe)
        );
        assert_eq!(t.links.endpoints.get(7), Some(1));
        assert!(t.links.senders[1].slots.is_empty());
        let spec = |src, dst| SendSpec {
            src,
            dst,
            class: MessageClass::Probe,
        };
        // A chain on from it, then back: 7 sends under its first index.
        let chain = [spec(7, 5), spec(5, 3), spec(3, 7), spec(7, 3)];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..20 {
            t.send_batch(&chain, &mut got);
            reference.send_batch(&chain, &mut want);
            assert_eq!(got, want);
        }
        assert_eq!(t.links.endpoints.get(7), Some(1));
        assert_eq!(t.links.endpoints.len, 3);
        assert_eq!(t.links.senders[1].len, 2, "7 → 5 and 7 → 3");
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.stats(), reference.stats());
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
