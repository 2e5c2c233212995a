//! The full latency/loss/partition transport.
//!
//! A link keeps no state. Each message's draws come from two keys:
//!
//! * its **link's**, `indexed_seed(link_seed, pair_mix(src, dst))`: the
//!   base delay is drawn from it, under the latency model in force;
//! * that key mixed with the **message's** own ([`crate::message_key`]:
//!   its chain ordinal and its leg within the chain): loss, retries and
//!   jitter are drawn from it.
//!
//! Both are [`KeyedRng`] streams, pure functions of their keys, so a
//! delivery depends only on the seed, the policy, the partition, the
//! link and the key — never on which links carried traffic first or in
//! which order a batch is charged.

use std::collections::BTreeMap;

use clash_simkernel::rng::{indexed_seed, splitmix64_mix, DetRng, KeyedRng, Rng};
use clash_simkernel::time::SimDuration;

use crate::policy::LinkPolicy;
use crate::{
    Chain, ChainOutcome, Delivery, MessageClass, NodeAddr, SendSpec, Transport, TransportStats,
};

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
/// link, with per-link and per-message keyed randomness and a severable
/// partition matrix.
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
    /// `policy`'s [`lossless_words`], worked out when it is set.
    lossless_words: Option<u64>,
    /// The seed of the transport's `"link"` keys, derived once: link
    /// `src → dst` has key `indexed_seed(link_seed, pair_mix(src, dst))`.
    link_seed: u64,
    /// Calls to [`Transport::send`] so far: the key of the next one.
    unkeyed: u64,
    partition: PartitionMatrix,
    stats: TransportStats,
}

/// The loss words a send under `policy` passes over when no
/// transmission can be lost. At drop probability 0 the retry loop reads
/// one word, which is never below 0, and stops — or reads none when
/// `max_retries` is 0 — so the jitter's word is the one after those.
/// `None`: the loop runs.
fn lossless_words(policy: &LinkPolicy) -> Option<u64> {
    (policy.drop_probability == 0.0).then_some(u64::from(policy.max_retries.min(1)))
}

/// The derived 64-bit identity of a directed link.
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
            lossless_words: lossless_words(&policy),
            link_seed: DetRng::new(seed)
                .substream("transport")
                .substream("link")
                .seed(),
            unkeyed: 0,
            partition: PartitionMatrix::default(),
            stats: TransportStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// Charges one send whose key is `key`.
    #[inline]
    fn send_one(&mut self, s: &SendSpec, key: u64) -> Delivery {
        if s.src == s.dst {
            // Local delivery: free, no randomness drawn.
            self.stats.messages += 1;
            self.stats.per_class[s.class.index()] += 1;
            return Delivery::Delivered {
                latency: SimDuration::ZERO,
                attempts: 1,
            };
        }
        if !self.partition.connected(s.src, s.dst) {
            let attempts = self.policy.max_retries + 1;
            self.stats.unreachable += 1;
            return Delivery::Unreachable { attempts };
        }
        let policy = self.policy;
        let link = indexed_seed(self.link_seed, pair_mix(s.src, s.dst));
        let base = policy.latency.sample_base(&mut KeyedRng::new(link));
        let rng = &mut KeyedRng::new(indexed_seed(link, key));
        // Transient loss: each transmission drops independently; after
        // max_retries losses the final transmission goes through.
        let mut attempts = 1u32;
        match self.lossless_words {
            Some(words) => rng.skip(words),
            None => {
                while attempts <= policy.max_retries && rng.gen_bool(policy.drop_probability) {
                    attempts += 1;
                }
            }
        }
        let latency =
            policy.retry_timeout * u64::from(attempts - 1) + policy.latency.sample(base, rng);
        self.stats.messages += 1;
        self.stats.per_class[s.class.index()] += 1;
        self.stats.retransmissions += u64::from(attempts - 1);
        self.stats.total_latency_us = self
            .stats
            .total_latency_us
            .saturating_add(latency.as_micros());
        Delivery::Delivered { latency, attempts }
    }
}

impl Transport for LinkTransport {
    /// Keyed by the count of earlier calls to `send`.
    fn send(&mut self, src: NodeAddr, dst: NodeAddr, class: MessageClass) -> Delivery {
        let key = self.unkeyed;
        self.unkeyed += 1;
        self.send_one(&SendSpec { src, dst, class }, key)
    }

    /// Mixes each chain's ordinal once; leg `i`'s key is then that mix
    /// indexed by `i`, which is [`crate::message_key`]`(ordinal, i)`.
    fn send_chains(&mut self, legs: &[SendSpec], chains: &[Chain], out: &mut Vec<ChainOutcome>) {
        out.clear();
        out.reserve(chains.len());
        let mut start = 0;
        for &(ordinal, end) in chains {
            let chain = splitmix64_mix(ordinal);
            let mut outcome = ChainOutcome::default();
            for (leg, spec) in legs[start..end].iter().enumerate() {
                match self.send_one(spec, indexed_seed(chain, leg as u64)) {
                    Delivery::Delivered { latency, .. } => outcome.latency += latency,
                    Delivery::Unreachable { .. } => {
                        outcome.cut = Some(start + leg);
                        break;
                    }
                }
            }
            out.push(outcome);
            start = end;
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
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
        self.lossless_words = lossless_words(&policy);
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
    use clash_simkernel::dist::Exponential;
    use proptest::prelude::*;

    use super::*;
    use crate::policy::LatencyModel;
    use crate::{message_key, InstantTransport};

    /// The per-leg send the skipped loss words and the inlined jitter
    /// replaced, kept as their reference: the retry loop reads a loss
    /// word per transmission whatever the probability, and the jitter
    /// goes through `Exponential` and `SimDuration::from_secs_f64`.
    fn reference_send(t: &mut LinkTransport, s: &SendSpec, key: u64) -> Delivery {
        if s.src == s.dst {
            t.stats.messages += 1;
            t.stats.per_class[s.class.index()] += 1;
            return Delivery::Delivered {
                latency: SimDuration::ZERO,
                attempts: 1,
            };
        }
        if !t.partition.connected(s.src, s.dst) {
            t.stats.unreachable += 1;
            return Delivery::Unreachable {
                attempts: t.policy.max_retries + 1,
            };
        }
        let policy = t.policy;
        let link = indexed_seed(t.link_seed, pair_mix(s.src, s.dst));
        let base = policy.latency.sample_base(&mut KeyedRng::new(link));
        let rng = &mut KeyedRng::new(indexed_seed(link, key));
        let mut attempts = 1u32;
        while attempts <= policy.max_retries && rng.gen_bool(policy.drop_probability) {
            attempts += 1;
        }
        let delay = match policy.latency {
            LatencyModel::Wan { jitter_mean, .. } if !jitter_mean.is_zero() => {
                let jitter = Exponential::with_mean(jitter_mean.as_secs_f64()).sample(rng);
                base + SimDuration::from_secs_f64(jitter)
            }
            model => model.sample(base, rng),
        };
        let latency = policy.retry_timeout * u64::from(attempts - 1) + delay;
        t.stats.messages += 1;
        t.stats.per_class[s.class.index()] += 1;
        t.stats.retransmissions += u64::from(attempts - 1);
        t.stats.total_latency_us = t.stats.total_latency_us.saturating_add(latency.as_micros());
        Delivery::Delivered { latency, attempts }
    }

    fn drain(t: &mut LinkTransport, n: u64) -> Vec<Delivery> {
        (0..n)
            .map(|i| t.send(i % 8, (i + 1) % 8, MessageClass::Probe))
            .collect()
    }

    fn probe(src: NodeAddr, dst: NodeAddr) -> SendSpec {
        SendSpec {
            src,
            dst,
            class: MessageClass::Probe,
        }
    }

    /// Chain `ordinal`, one leg `src → dst`, sent on its own.
    fn keyed(t: &mut LinkTransport, src: NodeAddr, dst: NodeAddr, ordinal: u64) -> ChainOutcome {
        let mut out = Vec::new();
        t.send_chains(&[probe(src, dst)], &[(ordinal, 1)], &mut out);
        out[0]
    }

    fn latency_us(outcome: ChainOutcome) -> u64 {
        assert_eq!(outcome.cut, None, "delivered");
        outcome.latency.as_micros()
    }

    /// `wan()`'s base range with the jitter switched off: a delivery's
    /// latency is its link's base.
    fn wan_bases_only() -> LinkPolicy {
        LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(20),
                base_hi: SimDuration::from_millis(120),
                jitter_mean: SimDuration::ZERO,
            },
            ..LinkPolicy::wan()
        }
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
        // With the jitter off, every message on a link costs its base,
        // whatever its key and whatever traffic came first.
        let mut t = LinkTransport::new(wan_bases_only(), 5);
        let base = latency_us(keyed(&mut t, 100, 200, 0));
        assert!((20_000..=120_000).contains(&base));
        let mut other = LinkTransport::new(wan_bases_only(), 5);
        for i in 0..1_000u64 {
            other.send(i % 50, i + 7, MessageClass::Probe);
        }
        for key in 0..100 {
            assert_eq!(latency_us(keyed(&mut t, 100, 200, key)), base);
            assert_eq!(latency_us(keyed(&mut other, 100, 200, key)), base);
        }
        // The reverse link is another link, with its own base.
        let reverse: Vec<u64> = (0..100)
            .map(|i| latency_us(keyed(&mut t, 200 + i, 100, 0)))
            .collect();
        assert!(reverse.iter().any(|&b| b != base));
        // Under the jitter, every message costs at least its link's base.
        let mut jittered = LinkTransport::new(LinkPolicy::wan(), 5);
        for key in 0..100 {
            assert!(latency_us(keyed(&mut jittered, 100, 200, key)) >= base);
        }
    }

    /// The `n` sends of the distribution tests: one per chain, each on a
    /// link of its own.
    fn spread(n: u64) -> Vec<SendSpec> {
        (0..n).map(|i| probe(i, splitmix64_mix(i + 1))).collect()
    }

    /// The `q`-quantile of sorted `xs`.
    fn quantile(xs: &[u64], q: f64) -> f64 {
        xs[((xs.len() - 1) as f64 * q).round() as usize] as f64
    }

    /// Sorted `xs` is uniform on `[lo, hi]`: every decile within 1 % of
    /// the span of where it belongs (≈ 6 standard errors at 10⁵ draws).
    fn assert_uniform(xs: &[u64], lo: u64, hi: u64) {
        assert!(xs[0] >= lo && xs[xs.len() - 1] <= hi);
        let span = (hi - lo) as f64;
        for d in 1..10 {
            let q = f64::from(d) / 10.0;
            let want = lo as f64 + q * span;
            let got = quantile(xs, q);
            assert!((got - want).abs() < 0.01 * span, "q{q}: {got} vs {want}");
        }
    }

    const DRAWS: u64 = 100_000;

    #[test]
    fn preset_draws_fall_inside_their_distributions() {
        // Each send is chain `i` on its own, so the retransmissions it
        // adds are its attempts less one: `(latency µs, attempts)`.
        let legs = spread(DRAWS);
        let run = |policy: LinkPolicy| -> Vec<(u64, u32)> {
            let mut t = LinkTransport::new(policy, 3);
            let mut out = Vec::new();
            (0..DRAWS)
                .zip(&legs)
                .map(|(i, leg)| {
                    let retried = t.stats().retransmissions;
                    t.send_chains(std::slice::from_ref(leg), &[(i, 1)], &mut out);
                    let attempts = 1 + (t.stats().retransmissions - retried) as u32;
                    (latency_us(out[0]), attempts)
                })
                .collect()
        };
        let sorted = |out: &[(u64, u32)]| {
            let mut xs: Vec<u64> = out.iter().map(|&(us, _)| us).collect();
            xs.sort_unstable();
            xs
        };
        // instant(): nothing is charged.
        assert!(run(LinkPolicy::instant()).iter().all(|&(us, _)| us == 0));
        // lan(): each message uniform on 0.2–2 ms, never lost.
        let lan = run(LinkPolicy::lan());
        assert!(lan.iter().all(|&(_, attempts)| attempts == 1));
        assert_uniform(&sorted(&lan), 200, 2_000);
        // wan(): each link's base uniform on 20–120 ms ...
        let bases: Vec<u64> = run(wan_bases_only()).iter().map(|&(us, _)| us).collect();
        let mut sorted_bases = bases.clone();
        sorted_bases.sort_unstable();
        assert_uniform(&sorted_bases, 20_000, 120_000);
        // ... plus exponential jitter of mean 15 ms: its mean within
        // 2 % (≈ 6 standard errors), its median at 15 ms · ln 2 and its
        // tail past three means at e⁻³.
        let wan = run(LinkPolicy::wan());
        let mut jitter: Vec<u64> = wan
            .iter()
            .zip(&bases)
            .map(|(&(us, _), &b)| us - b)
            .collect();
        jitter.sort_unstable();
        let mean = jitter.iter().sum::<u64>() as f64 / DRAWS as f64;
        assert!((mean - 15_000.0).abs() < 300.0, "jitter mean {mean} µs");
        let median = quantile(&jitter, 0.5);
        assert!(
            (median - 15_000.0 * 2f64.ln()).abs() < 300.0,
            "median {median} µs"
        );
        let tail = jitter.iter().filter(|&&j| j > 45_000).count() as f64 / DRAWS as f64;
        assert!((tail - (-3f64).exp()).abs() < 0.005, "tail {tail}");
        // lossy_wan(p): each transmission lost with probability p, and
        // attempts a geometric count truncated at max_retries + 1.
        let p = 0.3;
        let policy = LinkPolicy::lossy_wan(p);
        let max = policy.max_retries;
        let lossy = run(policy);
        let mut counts = vec![0u64; max as usize + 2];
        let (mut drops, mut trials) = (0u64, 0u64);
        for (&(us, attempts), &base) in lossy.iter().zip(&bases) {
            counts[attempts as usize] += 1;
            drops += u64::from(attempts - 1);
            trials += u64::from(attempts.min(max));
            let timeouts = policy.retry_timeout * u64::from(attempts - 1);
            assert!(SimDuration::from_micros(us) >= timeouts + SimDuration::from_micros(base));
        }
        let rate = drops as f64 / trials as f64;
        assert!((rate - p).abs() < 0.01, "loss rate {rate}");
        for k in 1..=max + 1 {
            let pk = if k <= max {
                p.powi(k as i32 - 1) * (1.0 - p)
            } else {
                p.powi(max as i32)
            };
            let want = pk * DRAWS as f64;
            let got = counts[k as usize] as f64;
            assert!(
                (got - want).abs() <= 6.0 * want.sqrt() + 1.0,
                "{k} attempts: {got} vs {want}"
            );
        }
    }

    #[test]
    fn distinct_keys_on_one_link_draw_apart() {
        // Two messages of one chain on one link, or of two chains, must
        // not share their jitter: equal latencies are as rare as two
        // independent exponential draws make them, and the pairs are
        // uncorrelated.
        let mut t = LinkTransport::new(LinkPolicy::wan(), 13);
        let n = 10_000u64;
        let mut pairs = Vec::new();
        let mut out = Vec::new();
        for c in 0..n {
            let first = latency_us(keyed(&mut t, 4, 9, c));
            t.send_chains(&[probe(4, 9); 2], &[(c, 2)], &mut out);
            let second = latency_us(out[0]) - first;
            let other = latency_us(keyed(&mut t, 4, 9, c + n));
            pairs.push((first as f64, second as f64));
            pairs.push((first as f64, other as f64));
        }
        let equal = pairs.iter().filter(|(a, b)| a == b).count();
        assert!(equal < 20, "{equal} equal pairs");
        let m = pairs.len() as f64;
        let (ma, mb) = pairs
            .iter()
            .fold((0.0, 0.0), |(x, y), (a, b)| (x + a / m, y + b / m));
        let cov = pairs.iter().map(|(a, b)| (a - ma) * (b - mb)).sum::<f64>();
        let va = pairs.iter().map(|(a, _)| (a - ma).powi(2)).sum::<f64>();
        let vb = pairs.iter().map(|(_, b)| (b - mb).powi(2)).sum::<f64>();
        let rho = cov / (va * vb).sqrt();
        assert!(rho.abs() < 0.05, "correlation {rho}");
    }

    /// A drawn chain: its ordinal and its `(src, dst, class index)` legs.
    type Drawn = (u64, Vec<(u64, u64, usize)>);

    /// Lays out `drawn` chains as one dispatch.
    fn lay_out(drawn: &[Drawn]) -> (Vec<SendSpec>, Vec<Chain>) {
        let mut legs = Vec::new();
        let mut chains = Vec::new();
        for (ordinal, chain) in drawn {
            legs.extend(chain.iter().map(|&(src, dst, class)| SendSpec {
                src,
                dst,
                class: MessageClass::ALL[class],
            }));
            chains.push((*ordinal, legs.len()));
        }
        (legs, chains)
    }

    /// The reference for `send_chains`: each chain's legs sent one at a
    /// time through `send_leg(leg, key)`, leg `i` of chain `ordinal` under
    /// key `message_key(ordinal, i)`, stopping at the first `Unreachable`.
    fn leg_by_leg(
        legs: &[SendSpec],
        chains: &[Chain],
        mut send_leg: impl FnMut(&SendSpec, u64) -> Delivery,
    ) -> Vec<ChainOutcome> {
        let mut start = 0;
        chains
            .iter()
            .map(|&(ordinal, end)| {
                let mut outcome = ChainOutcome::default();
                for (i, leg) in legs.iter().enumerate().take(end).skip(start) {
                    match send_leg(leg, message_key(ordinal, (i - start) as u64)) {
                        Delivery::Delivered { latency, .. } => outcome.latency += latency,
                        Delivery::Unreachable { .. } => {
                            outcome.cut = Some(i);
                            break;
                        }
                    }
                }
                start = end;
                outcome
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Steps over 8 nodes: kind 0 partitions them into up to four
        /// islands, kind 1 heals, any other kind dispatches its chains
        /// (1–6 legs each, self-sends included). On a lossy WAN and on
        /// the instant transport, `send_chains` gives every chain the
        /// outcome, and leaves the counters, that its legs sent one by
        /// one give: through the keyed per-leg send on the link
        /// transport, through `send` on the instant one.
        #[test]
        fn send_chains_matches_sending_each_leg_alone(
            seed in any::<u64>(),
            steps in prop::collection::vec(
                (
                    0u8..6,
                    any::<u64>(),
                    prop::collection::vec(
                        (any::<u64>(), prop::collection::vec((0u64..8, 0u64..8, 0usize..8), 1..7)),
                        1..8,
                    ),
                ),
                1..16,
            ),
        ) {
            let policy = LinkPolicy::lossy_wan(0.2);
            let (mut link, mut link_ref) =
                (LinkTransport::new(policy, seed), LinkTransport::new(policy, seed));
            let (mut instant, mut instant_ref) = (InstantTransport::new(), InstantTransport::new());
            let mut out = Vec::new();
            for (kind, island_bits, drawn) in steps {
                if kind == 0 {
                    let mut islands = vec![Vec::new(); 4];
                    for node in 0..8u64 {
                        islands[((island_bits >> (2 * node)) & 3) as usize].push(node);
                    }
                    link.partition(&islands);
                    link_ref.partition(&islands);
                    instant.partition(&islands);
                    continue;
                }
                if kind == 1 {
                    link.heal();
                    link_ref.heal();
                    continue;
                }
                let (legs, chains) = lay_out(&drawn);
                link.send_chains(&legs, &chains, &mut out);
                let want = leg_by_leg(&legs, &chains, |leg, key| link_ref.send_one(leg, key));
                prop_assert_eq!(&out, &want);
                prop_assert_eq!(link.stats(), link_ref.stats());
                instant.send_chains(&legs, &chains, &mut out);
                let want = leg_by_leg(&legs, &chains, |leg, _| {
                    instant_ref.send(leg.src, leg.dst, leg.class)
                });
                prop_assert_eq!(&out, &want);
                prop_assert_eq!(instant.stats(), instant_ref.stats());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `send_one` against [`reference_send`], on WAN
        /// policies with and without loss, every retry budget from 0 to
        /// 5 and zero, preset and arbitrary jitter means, with partitions
        /// coming and going: every send's `Delivery` and the counters
        /// after it are the reference's.
        #[test]
        fn precomputed_draws_match_the_reference_send(
            seed in any::<u64>(),
            lossy in any::<bool>(),
            p in 0.0f64..0.95,
            max_retries in 0u32..=5,
            jitter_kind in 0u8..3,
            arbitrary_jitter in 1u64..10_000_000,
            steps in prop::collection::vec(
                (0u8..8, any::<u64>(), prop::collection::vec((0u64..8, 0u64..8, any::<u64>()), 1..24)),
                1..12,
            ),
        ) {
            let policy = LinkPolicy {
                latency: LatencyModel::Wan {
                    base_lo: SimDuration::from_millis(20),
                    base_hi: SimDuration::from_millis(120),
                    jitter_mean: SimDuration::from_micros(
                        [0, 15_000, arbitrary_jitter][usize::from(jitter_kind)],
                    ),
                },
                max_retries,
                ..if lossy { LinkPolicy::lossy_wan(p) } else { LinkPolicy::wan() }
            };
            let mut t = LinkTransport::new(policy, seed);
            let mut reference = LinkTransport::new(policy, seed);
            for (kind, island_bits, sends) in steps {
                match kind {
                    0 => {
                        let mut islands = vec![Vec::new(); 4];
                        for node in 0..8u64 {
                            islands[((island_bits >> (2 * node)) & 3) as usize].push(node);
                        }
                        t.partition(&islands);
                        reference.partition(&islands);
                    }
                    1 => {
                        t.heal();
                        reference.heal();
                    }
                    _ => {
                        for (src, dst, key) in sends {
                            let leg = probe(src, dst);
                            let got = t.send_one(&leg, key);
                            prop_assert_eq!(got, reference_send(&mut reference, &leg, key));
                            prop_assert_eq!(t.stats(), reference.stats());
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A chain's outcome depends on its links and ordinal alone: the
        /// same dispatch charged in reverse, in pieces, after unrelated
        /// traffic, a policy round trip and a sever/heal cycle, gives
        /// every chain the outcome it got first.
        #[test]
        fn keyed_deliveries_ignore_traffic_order(
            seed in any::<u64>(),
            drawn in prop::collection::vec(
                (0u64..64, prop::collection::vec((0u64..12, 0u64..12, 0usize..8), 1..5)),
                1..100,
            ),
            noise in prop::collection::vec((0u64..12, 0u64..12), 0..100),
            piece in 1usize..16,
        ) {
            let policy = LinkPolicy::lossy_wan(0.3);
            let mut first = LinkTransport::new(policy, seed);
            let (legs, chains) = lay_out(&drawn);
            let mut want = Vec::new();
            first.send_chains(&legs, &chains, &mut want);

            let mut later = LinkTransport::new(policy, seed);
            for &(s, d) in &noise {
                later.send(s, d, MessageClass::Probe);
            }
            later.set_policy(LinkPolicy::lan());
            later.partition(&[vec![0, 1, 2], vec![3, 4]]);
            keyed(&mut later, 0, 3, 0);
            later.heal();
            later.set_policy(policy);
            let mut got = vec![ChainOutcome::default(); drawn.len()];
            let mut out = Vec::new();
            let order: Vec<usize> = (0..drawn.len()).rev().collect();
            for idx in order.chunks(piece) {
                let piece: Vec<_> = idx.iter().map(|&i| drawn[i].clone()).collect();
                let (legs, chains) = lay_out(&piece);
                later.send_chains(&legs, &chains, &mut out);
                for (&i, &outcome) in idx.iter().zip(&out) {
                    got[i] = outcome;
                }
            }
            prop_assert_eq!(got, want);
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
    fn rapid_sever_heal_flapping_does_not_double_charge() {
        // Regression for link flapping: a sever → unreachable send →
        // heal cycle leaves no trace, so post-heal traffic is charged
        // exactly what a never-partitioned twin charges for the same
        // keys — no double-charged retries, no skipped draws.
        let policy = LinkPolicy::lossy_wan(0.2);
        let mut flappy = LinkTransport::new(policy, 31);
        let mut calm = LinkTransport::new(policy, 31);
        let islands: Vec<Vec<u64>> = vec![(0..4).collect(), (4..8).collect()];
        let mut unreachable = 0u64;
        for round in 0..50u64 {
            let (src, dst) = (round % 4, 4 + round % 4);
            flappy.partition(&islands);
            assert_eq!(flappy.island_of(1), Some(0));
            assert_eq!(flappy.island_of(5), Some(1));
            assert_eq!(flappy.island_of(99), Some(0), "unlisted nodes → island 0");
            // Mid-flap: the cross-island send is refused.
            assert_eq!(keyed(&mut flappy, src, dst, round).cut, Some(0));
            unreachable += 1;
            flappy.heal();
            assert_eq!(flappy.island_of(1), None, "healed network has no islands");
            // Post-heal traffic on the very link that was refused,
            // under the refused chain's ordinal too, matches the twin.
            let chain = [probe(src, dst); 3];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            flappy.send_chains(&chain, &[(round, 3)], &mut got);
            calm.send_chains(&chain, &[(round, 3)], &mut want);
            assert_eq!(got, want, "flapping perturbed a delivery at round {round}");
        }
        let fs = flappy.stats();
        let cs = calm.stats();
        assert_eq!(fs.unreachable, unreachable);
        assert_eq!(fs.messages, cs.messages);
        assert_eq!(fs.retransmissions, cs.retransmissions);
        assert_eq!(fs.total_latency_us, cs.total_latency_us);
    }

    #[test]
    fn set_policy_moves_existing_wan_link_bases() {
        // A link keeps no base: after a policy change, a link that
        // already carried traffic takes its base from the new model, and
        // the old model gives it back its old base.
        let mut t = LinkTransport::new(wan_bases_only(), 51);
        let before: Vec<u64> = (1..=20)
            .map(|src| latency_us(keyed(&mut t, src, 100, 0)))
            .collect();
        assert!(before.iter().all(|b| (20_000..=120_000).contains(b)));
        t.set_policy(LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(1_000),
                base_hi: SimDuration::from_millis(2_000),
                jitter_mean: SimDuration::ZERO,
            },
            ..wan_bases_only()
        });
        for src in 1..=20 {
            let base = latency_us(keyed(&mut t, src, 100, 1));
            assert!((1_000_000..=2_000_000).contains(&base), "{base} µs");
        }
        t.set_policy(wan_bases_only());
        let after: Vec<u64> = (1..=20)
            .map(|src| latency_us(keyed(&mut t, src, 100, 2)))
            .collect();
        assert_eq!(before, after);
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

    /// A mixed batch exercising every send class: plain WAN links (RNG
    /// draws), self-sends (free), and — when `part` is set — severed
    /// pairs (unreachable, no draws).
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
        // So must the count of unkeyed sends, for later traffic.
        for s in sends.iter().take(200) {
            assert_eq!(
                seq.send(s.src, s.dst, s.class),
                bat.send(s.src, s.dst, s.class),
                "later unkeyed sends diverged"
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
