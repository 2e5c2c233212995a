//! Seeded, splittable random number generation.
//!
//! All randomness in a simulation flows from one root seed. Components
//! derive independent substreams by label ([`DetRng::substream`]), so adding
//! a new consumer of randomness never perturbs the draws seen by existing
//! components — a property the regression tests on the figure experiments
//! rely on.

// The traits samplers take, re-exported so every crate draws through
// the same `rand`.
use rand::rngs::SmallRng;
use rand::SeedableRng;
pub use rand::{Rng, RngCore};

/// Finalizes a SplitMix64 state into a well-mixed 64-bit value.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one hasher of every hashed map in the protocol crates: a
/// fixed-seed splitmix64 fold. The std `RandomState` seeds differently
/// per process, so iterating such a map would break the same-seed pins;
/// this one makes every map a pure function of what was inserted — its
/// iteration order included, though no result may depend on that order
/// (the maps that feed a result sort first).
#[derive(Debug, Clone, Copy, Default)]
pub struct DetBuildHasher;

/// The [`Hasher`](std::hash::Hasher) [`DetBuildHasher`] builds.
#[derive(Debug)]
pub struct DetHasher(u64);

impl std::hash::Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64_mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64_mix(self.0 ^ v);
    }

    // Narrower integers are one mix each too (not one per byte): a
    // prefix key hashes as `u64` + two `u32`s.
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

impl std::hash::BuildHasher for DetBuildHasher {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher(0x9E37_79B9_7F4A_7C15)
    }
}

/// Derives a 64-bit stream seed from a root seed and a label.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h = splitmix64_mix(root ^ 0xA076_1D64_78BD_642F);
    for &b in label.as_bytes() {
        h = splitmix64_mix(h ^ u64::from(b).wrapping_mul(0x1000_0000_01B3));
    }
    h
}

/// The seed of stream `index` under a label whose [`derive_seed`] is
/// `label_seed` — what [`DetRng::substream_indexed`] seeds, for callers
/// that fork many indexed streams of one label and derive the label once.
#[inline]
pub fn indexed_seed(label_seed: u64, index: u64) -> u64 {
    splitmix64_mix(label_seed ^ index)
}

/// The golden-ratio increment of SplitMix64: [`KeyedRng`]'s stride.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A counter-based generator: draw `i` is `splitmix64_mix(key + i·γ)`,
/// a pure function of the key and the index (Salmon et al., "Parallel
/// Random Numbers: As Easy as 1, 2, 3", SC '11). Nothing is stored
/// between uses, so a key names its whole stream: two generators built
/// from one key draw the same words whatever was drawn elsewhere.
///
/// ```
/// use clash_simkernel::rng::{splitmix64_mix, KeyedRng, RngCore};
///
/// let mut rng = KeyedRng::new(7);
/// assert_eq!(rng.next_u64(), splitmix64_mix(7));
/// assert_eq!(KeyedRng::new(7).next_u64(), splitmix64_mix(7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeyedRng {
    key: u64,
    index: u64,
}

impl KeyedRng {
    /// The stream of `key`, at its first draw.
    #[inline]
    pub fn new(key: u64) -> Self {
        KeyedRng { key, index: 0 }
    }

    /// Moves past the next `n` draws without computing them: the next
    /// draw is the one `n` calls to `next_u64` would have reached. For a
    /// caller that knows a word's outcome without reading it (a loss
    /// test at probability 0 is never true).
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.index += n;
    }
}

impl RngCore for KeyedRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let word = splitmix64_mix(self.key.wrapping_add(self.index.wrapping_mul(GAMMA)));
        self.index += 1;
        word
    }
}

/// A deterministic random number generator with labelled substreams.
///
/// Wraps [`rand::rngs::SmallRng`] (fast, non-cryptographic — exactly what a
/// simulation wants) and remembers its root seed so that independent
/// substreams can be forked at any point.
///
/// # Example
///
/// ```
/// use clash_simkernel::rng::DetRng;
/// use rand::Rng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.rng().gen::<u64>(), b.rng().gen::<u64>());
///
/// // Substreams are independent of the parent's draw position.
/// let mut s1 = DetRng::new(42).substream("sources");
/// let mut s2 = DetRng::new(42).substream("sources");
/// assert_eq!(s1.rng().gen::<u64>(), s2.rng().gen::<u64>());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: SmallRng,
    draws: u64,
}

impl DetRng {
    /// Creates a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: SmallRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many times this generator has been drawn from (each helper
    /// counts one; a [`DetRng::rng`] access counts one however many values
    /// the caller pulls through it). Substreams start back at zero; a
    /// clone keeps its parent's count.
    ///
    /// This is the runtime mirror of the `clash-lint` static rules: phases
    /// that must not consume protocol randomness — the batched route phase
    /// after the snapshot freeze — assert this stays flat.
    pub fn draw_count(&self) -> u64 {
        self.draws
    }

    /// Mutable access to the underlying RNG (implements [`rand::Rng`]).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.draws += 1;
        &mut self.inner
    }

    /// Forks an independent substream identified by `label`.
    ///
    /// The substream depends only on the root seed and the label, not on how
    /// many values have been drawn from `self`.
    pub fn substream(&self, label: &str) -> DetRng {
        DetRng::new(derive_seed(self.seed, label))
    }

    /// Forks an independent substream identified by a label and an index
    /// (e.g. one stream per client).
    pub fn substream_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(indexed_seed(derive_seed(self.seed, label), index))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        self.draws += 1;
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        self.draws += 1;
        assert!(bound > 0, "uniform_u64 bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Uniform index in `[0, len)` for slice access.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn uniform_index(&mut self, len: usize) -> usize {
        self.draws += 1;
        assert!(len > 0, "uniform_index len must be positive");
        self.inner.gen_range(0..len)
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.gen()
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.draws += 1;
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.inner.gen_bool(p)
    }
}

/// A `DetRng` is a [`RngCore`], so samplers generic over one
/// ([`Exponential`](crate::dist::Exponential)) take it or a bare
/// [`SmallRng`] alike. Each word drawn counts one draw.
impl RngCore for DetRng {
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_position_independent() {
        let mut parent1 = DetRng::new(99);
        let parent2 = DetRng::new(99);
        // Draw from parent1 before forking; the fork must not be affected.
        for _ in 0..10 {
            parent1.next_u64();
        }
        let mut f1 = parent1.substream("workload");
        let mut f2 = parent2.substream("workload");
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn substreams_with_different_labels_differ() {
        let root = DetRng::new(5);
        let mut a = root.substream("alpha");
        let mut b = root.substream("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_substreams_differ() {
        let root = DetRng::new(5);
        let mut a = root.substream_indexed("client", 0);
        let mut b = root.substream_indexed("client", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_substream_is_seeded_by_indexed_seed() {
        let root = DetRng::new(5);
        let label_seed = root.substream("link").seed();
        for index in [0, 1, u64::MAX] {
            let mut a = root.substream_indexed("link", index);
            let mut b = SmallRng::seed_from_u64(indexed_seed(label_seed, index));
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn keyed_draws_are_a_function_of_key_and_index() {
        for key in [0, 1, 42, u64::MAX] {
            let mut a = KeyedRng::new(key);
            for i in 0..64u64 {
                let want = splitmix64_mix(key.wrapping_add(i.wrapping_mul(GAMMA)));
                assert_eq!(a.next_u64(), want, "key {key} draw {i}");
            }
        }
        // Skipping moves the index without drawing: the words after a
        // skip are the words the skipped calls would have reached.
        let mut skipped = KeyedRng::new(42);
        skipped.skip(3);
        let mut drawn = KeyedRng::new(42);
        for _ in 0..3 {
            drawn.next_u64();
        }
        assert_eq!(skipped.next_u64(), drawn.next_u64());
        skipped.skip(0);
        assert_eq!(skipped.next_u64(), drawn.next_u64());
        // Adjacent keys start unrelated streams, and a stream's words
        // are uniform: the mean of 10⁵ unit draws within 5 standard
        // errors of ½.
        let mut a = KeyedRng::new(7);
        let mut b = KeyedRng::new(8);
        assert_eq!((0..64).filter(|_| a.next_u64() == b.next_u64()).count(), 0);
        let mut r = KeyedRng::new(3);
        let mean = (0..100_000).map(|_| r.gen::<f64>()).sum::<f64>() / 1e5;
        assert!(
            (mean - 0.5).abs() < 5.0 * (1.0 / 12.0f64 / 1e5).sqrt(),
            "{mean}"
        );
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_respects_bound() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            assert!(r.uniform_u64(17) < 17);
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = DetRng::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "p={p}");
    }

    #[test]
    fn draw_count_tracks_every_helper_and_rng_access() {
        let mut r = DetRng::new(9);
        assert_eq!(r.draw_count(), 0);
        r.uniform_f64();
        r.uniform_u64(10);
        r.uniform_index(10);
        r.next_u64();
        r.chance(0.5);
        assert_eq!(r.draw_count(), 5);
        let _ = r.rng().gen::<u64>();
        assert_eq!(r.draw_count(), 6);
        // Substreams are fresh counters; forking draws nothing from self.
        let fork = r.substream("child");
        assert_eq!(fork.draw_count(), 0);
        assert_eq!(r.draw_count(), 6);
        // A clone carries the parent's count.
        assert_eq!(r.clone().draw_count(), 6);
    }

    #[test]
    fn derive_seed_avalanches() {
        // Labels differing by one character must give unrelated seeds.
        let s1 = derive_seed(0, "a");
        let s2 = derive_seed(0, "b");
        assert_ne!(s1, s2);
        let differing_bits = (s1 ^ s2).count_ones();
        assert!(differing_bits > 10, "only {differing_bits} bits differ");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::new(0).uniform_u64(0);
    }
}
