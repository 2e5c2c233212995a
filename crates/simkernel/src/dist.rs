//! Sampling distributions used by the CLASH workloads.
//!
//! The paper's workloads need two distribution families (§6.1):
//!
//! * **Exponential** — virtual stream lengths (`Ld`, mean 1000 packets) and
//!   query-client lifetimes (`Lq`, mean 30 minutes).
//! * **Discrete weighted** — the skewed distributions over the 8-bit base
//!   portion of the identifier key (workloads A, B, C of Figure 3). We use
//!   Vose's alias method so a draw is O(1) regardless of skew.

use rand::{Rng, RngCore};

use crate::rng::DetRng;

/// Exponential distribution with a given mean, sampled by inverse transform.
///
/// # Example
///
/// ```
/// use clash_simkernel::dist::Exponential;
/// use clash_simkernel::rng::DetRng;
///
/// let exp = Exponential::with_mean(1000.0);
/// let mut rng = DetRng::new(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (`1/λ`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample: one uniform `f64`, from a [`DetRng`] or a bare
    /// generator alike.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; (1 - u) avoids ln(0).
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Discrete distribution over `0..n` with arbitrary weights, sampled in O(1)
/// via Vose's alias method.
///
/// This is the sampler behind the Figure 3 workload skews: the weights are
/// the per-value frequencies of the 8-bit base portion of the key.
#[derive(Debug, Clone)]
pub struct DiscreteDist {
    prob: Vec<f64>,
    alias: Vec<u32>,
    weights: Vec<f64>,
    total: f64,
}

impl DiscreteDist {
    /// Builds the alias tables from raw (unnormalized) weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight[{i}] must be finite and non-negative, got {w}"
            );
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        // Scale to mean 1.
        let scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut p = scaled.clone();
        for (i, &w) in p.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = p[s];
            alias[s] = l as u32;
            p[l] = (p[l] + p[s]) - 1.0;
            if p[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for l in large {
            prob[l] = 1.0;
        }
        for s in small {
            prob[s] = 1.0; // numerical residue
        }

        DiscreteDist {
            prob,
            alias,
            weights: weights.to_vec(),
            total,
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if there are no categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Probability mass of category `i`.
    pub fn mass(&self, i: usize) -> f64 {
        self.weights[i] / self.total
    }

    /// The raw weights the distribution was built from.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Draws one category index.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let i = rng.uniform_index(self.prob.len());
        if rng.uniform_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xC1A5)
    }

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::with_mean(30.0);
        let mut r = rng();
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 30.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let exp = Exponential::with_mean(1.0);
        let mut r = rng();
        assert!((0..10_000).all(|_| exp.sample(&mut r) >= 0.0));
    }

    #[test]
    fn exponential_draws_one_word_from_either_generator() {
        // A bare generator resumed from a `DetRng` stream sees the same
        // samples; the `DetRng` counts one draw per sample.
        let exp = Exponential::with_mean(15.0);
        let mut det = rng();
        let mut bare = det.rng().clone();
        for _ in 0..100 {
            assert_eq!(exp.sample(&mut det), exp.sample(&mut bare));
        }
        assert_eq!(det.draw_count(), 101);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exponential_rejects_zero_mean() {
        Exponential::with_mean(0.0);
    }

    #[test]
    fn discrete_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let d = DiscreteDist::new(&weights);
        let mut r = rng();
        let mut counts = [0u32; 4];
        let n = 400_000;
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        for i in 0..4 {
            let expected = weights[i] / 10.0;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "category {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn discrete_handles_extreme_skew() {
        // One category with 99.9% of the mass — the workload C situation.
        let mut weights = vec![1.0; 256];
        weights[128] = 255_000.0;
        let d = DiscreteDist::new(&weights);
        let mut r = rng();
        let hits = (0..100_000).filter(|_| d.sample(&mut r) == 128).count();
        let p = hits as f64 / 100_000.0;
        assert!(p > 0.99, "p={p}");
    }

    #[test]
    fn discrete_zero_weight_category_never_sampled() {
        let d = DiscreteDist::new(&[1.0, 0.0, 1.0]);
        let mut r = rng();
        assert!((0..50_000).all(|_| d.sample(&mut r) != 1));
    }

    #[test]
    fn discrete_mass_is_normalized() {
        let d = DiscreteDist::new(&[2.0, 6.0]);
        assert!((d.mass(0) - 0.25).abs() < 1e-12);
        assert!((d.mass(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn discrete_rejects_empty() {
        DiscreteDist::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn discrete_rejects_all_zero() {
        DiscreteDist::new(&[0.0, 0.0]);
    }
}
