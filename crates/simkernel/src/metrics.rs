//! Metric recorders: streaming summaries ([`Summary`]) and fixed-bucket
//! histograms ([`Histogram`]), e.g. of message latencies. These
//! recorders are intentionally simple values — their owners hold them
//! directly, no global registry.

/// Streaming summary statistics (Welford's algorithm): count, mean,
/// variance, min, max — without storing samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (0 if fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// An owned, field-public copy of the current statistics, for
    /// export into telemetry registries and reports without exposing
    /// the Welford internals.
    pub fn snapshot(&self) -> SummarySnapshot {
        SummarySnapshot {
            count: self.count,
            mean: self.mean(),
            stddev: self.stddev(),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// An exported point-in-time copy of a [`Summary`]: plain fields, no
/// accumulator state, safe to diff and serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SummarySnapshot {
    /// Number of observations.
    pub count: u64,
    /// Mean of observations (0 if empty).
    pub mean: f64,
    /// Population standard deviation (0 if fewer than two observations).
    pub stddev: f64,
    /// Smallest observation (0 if empty).
    pub min: f64,
    /// Largest observation (0 if empty).
    pub max: f64,
}

/// A histogram with fixed-width buckets over `[lo, hi)` plus overflow and
/// underflow buckets.
///
/// The buckets are stored up to the highest one observed so far, so a
/// recorder holds memory for the range its observations reached, not for
/// the whole range: an untouched recorder allocates nothing.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    width: f64,
    /// Bucket count over `[lo, hi)`; `buckets` never grows past it.
    n: usize,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nan: u64,
    summary: Summary,
}

impl Histogram {
    /// Creates a histogram with `n` equal buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            n,
            buckets: Vec::new(),
            underflow: 0,
            overflow: 0,
            nan: 0,
            summary: Summary::new(),
        }
    }

    /// Adds one observation. NaN observations are counted separately
    /// ([`Histogram::nan_count`]) and touch neither the buckets nor the
    /// summary: `NaN < lo` is false and `(NaN / width) as usize` is 0, so
    /// a NaN would otherwise be silently filed into bucket 0 while
    /// poisoning the summary's mean/min/max.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        self.summary.observe(x);
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.n {
            self.overflow += 1;
            return;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the bucket count.
    pub fn bucket(&self, i: usize) -> u64 {
        assert!(i < self.n, "bucket {i} out of range 0..{}", self.n);
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the end of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN observations rejected (excluded from buckets and summary).
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// The streaming summary over all non-NaN observations (including
    /// out-of-range ones; NaNs are only tallied by
    /// [`Histogram::nan_count`]).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Inclusive lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of all bucketed observations,
    /// reported as the containing bucket's lower edge (conservative, and
    /// exact for point masses such as an all-zero latency recorder).
    /// Underflow observations resolve to `lo`; overflow observations to
    /// the upper edge of the range. Returns `None` when nothing was
    /// observed.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_over(
            self.lo,
            self.width,
            self.underflow,
            &self.buckets,
            self.overflow,
            self.n,
            q,
        )
    }

    /// The `q`-quantile of the observations recorded since `earlier` — a
    /// snapshot of this histogram taken at the start of a measurement
    /// window. This is how the experiment driver reports *windowed*
    /// latency percentiles from one cumulative histogram.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has a different shape (range or bucket count),
    /// if any of its counts exceed this histogram's (it must be an earlier
    /// snapshot of the same recorder), or if `q` is outside `[0, 1]`.
    pub fn quantile_since(&self, earlier: &Histogram, q: f64) -> Option<f64> {
        self.quantiles_since(earlier, &[q])[0]
    }

    /// [`Histogram::quantile_since`] for several quantiles at once: the
    /// bucket diff against the snapshot is computed a single time and
    /// reused for every requested quantile (the driver asks for
    /// p50/p95/p99 per sample window).
    ///
    /// # Panics
    ///
    /// See [`Histogram::quantile_since`].
    pub fn quantiles_since(&self, earlier: &Histogram, qs: &[f64]) -> Vec<Option<f64>> {
        assert!(
            self.lo == earlier.lo && self.width == earlier.width && self.n == earlier.n,
            "quantile_since requires an identically shaped snapshot"
        );
        let stored = |h: &Histogram, i: usize| h.buckets.get(i).copied().unwrap_or(0);
        let diff: Vec<u64> = (0..self.buckets.len().max(earlier.buckets.len()))
            .map(|i| {
                stored(self, i)
                    .checked_sub(stored(earlier, i))
                    .expect("snapshot is not an earlier state of this histogram")
            })
            .collect();
        let underflow = self
            .underflow
            .checked_sub(earlier.underflow)
            .expect("snapshot is not an earlier state of this histogram");
        let overflow = self
            .overflow
            .checked_sub(earlier.overflow)
            .expect("snapshot is not an earlier state of this histogram");
        qs.iter()
            .map(|&q| quantile_over(self.lo, self.width, underflow, &diff, overflow, self.n, q))
            .collect()
    }
}

/// Shared quantile kernel over the stored prefix of an `n`-bucket array
/// (the buckets past it are empty) plus out-of-range tallies.
fn quantile_over(
    lo: f64,
    width: f64,
    underflow: u64,
    buckets: &[u64],
    overflow: u64,
    n: usize,
    q: f64,
) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    let total = underflow + overflow + buckets.iter().sum::<u64>();
    if total == 0 {
        return None;
    }
    // 1-based rank of the order statistic we want.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    if rank <= underflow {
        return Some(lo);
    }
    let mut seen = underflow;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && rank <= seen + count {
            return Some(lo + width * i as f64);
        }
        seen += count;
    }
    // Only overflow observations remain: report the upper range edge.
    Some(lo + width * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_stddev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.observe(x);
        }
        for &x in &xs[37..] {
            right.observe(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn summary_snapshot_copies_fields() {
        let mut s = Summary::new();
        for x in [1.0, 3.0] {
            s.observe(x);
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 2);
        assert!((snap.mean - 2.0).abs() < 1e-12);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 3.0);
        assert_eq!(Summary::new().snapshot(), SummarySnapshot::default());
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.observe(x);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(9), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.summary().count(), 7);
        assert!((h.bucket_lo(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_nan_without_poisoning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.observe(2.5);
        h.observe(f64::NAN);
        h.observe(f64::NAN);
        // NaN is counted apart — not filed into bucket 0.
        assert_eq!(h.nan_count(), 2);
        assert_eq!(h.bucket(0), 0);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        // The summary ignores NaN entirely instead of turning into NaN.
        assert_eq!(h.summary().count(), 1);
        assert!((h.summary().mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.summary().min(), Some(2.5));
        assert_eq!(h.summary().max(), Some(2.5));
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.observe(i as f64 + 0.5);
        }
        // Uniform 0.5..99.5: the q-quantile lands within one bucket width.
        for &(q, expect) in &[(0.0, 0.0), (0.5, 50.0), (0.95, 95.0), (1.0, 100.0)] {
            let got = h.quantile(q).unwrap();
            assert!(
                (got - expect).abs() <= 1.0,
                "q={q}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_handles_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..10 {
            h.observe(-5.0); // underflow
        }
        for _ in 0..10 {
            h.observe(50.0); // overflow
        }
        assert_eq!(h.quantile(0.25), Some(0.0));
        assert_eq!(h.quantile(0.99), Some(10.0));
    }

    #[test]
    fn histogram_windowed_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for _ in 0..50 {
            h.observe(10.0);
        }
        let snapshot = h.clone();
        for _ in 0..50 {
            h.observe(90.0);
        }
        // Cumulative median sits between the clusters; the windowed one
        // sees only the late observations.
        let windowed = h.quantile_since(&snapshot, 0.5).unwrap();
        assert!((windowed - 91.0).abs() <= 1.0, "windowed median {windowed}");
        assert_eq!(h.quantile_since(&h.clone(), 0.5), None, "empty window");
    }

    #[test]
    #[should_panic(expected = "identically shaped")]
    fn histogram_windowed_quantile_rejects_shape_mismatch() {
        let a = Histogram::new(0.0, 100.0, 100);
        let b = Histogram::new(0.0, 100.0, 50);
        a.quantile_since(&b, 0.5);
    }
}
