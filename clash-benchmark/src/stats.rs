//! Order statistics for repetition and span samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is what the benchmark
//! driver computes over its own runs — the spreads this harness prints
//! are then directly comparable with the driver's.

/// The values sorted ascending (NaNs are a caller bug and sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile (exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: for the clamped ends `i*m - 4j` goes outside [0, 4] and
        // the formula extrapolates, exactly as Python's does.
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver bounds. `None` below two samples or for a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank position (1-based) of the `p`-quantile among `n` samples:
/// the smallest rank with at least `p·n` samples at or below it. The
/// epsilon keeps `0.9 × 100` from landing on rank 91 through rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending-sorted sample by the
/// nearest-rank rule.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Percentile ladder for [`tail_percentile`].
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// True if at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// `p`-quantile's rank.
fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, with its value: `(p, value)`. `None` when even the
/// median has fewer than ten samples above it (n < 20).
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| supported(sorted.len(), p))
        .and_then(|&p| percentile_sorted(sorted, p).map(|v| (p, v)))
}

/// `p` if the sample supports it (ten samples beyond), else the highest
/// ladder percentile that is supported, else the maximum.
pub fn percentile_or_supported(sorted: &[f64], p: f64) -> Option<f64> {
    if supported(sorted.len(), p) {
        percentile_sorted(sorted, p)
    } else {
        tail_percentile(sorted)
            .map(|(_, v)| v)
            .or_else(|| sorted.last().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |k: usize| (1..=k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&n(19)), None);
        assert_eq!(tail_percentile(&n(20)), Some((0.5, 10.0)));
        assert_eq!(tail_percentile(&n(99)), Some((0.5, 50.0)));
        assert_eq!(tail_percentile(&n(100)), Some((0.9, 90.0)));
        assert_eq!(tail_percentile(&n(200)), Some((0.95, 190.0)));
        assert_eq!(tail_percentile(&n(1000)), Some((0.99, 990.0)));
        assert_eq!(tail_percentile(&n(10_000)), Some((0.999, 9990.0)));
        assert_eq!(tail_percentile(&n(100_000)), Some((0.9999, 99_990.0)));
    }

    #[test]
    fn unsupported_percentile_falls_back() {
        let n = |k: usize| (1..=k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile_or_supported(&n(1000), 0.99), Some(990.0));
        // 200 samples cannot carry a p99 (2 beyond): p95 is the highest.
        assert_eq!(percentile_or_supported(&n(200), 0.99), Some(190.0));
        // 5 samples carry nothing: the maximum stands in.
        assert_eq!(percentile_or_supported(&n(5), 0.99), Some(5.0));
        assert_eq!(percentile_or_supported(&[], 0.99), None);
    }
}
