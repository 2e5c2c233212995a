//! Simulated time.
//!
//! Time is measured in whole microseconds since the start of the simulation.
//! Microsecond resolution comfortably covers the paper's scales (6-hour runs,
//! 5-minute load-check periods, per-second packet rates) without floating
//! point drift in the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (microseconds since simulation start).
///
/// `SimTime` is an absolute point; [`SimDuration`] is a span. The arithmetic
/// mirrors `std::time::Instant`/`Duration`.
///
/// # Example
///
/// ```
/// use clash_simkernel::time::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_secs(3);
/// assert_eq!(t.as_micros(), 3_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "end of time" bound).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours since simulation start, as a float (the x-axis of Figure 4).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a simulation logic error).
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`]; returns zero if
    /// `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or overflows the microsecond range.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let us = secs * 1e6;
        // `u64::MAX as f64` rounds up to 2^64, which `as u64` would saturate.
        assert!(us < u64::MAX as f64, "duration overflows u64 microseconds");
        SimDuration(round_half_away(us))
    }

    /// Whole microseconds in this duration.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `us.round() as u64` for `0 ≤ us < 2⁶⁴`, without libm's `round`:
/// the truncation plus one when the fraction is at least a half (ties
/// away from zero). The fraction `us − ⌊us⌋` is exact for every such
/// `us` — both terms lie within a factor of two of each other, or the
/// floor is 0 — so the result is bit-identical to `f64::round`.
///
/// Below 2⁶³ the truncation goes through `i64`, one conversion
/// instruction on x86-64, where `u64`'s takes a compare and a second
/// conversion; every such `us` truncates to the same integer either
/// way. At and above 2⁶³ an `i64` saturates, so those values take the
/// unsigned conversion. This is the rounding of
/// [`SimDuration::from_secs_f64`], and of a transport's per-message
/// jitter, which computes its microseconds inline.
///
/// # Panics
///
/// Debug builds panic if `us` is NaN or outside `[0, 2⁶⁴)`. Release
/// builds do not check: the caller keeps `us` in that domain, outside
/// which the result is meaningless (−1.0 gives `u64::MAX`).
#[inline]
pub fn round_half_away(us: f64) -> u64 {
    debug_assert!(
        (0.0..TWO_TO_THE_64).contains(&us),
        "round_half_away takes 0 ≤ us < 2⁶⁴, got {us}"
    );
    if us < TWO_TO_THE_63 {
        let whole = us as i64;
        (whole + i64::from(us - whole as f64 >= 0.5)) as u64
    } else {
        let whole = us as u64;
        whole + u64::from(us - whole as f64 >= 0.5)
    }
}

/// 2⁶³, the first `f64` an `i64` cannot hold.
const TWO_TO_THE_63: f64 = 9_223_372_036_854_775_808.0;

/// 2⁶⁴, the first `f64` a `u64` cannot hold.
const TWO_TO_THE_64: f64 = 18_446_744_073_709_551_616.0;

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_hours(1).as_secs_f64(), 3600.0);
        assert_eq!(SimTime::from_micros(500).as_micros(), 500);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.duration_since(SimTime::ZERO), SimDuration::from_secs(10));
    }

    #[test]
    fn saturating_duration() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn duration_since_panics_when_reversed() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_micros(), 0);
    }

    #[test]
    fn round_half_away_matches_f64_round_at_the_ties_and_edges() {
        let two = |e: i32| 2f64.powi(e);
        let cases = [
            (0.0, 0),
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (0.499_999_999_999_999_94, 0),
            (two(52) - 0.5, 1 << 52),
            (two(52) + 0.5, 1 << 52), // not representable: the literal is 2⁵²
            (two(51) + 0.5, (1 << 51) + 1),
            (two(53) - 1.0, (1 << 53) - 1),
            (two(53) + 1.0, 1 << 53), // rounds to 2⁵³ as an f64
            (two(53) + 2.0, (1 << 53) + 2),
            (two(64) - 2048.0, u64::MAX - 2047),
        ];
        for (us, want) in cases {
            assert_eq!(round_half_away(us), want, "{us}");
            assert_eq!(round_half_away(us), us.round() as u64, "{us}");
        }
    }

    #[test]
    fn round_half_away_crosses_the_signed_limit() {
        // Either side of 2⁶³, where the signed fast path hands over to
        // the unsigned conversion: the last f64 below it, 2⁶³ itself
        // (which an `i64` would saturate to 2⁶³ − 1) and the first f64
        // past it.
        let two_63 = 2f64.powi(63);
        let cases = [
            (two_63 - 1024.0, (1u64 << 63) - 1024),
            (two_63, 1u64 << 63),
            (two_63 + 2048.0, (1u64 << 63) + 2048),
        ];
        for (us, want) in cases {
            assert_eq!(round_half_away(us), want, "{us}");
            assert_eq!(round_half_away(us), us.round() as u64, "{us}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "round_half_away takes 0 ≤ us < 2⁶⁴")]
    fn round_half_away_rejects_a_negative_input() {
        let _ = round_half_away(-1.0);
    }

    #[test]
    fn round_half_away_matches_f64_round_on_a_seeded_sweep() {
        let mut rng = crate::rng::DetRng::new(46);
        for _ in 0..200_000 {
            let bits = rng.next_u64();
            // A value of every magnitude below 2⁶⁴, an exact half, and a
            // value near a half.
            let scale = 2f64.powi((rng.next_u64() % 72) as i32 - 60);
            let wide = (bits >> 11) as f64 * scale;
            let half = (bits >> 10) as f64 + 0.5;
            let near = (bits >> 12) as f64 * 1e-3;
            for us in [wide, half, near] {
                assert_eq!(round_half_away(us), us.round() as u64, "{us}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "overflows u64 microseconds")]
    fn from_secs_f64_rejects_two_to_the_64_micros() {
        // 18446744073709.55 s × 1e6 rounds to exactly 2^64 µs.
        let _ = SimDuration::from_secs_f64(18446744073709.55);
    }

    #[test]
    fn from_secs_f64_converts_the_largest_input_below_the_limit() {
        // The f64 just below 18446744073709.55: its product is 2^64 − 4096.
        assert_eq!(
            SimDuration::from_secs_f64(18446744073709.547).as_micros(),
            u64::MAX - 4095
        );
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(2 * 3600 + 3 * 60 + 4);
        assert_eq!(t.to_string(), "02:03:04");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn scalar_mul_div() {
        let d = SimDuration::from_secs(3);
        assert_eq!(d * 4, SimDuration::from_secs(12));
        assert_eq!(d / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn hours_axis() {
        let t = SimTime::from_secs(3 * 3600);
        assert!((t.as_hours_f64() - 3.0).abs() < 1e-12);
    }
}
