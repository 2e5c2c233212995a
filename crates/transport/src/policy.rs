//! Link policies: the latency, loss and retry parameters of a simulated
//! network.

use clash_simkernel::rng::{Rng, RngCore};
use clash_simkernel::time::{round_half_away, SimDuration};

/// How per-message latency is generated on a link.
///
/// A link's base is drawn from the link's own key and each message's
/// delay from the message's key, so two links never share draws and
/// adding traffic on one link never changes the latencies seen on
/// another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// No latency at all (useful to isolate loss effects).
    Zero,
    /// The same fixed delay for every message on every link.
    Constant(SimDuration),
    /// Per-message delay uniform in `[lo, hi]` — a homogeneous LAN.
    Uniform {
        /// Minimum one-way delay.
        lo: SimDuration,
        /// Maximum one-way delay.
        hi: SimDuration,
    },
    /// A heterogeneous WAN: each link has a *base* propagation delay
    /// uniform in `[base_lo, base_hi]`, drawn from the link's key, and
    /// every message adds exponential queueing jitter with the given
    /// mean. This is the model the `netfault` experiment labels "wan".
    Wan {
        /// Minimum per-link propagation delay.
        base_lo: SimDuration,
        /// Maximum per-link propagation delay.
        base_hi: SimDuration,
        /// Mean of the per-message exponential jitter.
        jitter_mean: SimDuration,
    },
}

impl LatencyModel {
    /// Samples a link's base delay from the link's own stream.
    pub(crate) fn sample_base<R: RngCore>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Zero | LatencyModel::Constant(_) | LatencyModel::Uniform { .. } => {
                SimDuration::ZERO
            }
            LatencyModel::Wan {
                base_lo, base_hi, ..
            } => {
                let span = base_hi.as_micros().saturating_sub(base_lo.as_micros());
                let extra = if span == 0 {
                    0
                } else {
                    rng.gen_range(0..=span)
                };
                SimDuration::from_micros(base_lo.as_micros() + extra)
            }
        }
    }

    /// Samples the per-message delay on top of `base`.
    pub(crate) fn sample<R: RngCore>(&self, base: SimDuration, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Zero => SimDuration::ZERO,
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                let span = hi.as_micros().saturating_sub(lo.as_micros());
                let extra = if span == 0 {
                    0
                } else {
                    rng.gen_range(0..=span)
                };
                SimDuration::from_micros(lo.as_micros() + extra)
            }
            LatencyModel::Wan { jitter_mean, .. } => {
                base + wan_jitter(jitter_mean.as_secs_f64(), rng)
            }
        }
    }
}

/// One message's exponential queueing jitter of mean `mean_s` seconds,
/// in whole µs: `round_half_away(−mean · ln(1 − u) · 10⁶)`, `u` the
/// stream's next 53-bit uniform. That is the value
/// `SimDuration::from_secs_f64(Exponential::with_mean(mean_s).sample(rng))`
/// gives — the same operations in the same order — computed inline and
/// without their checks: [`LinkPolicy::validate`] bounds every draw
/// below 2⁶⁴ µs. A zero mean draws nothing.
#[inline]
fn wan_jitter<R: RngCore>(mean_s: f64, rng: &mut R) -> SimDuration {
    if mean_s == 0.0 {
        return SimDuration::ZERO;
    }
    let u: f64 = rng.gen();
    SimDuration::from_micros(round_half_away(-mean_s * (1.0 - u).ln() * 1e6))
}

/// Exponential means the largest jitter draw can reach: the draw is
/// `−mean · ln(1 − u)` with `u` a 53-bit uniform, so at most
/// `53 · ln 2 ≈ 36.74` means.
const MAX_JITTER_MEANS: f64 = 36.8;

/// The full behavior of every link in a [`crate::LinkTransport`].
///
/// `drop_probability` models *transient* loss repaired by retransmission:
/// each transmission is lost independently with probability `p`; a lost
/// transmission costs `retry_timeout` of latency and one retransmission.
/// After `max_retries` consecutive losses the next transmission is assumed
/// to get through (the retry budget bounds the latency charged, it does
/// not destroy messages — only a partition makes a destination
/// unreachable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    /// The latency model.
    pub latency: LatencyModel,
    /// Per-transmission loss probability, in `[0, 1)`.
    pub drop_probability: f64,
    /// Latency charged for each lost transmission before the retry.
    pub retry_timeout: SimDuration,
    /// Maximum retransmissions per message.
    pub max_retries: u32,
}

impl LinkPolicy {
    /// Zero latency, no loss — the [`crate::InstantTransport`] semantics
    /// expressed as a policy (useful for differential tests).
    pub fn instant() -> Self {
        LinkPolicy {
            latency: LatencyModel::Zero,
            drop_probability: 0.0,
            retry_timeout: SimDuration::ZERO,
            max_retries: 0,
        }
    }

    /// A homogeneous datacenter LAN: 0.2–2 ms per message, no loss.
    pub fn lan() -> Self {
        LinkPolicy {
            latency: LatencyModel::Uniform {
                lo: SimDuration::from_micros(200),
                hi: SimDuration::from_millis(2),
            },
            drop_probability: 0.0,
            retry_timeout: SimDuration::from_millis(20),
            max_retries: 3,
        }
    }

    /// A heterogeneous internet WAN: per-link base 20–120 ms plus 15 ms
    /// mean jitter, no loss — the regime Gray's *Distributed Computing
    /// Economics* argues dominates utility computing.
    pub fn wan() -> Self {
        LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(20),
                base_hi: SimDuration::from_millis(120),
                jitter_mean: SimDuration::from_millis(15),
            },
            drop_probability: 0.0,
            retry_timeout: SimDuration::from_millis(500),
            max_retries: 5,
        }
    }

    /// [`LinkPolicy::wan`] with per-transmission loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn lossy_wan(p: f64) -> Self {
        let policy = LinkPolicy {
            drop_probability: p,
            ..LinkPolicy::wan()
        };
        policy.validate();
        policy
    }

    /// The most one delivery can be charged, in µs, or `None` if that
    /// overflows `u64`: the top base or per-message delay, plus the
    /// largest jitter, plus a timeout for every retry.
    fn worst_latency_us(&self) -> Option<u64> {
        let (top, jitter_mean) = match self.latency {
            LatencyModel::Zero => (SimDuration::ZERO, SimDuration::ZERO),
            LatencyModel::Constant(d) => (d, SimDuration::ZERO),
            LatencyModel::Uniform { hi, .. } => (hi, SimDuration::ZERO),
            LatencyModel::Wan {
                base_hi,
                jitter_mean,
                ..
            } => (base_hi, jitter_mean),
        };
        let jitter = (MAX_JITTER_MEANS * jitter_mean.as_micros() as f64).ceil();
        // `u64::MAX as f64` is 2⁶⁴: anything below it fits.
        let jitter = (jitter < u64::MAX as f64).then_some(jitter as u64)?;
        let retries = self
            .retry_timeout
            .as_micros()
            .checked_mul(u64::from(self.max_retries))?;
        top.as_micros().checked_add(jitter)?.checked_add(retries)
    }

    /// Checks the policy's numeric ranges.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is outside `[0, 1)` or non-finite, if
    /// a latency model's bounds are inverted (`hi < lo`) — which would
    /// otherwise silently collapse to a constant delay via saturation —
    /// or if a delivery's worst-case latency overflows `u64` µs, which
    /// would make a send panic.
    pub fn validate(&self) {
        assert!(
            self.drop_probability.is_finite() && (0.0..1.0).contains(&self.drop_probability),
            "drop probability must be in [0, 1), got {}",
            self.drop_probability
        );
        match self.latency {
            LatencyModel::Zero | LatencyModel::Constant(_) => {}
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency bounds inverted: {lo} > {hi}");
            }
            LatencyModel::Wan {
                base_lo, base_hi, ..
            } => {
                assert!(
                    base_lo <= base_hi,
                    "wan base latency bounds inverted: {base_lo} > {base_hi}"
                );
            }
        }
        assert!(
            self.worst_latency_us().is_some(),
            "worst-case latency overflows u64 µs: {self:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use clash_simkernel::rng::DetRng;

    use super::*;

    #[test]
    fn uniform_latency_stays_in_range() {
        let model = LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(3),
        };
        let mut rng = DetRng::new(7);
        let base = model.sample_base(&mut rng);
        assert!(base.is_zero());
        for _ in 0..1000 {
            let d = model.sample(base, &mut rng);
            assert!(d >= SimDuration::from_millis(1) && d <= SimDuration::from_millis(3));
        }
    }

    #[test]
    fn wan_base_is_per_link_and_in_range() {
        let model = LatencyModel::Wan {
            base_lo: SimDuration::from_millis(20),
            base_hi: SimDuration::from_millis(120),
            jitter_mean: SimDuration::from_millis(15),
        };
        let mut rng = DetRng::new(9);
        for _ in 0..100 {
            let base = model.sample_base(&mut rng);
            assert!(base >= SimDuration::from_millis(20));
            assert!(base <= SimDuration::from_millis(120));
            let d = model.sample(base, &mut rng);
            assert!(d >= base, "jitter only adds");
        }
    }

    #[test]
    fn full_width_bounds_draw_one_word_without_overflow() {
        let widest = SimDuration::from_micros(u64::MAX);
        let uniform = LatencyModel::Uniform {
            lo: SimDuration::ZERO,
            hi: widest,
        };
        let wan = LatencyModel::Wan {
            base_lo: SimDuration::ZERO,
            base_hi: widest,
            jitter_mean: SimDuration::ZERO,
        };
        for latency in [uniform, wan] {
            LinkPolicy {
                latency,
                ..LinkPolicy::instant()
            }
            .validate();
        }
        let mut rng = DetRng::new(5);
        for n in 1..=100 {
            uniform.sample(SimDuration::ZERO, &mut rng);
            let base = wan.sample_base(&mut rng);
            assert_eq!(wan.sample(base, &mut rng), base, "zero jitter");
            assert_eq!(rng.draw_count(), 2 * n, "one word per ranged draw");
        }
    }

    #[test]
    fn policies_whose_sends_could_overflow_are_rejected() {
        let widest = SimDuration::from_micros(u64::MAX);
        let overflowing = [
            // Three retries of u64::MAX / 2 µs overflow on their own.
            LinkPolicy {
                retry_timeout: SimDuration::from_micros(u64::MAX / 2),
                drop_probability: 0.5,
                ..LinkPolicy::wan()
            },
            // A full-width bound plus any retry ...
            LinkPolicy {
                latency: LatencyModel::Uniform {
                    lo: SimDuration::ZERO,
                    hi: widest,
                },
                ..LinkPolicy::wan()
            },
            // ... or any jitter.
            LinkPolicy {
                latency: LatencyModel::Wan {
                    base_lo: SimDuration::ZERO,
                    base_hi: SimDuration::from_micros(u64::MAX - 36),
                    jitter_mean: SimDuration::from_micros(1),
                },
                ..LinkPolicy::instant()
            },
            // A jitter mean whose largest draw passes 2⁶⁴ µs.
            LinkPolicy {
                latency: LatencyModel::Wan {
                    base_lo: SimDuration::ZERO,
                    base_hi: SimDuration::ZERO,
                    jitter_mean: SimDuration::from_micros(u64::MAX / 30),
                },
                ..LinkPolicy::instant()
            },
        ];
        for policy in overflowing {
            assert_eq!(policy.worst_latency_us(), None, "{policy:?}");
            let rejected = std::panic::catch_unwind(|| policy.validate());
            assert!(rejected.is_err(), "accepted {policy:?}");
        }
        assert_eq!(
            LinkPolicy::wan().worst_latency_us(),
            Some(120_000 + 552_000 + 5 * 500_000)
        );
    }

    #[test]
    fn a_policy_at_the_worst_case_bound_sends_without_panicking() {
        // Bases, jitter and retries together just inside u64 µs: a
        // lossy link whose every send retries to the budget's end.
        let retry = u64::MAX / 8;
        let jitter_mean = u64::MAX / 400;
        let jitter = (MAX_JITTER_MEANS * jitter_mean as f64).ceil() as u64;
        let base_hi = u64::MAX - 3 * retry - jitter;
        let policy = LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_micros(base_hi / 2),
                base_hi: SimDuration::from_micros(base_hi),
                jitter_mean: SimDuration::from_micros(jitter_mean),
            },
            drop_probability: 0.9,
            retry_timeout: SimDuration::from_micros(retry),
            max_retries: 3,
        };
        policy.validate();
        use crate::Transport;
        let mut t = crate::LinkTransport::new(policy, 1);
        for i in 0..10_000u64 {
            t.send(i % 64, 1_000 + i % 61, crate::MessageClass::Probe);
        }
        assert!(t.stats().retransmissions > 20_000);
    }

    #[test]
    fn constant_and_zero_models() {
        let mut rng = DetRng::new(1);
        let c = LatencyModel::Constant(SimDuration::from_millis(4));
        assert_eq!(
            c.sample(SimDuration::ZERO, &mut rng),
            SimDuration::from_millis(4)
        );
        let z = LatencyModel::Zero;
        assert!(z.sample(SimDuration::ZERO, &mut rng).is_zero());
    }

    #[test]
    fn presets_are_valid() {
        LinkPolicy::instant().validate();
        LinkPolicy::lan().validate();
        LinkPolicy::wan().validate();
        LinkPolicy::lossy_wan(0.1).validate();
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn certain_loss_rejected() {
        LinkPolicy::lossy_wan(1.0);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_uniform_bounds_rejected() {
        LinkPolicy {
            latency: LatencyModel::Uniform {
                lo: SimDuration::from_millis(5),
                hi: SimDuration::from_millis(1),
            },
            ..LinkPolicy::lan()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_wan_bounds_rejected() {
        LinkPolicy {
            latency: LatencyModel::Wan {
                base_lo: SimDuration::from_millis(100),
                base_hi: SimDuration::from_millis(10),
                jitter_mean: SimDuration::ZERO,
            },
            ..LinkPolicy::wan()
        }
        .validate();
    }
}
