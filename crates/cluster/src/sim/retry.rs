//! Retry backoff (§4.4: failed chunks are retried at cluster level).
//!
//! Pure policy: the simulator hands [`RetryPolicy::delay_s`] its RNG
//! and decides what to do with the delay.

use vcu_rng::Rng;

/// Multiplier applied to the backoff delay per additional attempt.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// Total attempt budget per job, first run included. A job whose
/// attempt count reaches this fails permanently.
pub const MAX_ATTEMPTS: u32 = 5;

/// Ceiling on the pre-jitter delay, seconds: one simulated hour, far
/// above any delay the [`MAX_ATTEMPTS`] budget can reach. `base_s *
/// BACKOFF_FACTOR^k` grows without bound (`2^1024` is already
/// `f64::INFINITY`), and an infinite or astronomically late retry event
/// would wedge or corrupt the DES clock; the clamp keeps every backoff
/// finite for any attempt count.
pub(crate) const MAX_DELAY_S: f64 = 3_600.0;

/// Exponential-backoff retry policy: attempt `k`'s re-enqueue is
/// delayed by `base_s * BACKOFF_FACTOR^(k-1)`, jittered by up to
/// `jitter_frac` from the simulation's own RNG stream (so backoff
/// stays byte-deterministic). `base_s == 0` retries immediately,
/// reproducing the pre-backoff cluster exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, seconds (0 = immediate).
    pub base_s: f64,
    /// Uniform jitter fraction in `[0, jitter_frac)` added to each
    /// delay, drawn from the sim RNG.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_s: 0.0,
            jitter_frac: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retrying a job that has already made
    /// `attempts` attempts, clamped to one simulated hour before jitter.
    /// Draws jitter from `rng` only when both the base and the jitter
    /// are live, so disabling backoff leaves the RNG stream untouched.
    pub fn delay_s(&self, attempts: u32, rng: &mut Rng) -> f64 {
        if self.base_s <= 0.0 {
            return 0.0;
        }
        let d =
            (self.base_s * BACKOFF_FACTOR.powi(attempts.saturating_sub(1) as i32)).min(MAX_DELAY_S);
        if self.jitter_frac > 0.0 {
            d * (1.0 + self.jitter_frac * rng.f64())
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_are_deterministic_and_bounded() {
        let p = RetryPolicy {
            base_s: 2.0,
            jitter_frac: 0.25,
        };
        let seq = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (1..5).map(|a| p.delay_s(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9), "same seed, same backoff");
        for (i, &d) in seq(9).iter().enumerate() {
            let base = 2.0 * 2.0f64.powi(i as i32);
            assert!(
                d >= base && d < base * 1.25,
                "attempt {}: {d} vs {base}",
                i + 1
            );
        }
        // No jitter → exact exponential, and no RNG draw at all.
        let exact = RetryPolicy {
            jitter_frac: 0.0,
            ..p
        };
        let mut rng = Rng::seed_from_u64(1);
        let before = rng.clone();
        assert_eq!(exact.delay_s(3, &mut rng), 8.0);
        assert_eq!(
            rng.next_u64(),
            before.clone().next_u64(),
            "no draw without jitter"
        );
        // Disabled backoff never draws either.
        let mut rng2 = Rng::seed_from_u64(1);
        assert_eq!(RetryPolicy::default().delay_s(3, &mut rng2), 0.0);
        assert_eq!(rng2.next_u64(), before.clone().next_u64());
    }

    #[test]
    fn backoff_is_clamped_at_max_delay() {
        // Regression: factor^(attempts-1) overflows to f64::INFINITY
        // around attempt 1076 with factor 2 — an unclamped policy would
        // schedule a retry at t = ∞ and wedge the DES.
        let p = RetryPolicy {
            base_s: 2.0,
            jitter_frac: 0.0,
        };
        let mut rng = Rng::seed_from_u64(1);
        for attempts in [12, 13, 60, 1_076, 10_000, u32::MAX] {
            let d = p.delay_s(attempts, &mut rng);
            assert!(d.is_finite(), "attempt {attempts}: delay {d} not finite");
            assert!(d <= MAX_DELAY_S, "attempt {attempts}: delay {d} above cap");
        }
        // 2 s × 2^11 = 4,096 s is the first delay the cap clips.
        assert_eq!(p.delay_s(11, &mut rng), 2_048.0);
        assert_eq!(p.delay_s(12, &mut rng), MAX_DELAY_S);
        // Below the cap the exponential is untouched.
        assert_eq!(p.delay_s(3, &mut rng), 8.0);
        // Jitter applies on top of the clamped value, not the raw one.
        let jittered = RetryPolicy {
            jitter_frac: 0.25,
            ..p
        };
        let d = jittered.delay_s(10_000, &mut rng);
        assert!(
            (MAX_DELAY_S..MAX_DELAY_S * 1.25).contains(&d),
            "jittered clamp: {d}"
        );
    }
}
