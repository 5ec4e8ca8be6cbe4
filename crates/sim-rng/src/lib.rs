//! Deterministic, vendored randomness for the whole workspace.
//!
//! Every stochastic component of the reproduction — traffic
//! generators, popularity sampling, the cluster simulator's detection
//! coin-flips, the property-test harness — draws from this crate and
//! nothing else. The generator is xoshiro256++ seeded through
//! SplitMix64 (the seeding scheme its authors recommend), so a given
//! seed produces a bit-identical stream on every platform and every
//! future toolchain: unlike `rand::StdRng`, whose algorithm is
//! explicitly *not* stability-guaranteed across versions, the stream
//! here is frozen by construction. That is what makes the paper's
//! tables and figures (Table 1, Figs. 7–10) reproducible to the byte.
//!
//! The API mirrors the small slice of `rand` the workspace actually
//! used (`gen_range`, `gen_bool`, `seed_from_u64`) plus the
//! distribution samplers the workload models need (uniform f64,
//! normal, exponential) and Fisher–Yates `shuffle`.
#![forbid(unsafe_code)]

pub mod prop;

use std::ops::{Range, RangeInclusive};

/// Seed from the `VCU_SEED` environment variable, or `default` when it
/// is unset. Every example binary resolves its seed through this one
/// helper so fixed-seed CI runs and ad-hoc seed sweeps use the same
/// spelling.
///
/// # Panics
///
/// Panics when `VCU_SEED` is set but does not parse as a `u64` — a
/// typo'd seed silently falling back to the default would defeat the
/// point of setting it.
pub fn env_seed(default: u64) -> u64 {
    match std::env::var("VCU_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("VCU_SEED must be a u64, got {s:?}")),
        Err(_) => default,
    }
}

/// Derives an independent sub-seed from a base seed and a stream index
/// by running both through SplitMix64's finalizer. Use this wherever a
/// family of components (per-worker RNGs, per-shard streams) must each
/// get their own uncorrelated seed: naive derivations like
/// `seed ^ (i << 8)` produce sub-seeds that differ only in a few
/// shifted bits, and two different base seeds can map different
/// indices onto the *same* stream. The full 64-bit avalanche here
/// makes `(seed, stream)` pairs collide no more often than random
/// 64-bit values.
pub fn mix64(seed: u64, stream: u64) -> u64 {
    // Advance a SplitMix64 at `seed` by `stream + 1` golden-gamma
    // steps in O(1), then apply its output finalizer — equivalent to
    // `SplitMix64::new(seed).nth(stream)` but constant-time in
    // `stream`.
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, fast 64-bit generator used to expand a single
/// `u64` seed into the 256-bit xoshiro state (Vigna's recommended
/// seeding procedure; also a fine standalone stream mixer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The workspace RNG: xoshiro256++ (Blackman & Vigna). 2^256-1 period,
/// excellent statistical quality, four words of state, and a frozen
/// specification — the stream for a given seed never changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits (the xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)`, unbiased (Lemire's widening
    /// multiply with rejection).
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            let lo = m as u64;
            if lo < span {
                // Rejection zone for exact uniformity.
                let threshold = span.wrapping_neg() % span;
                if lo < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)`,
    /// `rng.gen_range(1u8..=255)`, `rng.gen_range(0.0..1.0)`.
    ///
    /// Panics on an empty range, matching `rand`'s behavior.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Normal (Gaussian) sample via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // 1 - u ∈ (0, 1] keeps ln() finite.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential sample with the given rate (mean `1/rate`) by
    /// inverse-CDF. Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -(1.0 - self.f64()).ln() / rate
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + rng.f64() * (self.end - self.start)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full u64/i64 domain.
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.bounded_u64(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // First outputs of the public-domain splitmix64.c for seed 0 —
        // a known-answer test pinning the stream forever.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(sm.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(sm.next_u64(), 0x06C45D188009454F);
    }

    #[test]
    fn mix64_equals_splitmix_nth_output() {
        // mix64(seed, k) is defined as the (k+1)-th output of a
        // SplitMix64 seeded at `seed`, computed in O(1). Pin that
        // equivalence (and therefore the exact values) forever.
        for seed in [0u64, 1, 42, 0xDEADBEEF, u64::MAX] {
            let mut sm = SplitMix64::new(seed);
            for stream in 0..16 {
                assert_eq!(
                    mix64(seed, stream),
                    sm.next_u64(),
                    "seed={seed} stream={stream}"
                );
            }
        }
        // Explicit known-answer against the splitmix64.c vectors.
        assert_eq!(mix64(0, 0), 0xE220A8397B1DCDAF);
        assert_eq!(mix64(0, 1), 0x6E789E6AA1B965F4);
        assert_eq!(mix64(0, 2), 0x06C45D188009454F);
    }

    #[test]
    fn mix64_streams_are_unique_across_seeds_and_streams() {
        // The weak derivation this replaced (`seed ^ (i << 8)`) let two
        // different base seeds map different stream indices onto the
        // same sub-seed. The mixed derivation must keep (seed, stream)
        // pairs distinct across a realistic fleet: two seeds × 10k
        // workers with zero collisions.
        let mut seen = std::collections::HashSet::new();
        for seed in [42u64, 43] {
            for stream in 0..10_000u64 {
                assert!(
                    seen.insert(mix64(seed, stream)),
                    "collision at seed={seed} stream={stream}"
                );
            }
        }
        assert_eq!(seen.len(), 20_000);
    }

    #[test]
    fn rng_stream_is_pinned() {
        // Regression vector: the first xoshiro256++ outputs for seed 1
        // as produced by this implementation. If these ever change, a
        // code change silently altered every simulation in the repo.
        let mut rng = Rng::seed_from_u64(1);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xCFC5D07F6F03C29B,
                0xBF424132963FE08D,
                0x19A37D5757AAF520,
                0xBF08119F05CD56D6,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let eq = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(eq, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.gen_range(-7i32..13);
            assert!((-7..13).contains(&v));
            let w = rng.gen_range(1u8..=255);
            assert!(w >= 1);
            let f = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_hits_extremes() {
        let mut rng = Rng::seed_from_u64(5);
        let draws: Vec<u8> = (0..2000).map(|_| rng.gen_range(0u8..4)).collect();
        for target in 0..4u8 {
            assert!(draws.contains(&target), "never drew {target}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((0.29..0.31).contains(&rate), "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }
}
