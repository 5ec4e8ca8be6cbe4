//! Diurnal demand curves: time-of-day load shaping for multi-region
//! simulation.
//!
//! A region's upload demand follows the waking hours of its user
//! population, so regions in different timezones peak at different
//! UTC hours. This module models that as a raised cosine over the sim
//! clock (UTC by convention) and generates nonhomogeneous-Poisson
//! arrivals by thinning (Lewis & Shedler): draw candidates at the peak
//! rate, keep each with probability `rate(t) / peak`. Everything is
//! seeded, so a region's arrival stream is a pure function of
//! `(curve, window, rng state)` — the property the byte-identical
//! region campaign rests on.

use vcu_rng::Rng;

/// Seconds per simulated day.
pub const DAY_S: f64 = 86_400.0;

/// A raised-cosine diurnal rate curve:
///
/// `rate(t) = mean * (1 + amplitude * cos(2π (t − peak_s) / period_s))`
///
/// The curve averages to `mean_rate_per_s` over a full period and
/// swings between `mean * (1 − amplitude)` and `mean * (1 + amplitude)`,
/// peaking at `peak_hour` on the sim clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Mean arrival rate over a full day, requests/second.
    pub mean_rate_per_s: f64,
    /// Peak-to-mean swing in `[0, 1]`: 0 = flat (homogeneous Poisson),
    /// 1 = the trough touches zero.
    pub amplitude: f64,
    /// Hour of peak demand on the sim clock, `[0, 24)`. Shifting this
    /// per region is what phase-shifts the regions against each other.
    pub peak_hour: f64,
    /// Curve period, seconds (a day unless compressed for tests).
    pub period_s: f64,
}

impl DiurnalCurve {
    /// A day-period curve peaking at `peak_hour` sim time.
    pub fn new(mean_rate_per_s: f64, amplitude: f64, peak_hour: f64) -> Self {
        assert!(mean_rate_per_s >= 0.0, "rate must be non-negative");
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "amplitude must be in [0, 1] (got {amplitude})"
        );
        DiurnalCurve {
            mean_rate_per_s,
            amplitude,
            peak_hour: peak_hour.rem_euclid(24.0),
            period_s: DAY_S,
        }
    }

    /// Instantaneous arrival rate at sim time `t`, requests/second.
    pub fn rate_at(&self, t: f64) -> f64 {
        let peak_s = self.peak_hour / 24.0 * self.period_s;
        let phase = (t - peak_s) / self.period_s * std::f64::consts::TAU;
        self.mean_rate_per_s * (1.0 + self.amplitude * phase.cos())
    }

    /// Highest rate the curve reaches (the thinning envelope).
    pub fn peak_rate(&self) -> f64 {
        self.mean_rate_per_s * (1.0 + self.amplitude)
    }

    /// Arrival times in `[t0, t1)` by thinning: candidates arrive as a
    /// homogeneous Poisson process at [`DiurnalCurve::peak_rate`]; each
    /// survives with probability `rate(t) / peak`. Output is sorted
    /// and strictly inside the window. Deterministic in the RNG state,
    /// and windows chain: generating `[a, b)` then `[b, c)` from the
    /// same RNG draws the same distribution as `[a, c)` in one call.
    pub fn arrivals_in(&self, t0: f64, t1: f64, rng: &mut Rng) -> Vec<f64> {
        let peak = self.peak_rate();
        if peak <= 0.0 || t1 <= t0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut t = t0;
        loop {
            t += rng.exponential(peak);
            if t >= t1 {
                break;
            }
            if self.amplitude == 0.0 || rng.gen_range(0.0..1.0) < self.rate_at(t) / peak {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected arrivals in `[t0, t1)`: `rate_at` integrated by the
    /// midpoint rule.
    fn expected_arrivals(c: &DiurnalCurve, t0: f64, t1: f64) -> f64 {
        let dt = (t1 - t0) / 1440.0;
        let mid = |i: u32| t0 + (i as f64 + 0.5) * dt;
        (0..1440).map(|i| c.rate_at(mid(i)) * dt).sum()
    }

    #[test]
    fn rate_peaks_at_peak_hour_and_averages_to_mean() {
        let c = DiurnalCurve::new(10.0, 0.6, 20.0);
        assert!((c.rate_at(20.0 / 24.0 * DAY_S) - 16.0).abs() < 1e-9);
        assert!((c.rate_at(8.0 / 24.0 * DAY_S) - 4.0).abs() < 1e-9);
        // Mean over a full day is the configured mean.
        let mean = expected_arrivals(&c, 0.0, DAY_S) / DAY_S;
        assert!((mean - 10.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn phase_shift_moves_the_peak() {
        let east = DiurnalCurve::new(10.0, 0.5, 4.0);
        let west = DiurnalCurve::new(10.0, 0.5, 12.0);
        let noon = 12.0 / 24.0 * DAY_S;
        assert!(west.rate_at(noon) > east.rate_at(noon));
        // Anti-phased curves sum to a flatter total: at west's peak,
        // east is 8 h past its own and already declining.
        assert!(east.rate_at(noon) < east.peak_rate() * 0.8);
    }

    #[test]
    fn thinning_tracks_the_expected_count() {
        let c = DiurnalCurve::new(5.0, 0.8, 0.0);
        let mut rng = Rng::seed_from_u64(7);
        // Peak window (high rate) vs trough window (low rate).
        let peak_window = c.arrivals_in(0.0, 3_600.0, &mut rng).len() as f64;
        let trough_window = c
            .arrivals_in(DAY_S * 0.45, DAY_S * 0.45 + 3_600.0, &mut rng)
            .len() as f64;
        let exp_peak = expected_arrivals(&c, 0.0, 3_600.0);
        assert!(
            (peak_window - exp_peak).abs() < exp_peak * 0.15,
            "peak window: {peak_window} vs expected {exp_peak}"
        );
        assert!(
            peak_window > trough_window * 2.0,
            "diurnal swing must show: {peak_window} vs {trough_window}"
        );
    }

    #[test]
    fn arrivals_are_sorted_in_window_and_deterministic() {
        let c = DiurnalCurve::new(3.0, 0.4, 9.0);
        let gen = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            c.arrivals_in(100.0, 5_000.0, &mut rng)
        };
        let a = gen(1);
        assert_eq!(a, gen(1), "same seed, same stream");
        assert_ne!(a, gen(2), "seed steers the stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(a.iter().all(|&t| (100.0..5_000.0).contains(&t)));
    }

    #[test]
    fn zero_amplitude_is_plain_poisson() {
        let flat = DiurnalCurve::new(2.0, 0.0, 0.0);
        let mut rng = Rng::seed_from_u64(3);
        let n = flat.arrivals_in(0.0, 10_000.0, &mut rng).len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "homogeneous rate: {n}");
        assert_eq!(flat.rate_at(0.0), flat.rate_at(43_200.0));
    }
}
