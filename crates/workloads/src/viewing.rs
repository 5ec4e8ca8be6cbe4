//! Viewer-side workload: a popularity-weighted video catalog and the
//! session arrival model behind the serving front end.
//!
//! §2.2's stretched power law decides *what* gets watched: each
//! catalog video draws an expected-view weight from
//! [`PopularityModel::sample_views`], so a tiny head of videos absorbs
//! most playback sessions. A session plays one video start-to-finish
//! as a sequence of fixed-duration segment requests; the serving layer
//! (`vcu-serve`) turns cache misses into on-demand transcode jobs.

use crate::popularity::{PopularityBucket, PopularityModel};
use vcu_rng::Rng;

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct CatalogVideo {
    /// Expected-view weight (Pareto-distributed); sampling probability
    /// is proportional to this.
    pub weight: f64,
    /// Number of fixed-duration segments in the video.
    pub segments: u32,
    /// Whether the video falls in the popularity head bucket — the
    /// cache pins head segments in its protected tier.
    pub head: bool,
}

/// A popularity-weighted video catalog with O(log n) weighted
/// sampling.
///
/// The head/tail split is fixed at generation time from each video's
/// sampled view weight, so cache-tier assignment is a property of the
/// catalog (history-independent), not of the request stream.
#[derive(Debug, Clone)]
pub struct Catalog {
    videos: Vec<CatalogVideo>,
    /// Cumulative weights; `cum[i]` = sum of weights `0..=i`.
    cum: Vec<f64>,
}

impl Catalog {
    /// Generates `n_videos` entries: Pareto view weights from `model`,
    /// segment counts uniform in `seg_min..=seg_max`. Deterministic in
    /// `seed`.
    pub fn generate(
        n_videos: usize,
        model: &PopularityModel,
        seg_min: u32,
        seg_max: u32,
        seed: u64,
    ) -> Self {
        assert!(n_videos > 0, "empty catalog");
        assert!(seg_min >= 1 && seg_min <= seg_max, "bad segment range");
        let mut rng = Rng::seed_from_u64(seed);
        let mut videos = Vec::with_capacity(n_videos);
        let mut cum = Vec::with_capacity(n_videos);
        let mut acc = 0.0f64;
        for _ in 0..n_videos {
            let views = model.sample_views(&mut rng);
            let head = model.bucket(views) == PopularityBucket::Head;
            let segments = rng.gen_range(seg_min..=seg_max);
            acc += views;
            cum.push(acc);
            videos.push(CatalogVideo {
                weight: views,
                segments,
                head,
            });
        }
        Catalog { videos, cum }
    }

    /// Samples a video index with probability proportional to its
    /// weight (one `rng.f64()` draw + binary search).
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let total = *self.cum.last().expect("non-empty catalog");
        let x = rng.f64() * total;
        self.cum
            .partition_point(|&c| c <= x)
            .min(self.videos.len() - 1) as u32
    }

    /// Number of segments in video `v`.
    pub fn segments(&self, v: u32) -> u32 {
        self.videos[v as usize].segments
    }

    /// Whether video `v` is in the popularity head.
    pub fn is_head(&self, v: u32) -> bool {
        self.videos[v as usize].head
    }

    /// Catalog size in videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// True when the catalog holds no videos (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Mean segments per video.
    pub fn mean_segments(&self) -> f64 {
        let total: u64 = self.videos.iter().map(|v| v.segments as u64).sum();
        total as f64 / self.videos.len() as f64
    }

    /// Direct access to an entry.
    pub fn video(&self, v: u32) -> &CatalogVideo {
        &self.videos[v as usize]
    }
}

/// Session arrival model: Poisson arrivals sized by Little's law so a
/// target number of viewers is concurrently mid-playback at steady
/// state.
///
/// A session watching an `n`-segment video of `segment_s`-second
/// segments stays for `n * segment_s` seconds, so holding
/// `target_concurrent` viewers needs an arrival rate of
/// `target_concurrent / mean_session_s` sessions per second.
#[derive(Debug, Clone, Copy)]
pub struct ViewerSessions {
    /// Viewers concurrently mid-playback at steady state.
    pub target_concurrent: f64,
    /// Mean session length, seconds (catalog mean segments × segment
    /// duration).
    pub mean_session_s: f64,
}

impl ViewerSessions {
    /// Little's law: sessions per second sustaining the target.
    pub fn arrival_rate_per_s(&self) -> f64 {
        assert!(self.mean_session_s > 0.0, "zero-length sessions");
        self.target_concurrent / self.mean_session_s
    }

    /// Draws the next interarrival gap, seconds.
    pub fn next_interarrival_s(&self, rng: &mut Rng) -> f64 {
        rng.exponential(self.arrival_rate_per_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(seed: u64) -> Catalog {
        Catalog::generate(5_000, &PopularityModel::default(), 4, 8, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = catalog(9);
        let b = catalog(9);
        for v in 0..a.len() as u32 {
            assert_eq!(a.segments(v), b.segments(v));
            assert_eq!(a.is_head(v), b.is_head(v));
            assert_eq!(a.video(v).weight, b.video(v).weight);
        }
    }

    #[test]
    fn segment_counts_respect_bounds() {
        let c = catalog(11);
        for v in 0..c.len() as u32 {
            assert!((4..=8).contains(&c.segments(v)));
        }
        let mean = c.mean_segments();
        assert!((5.0..7.0).contains(&mean), "mean segments {mean}");
    }

    #[test]
    fn head_is_small_but_heavily_sampled() {
        let c = catalog(7);
        let head_count = (0..c.len() as u32).filter(|&v| c.is_head(v)).count();
        let head_frac = head_count as f64 / c.len() as f64;
        assert!(head_frac < 0.05, "head fraction {head_frac}");
        assert!(head_count > 0, "a 5k catalog should have a head");

        // Sampling follows the weights: head videos (a <5% sliver of
        // the catalog) should draw an outsized share of sessions.
        let mut rng = Rng::seed_from_u64(1);
        let mut head_draws = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if c.is_head(c.sample(&mut rng)) {
                head_draws += 1;
            }
        }
        let share = head_draws as f64 / n as f64;
        assert!(
            share > head_frac * 5.0,
            "head sampled share {share} vs catalog fraction {head_frac}"
        );
    }

    #[test]
    fn sample_is_uniformly_bounded() {
        let c = Catalog::generate(3, &PopularityModel::default(), 1, 1, 5);
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!((c.sample(&mut rng) as usize) < c.len());
        }
    }

    #[test]
    fn littles_law_arrival_rate() {
        let s = ViewerSessions {
            target_concurrent: 1000.0,
            mean_session_s: 24.0,
        };
        assert!((s.arrival_rate_per_s() - 1000.0 / 24.0).abs() < 1e-12);
        // Mean interarrival ≈ 1/rate.
        let mut rng = Rng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.next_interarrival_s(&mut rng)).sum::<f64>() / n as f64;
        let expect = 24.0 / 1000.0;
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "mean interarrival {mean} vs {expect}"
        );
    }
}
