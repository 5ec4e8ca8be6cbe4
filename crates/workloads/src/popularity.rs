//! Video popularity model: stretched power law with three buckets.
//!
//! §2.2: "video popularity follows a stretched power law distribution,
//! with three broad buckets" — the very popular head (worth extra
//! compute to save egress), a modestly-watched middle, and the long
//! tail (minimize processing, keep playable). Popularity decides the
//! *treatment*: which formats and how much encoding effort a video
//! receives.

use vcu_rng::Rng;

/// The paper's three popularity buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PopularityBucket {
    /// Small fraction of videos, majority of watch time.
    Head,
    /// Modestly watched.
    Middle,
    /// The majority of uploads, watched rarely.
    Tail,
}

/// Treatment assigned to a video based on popularity (§4.5: without
/// VCUs, VP9 was only produced for the most popular videos; with VCUs
/// both formats are produced at upload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Treatment {
    /// Produce VP9 outputs (in addition to H.264).
    pub vp9: bool,
    /// Run the expensive multi-operating-point analysis pass.
    pub premium_analysis: bool,
}

/// Heavy-tailed popularity distribution over expected views:
/// a Pareto law `P(views > v) = (v / v0)^-alpha` with `alpha` just
/// above 1, so a tiny head of videos carries most of the watch time —
/// the defining property of §2.2's "stretched power law" description.
#[derive(Debug, Clone, Copy)]
pub struct PopularityModel {
    /// Tail exponent; `alpha ≈ 1.1` reproduces the head-dominated
    /// watch-time split typical of internet media (asymptotic head
    /// share ≈ 200^(1-alpha) of all views).
    pub alpha: f64,
    /// Scale (minimum views) parameter `v0`.
    pub scale: f64,
}

impl Default for PopularityModel {
    fn default() -> Self {
        PopularityModel {
            alpha: 1.05,
            scale: 40.0,
        }
    }
}

impl PopularityModel {
    /// Samples an expected view count.
    pub fn sample_views(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF of the Pareto distribution.
        let u: f64 = rng.gen_range(1e-12..1.0);
        self.scale * u.powf(-1.0 / self.alpha)
    }

    /// Buckets a view count.
    pub fn bucket(&self, views: f64) -> PopularityBucket {
        // Thresholds chosen so the head is a small percentage of
        // uploads and the tail a majority (§2.2's description):
        // P(head) = 200^-1.1 ≈ 0.3%, P(tail) = 1 - 4^-1.1 ≈ 78%.
        if views >= self.scale * 200.0 {
            PopularityBucket::Head
        } else if views >= self.scale * 4.0 {
            PopularityBucket::Middle
        } else {
            PopularityBucket::Tail
        }
    }

    /// Treatment in the *accelerated* world: VCUs make VP9-at-upload
    /// affordable for everything (§4.5).
    pub fn treatment_with_vcu(&self, bucket: PopularityBucket) -> Treatment {
        Treatment {
            vp9: true,
            premium_analysis: bucket == PopularityBucket::Head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buckets(n: usize) -> (usize, usize, usize) {
        let m = PopularityModel::default();
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = (0usize, 0usize, 0usize);
        for _ in 0..n {
            match m.bucket(m.sample_views(&mut rng)) {
                PopularityBucket::Head => counts.0 += 1,
                PopularityBucket::Middle => counts.1 += 1,
                PopularityBucket::Tail => counts.2 += 1,
            }
        }
        counts
    }

    #[test]
    fn tail_is_the_majority() {
        let (head, _mid, tail) = buckets(20_000);
        assert!(tail > 10_000, "tail {tail}");
        assert!(head < 2_000, "head {head}");
        assert!(head > 0, "head must exist");
    }

    #[test]
    fn head_dominates_watch_time() {
        // §2.2: the head is a small fraction of videos but the majority
        // of watch time.
        let m = PopularityModel::default();
        let mut rng = Rng::seed_from_u64(3);
        let mut head_views = 0.0;
        let mut total_views = 0.0;
        let mut head_count = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let v = m.sample_views(&mut rng);
            total_views += v;
            if m.bucket(v) == PopularityBucket::Head {
                head_views += v;
                head_count += 1;
            }
        }
        assert!(head_count < n / 20, "head too big: {head_count}");
        // Asymptotically ~77%; finite-sample estimates fluctuate
        // because the share is dominated by the largest few samples.
        assert!(
            head_views / total_views > 0.4,
            "head watch share {}",
            head_views / total_views
        );
    }

    #[test]
    fn vcu_extends_vp9_to_everything() {
        let m = PopularityModel::default();
        for b in [
            PopularityBucket::Head,
            PopularityBucket::Middle,
            PopularityBucket::Tail,
        ] {
            assert!(m.treatment_with_vcu(b).vp9);
        }
    }
}
