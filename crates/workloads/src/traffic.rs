//! Upload traffic generator and the request shape of §2.2.
//!
//! A deterministic (seeded) synthetic stand-in for the production
//! upload stream: YouTube-style uploads ("multiple hundreds of hours
//! of video every minute"), tagged with the workload families the
//! platform serves (uploads, Photos/Drive archival, live and gaming).
//! The cluster simulator consumes these request streams.

use crate::popularity::{PopularityBucket, PopularityModel};
use vcu_media::Resolution;
use vcu_rng::Rng;

/// The workload families of §2.2, each with its own latency target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// Video-sharing uploads (minutes-to-hours latency budget).
    Upload,
    /// Photos / Drive archival (hours).
    Archival,
    /// Live streaming (~100 ms to seconds).
    Live,
    /// Cloud gaming (lowest latency, §4.5's Stadia).
    Gaming,
}

/// One transcode request arriving at the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Arrival time in seconds since epoch of the simulation.
    pub arrival_s: f64,
    /// Workload family.
    pub family: WorkloadFamily,
    /// Input resolution.
    pub resolution: Resolution,
    /// Input frame rate.
    pub fps: f64,
    /// Video duration in seconds.
    pub duration_s: f64,
    /// Popularity bucket (decides treatment).
    pub popularity: PopularityBucket,
}

/// Upload resolution mix (roughly matching public upload statistics:
/// mobile-dominated mid resolutions with a 4K head).
const UPLOAD_MIX: [(Resolution, f64); 6] = [
    (Resolution::R2160, 0.06),
    (Resolution::R1440, 0.06),
    (Resolution::R1080, 0.38),
    (Resolution::R720, 0.30),
    (Resolution::R480, 0.14),
    (Resolution::R360, 0.06),
];

/// Generator for a stream of upload requests.
#[derive(Debug, Clone)]
pub struct UploadTraffic {
    /// Mean arrival rate in requests/second.
    pub rate_per_s: f64,
    /// Popularity model.
    pub popularity: PopularityModel,
    /// RNG seed.
    pub seed: u64,
}

impl UploadTraffic {
    /// Creates a generator at `rate_per_s` requests per second.
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "rate must be positive");
        UploadTraffic {
            rate_per_s,
            popularity: PopularityModel::default(),
            seed,
        }
    }

    /// Generates all requests arriving within `horizon_s` seconds.
    pub fn generate(&self, horizon_s: f64) -> Vec<Request> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        let mut out = Vec::new();
        loop {
            // Exponential inter-arrival times (Poisson process).
            t += rng.exponential(self.rate_per_s);
            if t >= horizon_s {
                break;
            }
            let resolution = pick_resolution(&mut rng);
            let fps = if rng.gen_bool(0.25) { 60.0 } else { 30.0 };
            // Log-normal-ish duration: mostly short, some long.
            let d: f64 = rng.gen_range(0.0f64..1.0);
            let duration_s = 15.0 * (1.0 + 40.0 * d * d * d);
            let views = self.popularity.sample_views(&mut rng);
            out.push(Request {
                arrival_s: t,
                family: WorkloadFamily::Upload,
                resolution,
                fps,
                duration_s,
                popularity: self.popularity.bucket(views),
            });
        }
        out
    }
}

fn pick_resolution(rng: &mut Rng) -> Resolution {
    let x: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (r, p) in UPLOAD_MIX {
        acc += p;
        if x < acc {
            return r;
        }
    }
    Resolution::R360
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_rate_is_respected() {
        let g = UploadTraffic::new(2.0, 42);
        let reqs = g.generate(1000.0);
        let rate = reqs.len() as f64 / 1000.0;
        assert!((1.8..2.2).contains(&rate), "rate {rate}");
    }

    #[test]
    fn uploads_are_sorted_and_in_horizon() {
        let reqs = UploadTraffic::new(5.0, 1).generate(100.0);
        assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(reqs.iter().all(|r| r.arrival_s < 100.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = UploadTraffic::new(3.0, 9).generate(50.0);
        let b = UploadTraffic::new(3.0, 9).generate(50.0);
        assert_eq!(a, b);
    }

    #[test]
    fn resolution_mix_shape() {
        let reqs = UploadTraffic::new(20.0, 5).generate(500.0);
        let n = reqs.len() as f64;
        let frac = |r: Resolution| reqs.iter().filter(|q| q.resolution == r).count() as f64 / n;
        assert!(frac(Resolution::R1080) > 0.25, "1080p share");
        assert!(frac(Resolution::R2160) < 0.15, "4k share");
    }
}
