//! The video processing platform: requests → task graphs → cluster jobs.
//!
//! Ties the stack together the way §2.2/§3.1 describe: an arriving
//! video is analyzed (popularity → treatment, formats, ladder), chunked
//! into closed GOPs, expressed as a task graph, and the VCU-eligible
//! steps become [`vcu_cluster::JobSpec`]s for the cluster simulator.

use crate::graph::TaskGraph;
use vcu_chip::TranscodeJob;
use vcu_cluster::{JobSpec, Priority};
use vcu_codec::Profile;
use vcu_workloads::{PopularityModel, Request, WorkloadFamily};

/// Chunk length used by the platform, in seconds (the paper's examples
/// use 2–5 s chunks).
pub const CHUNK_SECONDS: f64 = 5.0;

/// Platform-level policy configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Produce MOT jobs (true, the VCU-era default) or per-rung SOTs
    /// (the legacy CPU-era shape).
    pub mot: bool,
    /// Produce VP9 in addition to H.264 where treatment allows.
    pub vp9_enabled: bool,
    /// Popularity model used for treatment decisions.
    pub popularity: PopularityModel,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            mot: true,
            vp9_enabled: true,
            popularity: PopularityModel::default(),
        }
    }
}

/// The platform front-end.
#[derive(Debug, Clone, Default)]
pub struct Platform {
    /// Policy knobs.
    pub cfg: PlatformConfig,
}

impl Platform {
    /// A platform with default policy.
    pub fn new(cfg: PlatformConfig) -> Self {
        Platform { cfg }
    }

    /// Task graph for a request (used by tests and the scheduler's
    /// step accounting).
    pub fn graph_for(&self, req: &Request) -> TaskGraph {
        let chunks = self.chunk_count(req);
        let outputs = req.resolution.ladder().len();
        TaskGraph::upload(chunks, self.cfg.mot, outputs)
    }

    fn chunk_count(&self, req: &Request) -> usize {
        (req.duration_s / CHUNK_SECONDS).ceil().max(1.0) as usize
    }

    /// Priority for a workload family.
    pub fn priority_for(family: WorkloadFamily) -> Priority {
        match family {
            WorkloadFamily::Live | WorkloadFamily::Gaming => Priority::Critical,
            WorkloadFamily::Upload => Priority::Normal,
            WorkloadFamily::Archival => Priority::Batch,
        }
    }

    /// Stable video identifier for a request (used by consistent-hash
    /// placement and blast-radius accounting).
    pub fn video_id(req: &Request) -> u64 {
        let a = req.arrival_s.to_bits();
        let r = req.resolution.pixels();
        a.rotate_left(21) ^ r.wrapping_mul(0x9E3779B97F4A7C15) ^ (req.duration_s.to_bits() >> 1)
    }

    /// Expands a request into chunk-level cluster jobs. Each chunk
    /// becomes one MOT job per enabled format (or a fan of SOT jobs in
    /// legacy mode).
    pub fn jobs_for(&self, req: &Request) -> Vec<JobSpec> {
        let chunks = self.chunk_count(req);
        let chunk_s = req.duration_s / chunks as f64;
        let treatment = self.cfg.popularity.treatment_with_vcu(req.popularity);
        let mut profiles = vec![Profile::H264Sim];
        if self.cfg.vp9_enabled && treatment.vp9 {
            profiles.push(Profile::Vp9Sim);
        }
        let priority = Self::priority_for(req.family);
        let video_id = Self::video_id(req);
        let live = matches!(req.family, WorkloadFamily::Live | WorkloadFamily::Gaming);

        let mut out = Vec::new();
        for c in 0..chunks {
            // Live chunks arrive as the stream progresses; uploads are
            // all available at request arrival.
            let arrival = if live {
                req.arrival_s + c as f64 * chunk_s
            } else {
                req.arrival_s
            };
            for &profile in &profiles {
                if self.cfg.mot {
                    let mut job = TranscodeJob::mot(req.resolution, profile, req.fps, chunk_s);
                    if live {
                        job = job.low_latency_two_pass();
                    }
                    out.push(JobSpec {
                        arrival_s: arrival,
                        job,
                        priority,
                        video_id,
                    });
                } else {
                    for rung in req.resolution.ladder() {
                        let mut job =
                            TranscodeJob::sot(req.resolution, rung, profile, req.fps, chunk_s);
                        if live {
                            job = job.low_latency_two_pass();
                        }
                        out.push(JobSpec {
                            arrival_s: arrival,
                            job,
                            priority,
                            video_id,
                        });
                    }
                }
            }
        }
        out
    }

    /// Expands a whole request stream.
    pub fn jobs_for_all(&self, reqs: &[Request]) -> Vec<JobSpec> {
        let mut jobs: Vec<JobSpec> = reqs.iter().flat_map(|r| self.jobs_for(r)).collect();
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        jobs
    }
}

/// End-to-end latency estimate for a live stream under a given
/// per-chunk encode-speed factor (encode time = chunk length ×
/// factor). The paper's §4.5 example: software VP9 encoded a 2-second
/// chunk in 10 seconds (factor 5), forcing 5-6 chunks in flight and
/// ~30 s camera-to-eyeball delays; the VCU encodes faster than real
/// time (factor < 1), enabling ~5 s.
pub fn live_latency_s(chunk_s: f64, encode_speed_factor: f64, buffer_chunks: f64) -> f64 {
    // Pipeline: ingest one chunk + encode it (parallelism across chunks
    // hides throughput, not latency) + client buffer.
    let encode_latency = chunk_s * encode_speed_factor.max(0.0);
    chunk_s + encode_latency + buffer_chunks * chunk_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StepKind;
    use vcu_media::Resolution;
    use vcu_workloads::PopularityBucket;

    fn upload_req(duration_s: f64) -> Request {
        Request {
            arrival_s: 10.0,
            family: WorkloadFamily::Upload,
            resolution: Resolution::R1080,
            fps: 30.0,
            duration_s,
            popularity: PopularityBucket::Middle,
        }
    }

    #[test]
    fn mot_platform_emits_one_job_per_chunk_per_format() {
        let p = Platform::default();
        let jobs = p.jobs_for(&upload_req(12.0)); // 3 chunks
                                                  // 3 chunks × 2 formats (H.264 + VP9).
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().all(|j| j.job.is_mot()));
        assert!(jobs.iter().all(|j| j.arrival_s == 10.0));
    }

    #[test]
    fn legacy_sot_mode_fans_out() {
        let p = Platform::new(PlatformConfig {
            mot: false,
            ..PlatformConfig::default()
        });
        let jobs = p.jobs_for(&upload_req(4.0)); // 1 chunk
                                                 // 1 chunk × 2 formats × 6 ladder rungs.
        assert_eq!(jobs.len(), 12);
        assert!(jobs.iter().all(|j| !j.job.is_mot()));
    }

    #[test]
    fn live_chunks_arrive_progressively() {
        let p = Platform::default();
        let req = Request {
            family: WorkloadFamily::Live,
            duration_s: 15.0,
            ..upload_req(15.0)
        };
        let jobs = p.jobs_for(&req);
        let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival_s).collect();
        assert!(arrivals.iter().any(|&a| a > req.arrival_s));
        assert!(jobs.iter().all(|j| j.priority == Priority::Critical));
    }

    #[test]
    fn graph_matches_job_fanout() {
        let p = Platform::default();
        let req = upload_req(12.0);
        let g = p.graph_for(&req);
        let steps = g.steps().iter();
        let transcode_steps = steps
            .filter(|s| matches!(s.kind, StepKind::TranscodeChunk { .. }))
            .count();
        assert_eq!(transcode_steps, 3, "3 chunks → 3 MOT steps");
    }

    #[test]
    fn live_latency_matches_paper_examples() {
        // Software VP9: 2 s chunks encoded in 10 s, 2 chunks buffered →
        // tens of seconds.
        let sw = live_latency_s(2.0, 5.0, 6.0);
        assert!(sw >= 20.0, "software latency {sw}");
        // VCU: faster than real time, small buffer → ~5 s (§4.5).
        let hw = live_latency_s(2.0, 0.4, 0.6);
        assert!((3.0..7.0).contains(&hw), "hardware latency {hw}");
    }

    #[test]
    fn jobs_for_all_sorted() {
        let p = Platform::default();
        let reqs = vec![upload_req(6.0), {
            let mut r = upload_req(6.0);
            r.arrival_s = 1.0;
            r
        }];
        let jobs = p.jobs_for_all(&reqs);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
