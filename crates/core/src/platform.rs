//! The video processing platform: requests → cluster jobs.
//!
//! Ties the stack together the way §2.2/§3.1 and §4.5 describe: an
//! arriving video is chunked into closed GOPs, and every chunk becomes
//! one MOT [`vcu_cluster::JobSpec`] per format. VCUs make H.264 and VP9
//! at upload affordable for every video, whatever its popularity, so
//! each chunk yields both.

use vcu_chip::TranscodeJob;
use vcu_cluster::{JobSpec, Priority};
use vcu_codec::Profile;
use vcu_workloads::{Request, WorkloadFamily};

/// Chunk length used by the platform, in seconds (the paper's examples
/// use 2–5 s chunks).
pub(crate) const CHUNK_SECONDS: f64 = 5.0;

/// The formats every chunk is transcoded to.
const PROFILES: [Profile; 2] = [Profile::H264Sim, Profile::Vp9Sim];

fn chunk_count(req: &Request) -> usize {
    (req.duration_s / CHUNK_SECONDS).ceil().max(1.0) as usize
}

/// Priority for a workload family.
fn priority_for(family: WorkloadFamily) -> Priority {
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

/// Expands a request into chunk-level cluster jobs: one MOT job per
/// chunk per format.
pub fn jobs_for(req: &Request) -> Vec<JobSpec> {
    let chunks = chunk_count(req);
    let chunk_s = req.duration_s / chunks as f64;
    let priority = priority_for(req.family);
    let video_id = video_id(req);
    let live = matches!(req.family, WorkloadFamily::Live | WorkloadFamily::Gaming);

    let mut out = Vec::new();
    for c in 0..chunks {
        // Live chunks arrive as the stream progresses; uploads are all
        // available at request arrival.
        let arrival = if live {
            req.arrival_s + c as f64 * chunk_s
        } else {
            req.arrival_s
        };
        for profile in PROFILES {
            let job = TranscodeJob::mot(req.resolution, profile, req.fps, chunk_s);
            out.push(JobSpec {
                arrival_s: arrival,
                job,
                priority,
                video_id,
            });
        }
    }
    out
}

/// Expands a whole request stream, sorted by arrival.
pub fn jobs_for_all(reqs: &[Request]) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = reqs.iter().flat_map(jobs_for).collect();
    jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    jobs
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
        let jobs = jobs_for(&upload_req(12.0));
        // 3 chunks × 2 formats (H.264 + VP9).
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().all(|j| j.job.is_mot()));
        assert!(jobs.iter().all(|j| j.arrival_s == 10.0));
    }

    #[test]
    fn every_popularity_bucket_gets_h264_and_vp9() {
        // §4.5: VCUs make VP9 at upload affordable for every video, not
        // only the popular head.
        for popularity in [
            PopularityBucket::Head,
            PopularityBucket::Middle,
            PopularityBucket::Tail,
        ] {
            let req = Request {
                popularity,
                ..upload_req(4.0)
            };
            let profiles: Vec<Profile> = jobs_for(&req)
                .iter()
                .map(|j| j.job.outputs[0].profile)
                .collect();
            assert_eq!(profiles, [Profile::H264Sim, Profile::Vp9Sim]);
        }
    }

    #[test]
    fn live_chunks_arrive_progressively() {
        let req = Request {
            family: WorkloadFamily::Live,
            duration_s: 15.0,
            ..upload_req(15.0)
        };
        let jobs = jobs_for(&req);
        let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival_s).collect();
        assert!(arrivals.iter().any(|&a| a > req.arrival_s));
        assert!(jobs.iter().all(|j| j.priority == Priority::Critical));
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
        let reqs = vec![upload_req(6.0), {
            let mut r = upload_req(6.0);
            r.arrival_s = 1.0;
            r
        }];
        let jobs = jobs_for_all(&reqs);
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
