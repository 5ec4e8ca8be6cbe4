//! Unit-cost probes: one public function of one layer, timed on fixed
//! inputs. They put a number on what a layer's spans are made of, and
//! run only in traced mode, after the timed loop.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use vcu_chip::{DesignPoint, ResourceDemand, TranscodeJob, VcuModel};
use vcu_cluster::{
    ClusterConfig, ClusterSim, EventQueue, JobSpec, Priority, Scheduler, SchedulerKind,
};
use vcu_codec::entropy::{AdaptiveModel, BoolEncoder};
use vcu_codec::motion::{search, SearchParams};
use vcu_codec::tempfilter::temporal_filter;
use vcu_codec::{kernels, CodingStats, MotionVector, Profile};
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Plane, Resolution};
use vcu_rng::Rng;
use vcu_serve::{seg_key, SegmentCache};
use vcu_workloads::{Catalog, DiurnalCurve, PopularityModel};

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 7;

/// Median seconds of `batches` calls of `f`.
pub fn median_secs<R>(batches: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median nanoseconds per call of `f`, `iters` calls per batch.
fn ns_per_call<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    median_secs(BATCHES, || {
        for _ in 0..iters {
            black_box(f());
        }
    }) * 1e9
        / iters as f64
}

/// `codec.kern_*_ns`: the four hot pixel kernels on one 32×32 block,
/// through the backend the process selected (not a named one).
pub fn codec_kernels() -> Vec<(&'static str, f64)> {
    let cur: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 251) as u8).collect();
    let pred: Vec<u8> = (0..1024u32).map(|i| (i * 13 % 241) as u8).collect();
    let plane = Plane::from_fn(96, 96, |x, y| (((x * 5) ^ (y * 3)) % 256) as u8);
    let mut dst = vec![0u8; 1024];
    // The real transform bases are crate-private; a dense 32×32 matrix
    // has the same arithmetic shape.
    let n = 32usize;
    let m_rows: Vec<f64> = (0..n * n).map(|i| ((i * 37 % 97) as f64) / 97.0).collect();
    let mut m_cols = vec![0.0f64; n * n];
    for q in 0..n {
        for s in 0..n {
            m_cols[s * n + q] = m_rows[q * n + s];
        }
    }
    let input: Vec<f64> = (0..n * n).map(|i| ((i * 11 % 61) as f64) - 30.0).collect();
    let mut out = vec![0.0f64; n * n];
    vec![
        (
            "codec.kern_sad_ns",
            ns_per_call(20_000, || {
                kernels::sad_rows_thresholded(black_box(&cur), &pred, 32, u64::MAX)
            }),
        ),
        (
            "codec.kern_satd_ns",
            ns_per_call(5_000, || kernels::satd(black_box(&cur), &pred, 32, 32)),
        ),
        (
            "codec.kern_hpel_ns",
            ns_per_call(10_000, || {
                kernels::plane_copy_block_hpel(black_box(&plane), 8, 8, 1, 1, 32, 32, &mut dst)
            }),
        ),
        (
            "codec.kern_tx_ns",
            ns_per_call(1_000, || {
                kernels::tx_pass_strided(&m_rows, &m_cols, black_box(&input), n, &mut out)
            }),
        ),
    ]
}

/// `codec.search16_ns`: one software-toolset 16×16 motion search.
pub fn codec_search16_ns() -> f64 {
    let reference = Plane::from_fn(256, 144, |x, y| (((x * 3) ^ (y * 7)) % 256) as u8);
    let current = Plane::from_fn(256, 144, |x, y| {
        reference.get_clamped(x as isize - 4, y as isize - 2)
    });
    let params = SearchParams::software();
    ns_per_call(500, || {
        let mut stats = CodingStats::new();
        search(
            &reference,
            black_box(&current),
            64,
            64,
            16,
            16,
            MotionVector::ZERO,
            &params,
            &mut stats,
        )
    })
}

/// `codec.entropy_ns_per_bit`: adaptive binary arithmetic encode.
pub fn codec_entropy_ns_per_bit() -> f64 {
    let bits: Vec<bool> = (0..8192).map(|i| i % 37 < 7).collect();
    ns_per_call(50, || {
        let mut enc = BoolEncoder::new();
        let mut model = AdaptiveModel::new(4);
        for (i, &bit) in bits.iter().enumerate() {
            model.encode(&mut enc, i % 4, bit);
        }
        enc.finish()
    }) / bits.len() as f64
}

/// `codec.tempfilter_ns_per_px`: altref temporal filter, 3 frames.
pub fn codec_tempfilter_ns_per_px() -> f64 {
    let v = SynthSpec::new(Resolution::R144, 3, ContentClass::talking_head(), 1).generate();
    let frames: Vec<_> = v.frames.iter().collect();
    ns_per_call(3, || {
        let mut stats = CodingStats::new();
        temporal_filter(black_box(&frames), 1, &mut stats)
    }) / Resolution::R144.pixels() as f64
}

/// `chip.job_demand_ns`: the §3.3.3 millicore mapping of one job.
pub fn chip_job_demand_ns(job: &TranscodeJob) -> f64 {
    let model = VcuModel::new();
    ns_per_call(100_000, || model.job_demand(black_box(job)))
}

/// `chip.for_design_ns`: building one off-anchor candidate's chip model
/// (the reference-store probe behind `DesignPoint::new` included) and
/// pricing one job on it — the per-candidate set-up of a sweep.
pub fn chip_for_design_ns(job: &TranscodeJob) -> f64 {
    ns_per_call(3, || {
        let design = DesignPoint::new(8, 2, 27.0, black_box(73_728));
        VcuModel::for_design(design).job_demand(job)
    })
}

/// `cluster.place_ns`: one release + one place on a `workers`-wide
/// scheduler held about 90 % full, the state placement sees mid-run.
pub fn cluster_place_ns(workers: usize, demand: ResourceDemand) -> f64 {
    let mut sched = Scheduler::new(SchedulerKind::MultiDim, workers, 1);
    let mut placed = Vec::new();
    while let Some(w) = sched.place(demand, 0) {
        placed.push(w);
    }
    let drop_n = placed.len() / 10;
    for w in placed.drain(..drop_n) {
        sched.release(w, demand);
    }
    let mut rng = Rng::seed_from_u64(0x9ace);
    ns_per_call(20_000, || {
        let i = rng.gen_range(0..placed.len());
        sched.release(placed[i], demand);
        placed[i] = sched.place(demand, 0).expect("a slot was just released");
    })
}

/// `cluster.queue_ns_per_op`: one schedule + one pop on an
/// `EventQueue` holding `resident` events.
pub fn cluster_queue_ns_per_op(resident: usize) -> f64 {
    let mut rng = Rng::seed_from_u64(0xde5);
    let mut q = EventQueue::with_capacity(resident + 1);
    for i in 0..resident {
        q.schedule(rng.gen_range(0.0..1e6), i as u32);
    }
    ns_per_call(50_000, || {
        let e = q.pop().expect("resident events");
        // Re-arm later than the popped time: the queue rejects the past.
        q.schedule(e.time + rng.gen_range(0.0..1e6), e.event);
    })
}

/// `cluster.small_sim_ms`: one 32-VCU simulation of `jobs` uniform
/// jobs — the size of one DSE leg.
pub fn cluster_small_sim_ms(job: &TranscodeJob, jobs: usize) -> f64 {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| JobSpec {
            arrival_s: i as f64 * 0.05,
            job: job.clone(),
            priority: Priority::Normal,
            video_id: (i / 4) as u64,
        })
        .collect();
    median_secs(3, || {
        let cfg = ClusterConfig {
            vcus: 32,
            ..ClusterConfig::default()
        };
        ClusterSim::new(cfg, specs.clone(), Vec::new()).run()
    }) * 1e3
}

/// `workloads.catalog_s`: generating a catalog of `videos` videos.
pub fn workloads_catalog_s(videos: usize, seed: u64) -> f64 {
    median_secs(3, || {
        Catalog::generate(videos, &PopularityModel::default(), 4, 8, seed)
    })
}

/// `workloads.zipf_ns_per_draw` and `serve.cache_ns_per_op`: popularity
/// draws from a `videos`-video catalog, then the same draws replayed as
/// lookup-else-insert against a `SegmentCache` at both capacities.
pub fn zipf_and_cache_ns(videos: usize, caches: [usize; 2], seed: u64) -> (f64, f64) {
    const DRAWS: usize = 200_000;
    let catalog = Catalog::generate(videos, &PopularityModel::default(), 4, 8, seed);
    let mut rng = Rng::seed_from_u64(seed);
    let zipf_ns = ns_per_call(DRAWS, || catalog.sample(&mut rng));
    let keys: Vec<(u64, bool)> = (0..DRAWS)
        .map(|_| {
            let v = catalog.sample(&mut rng);
            let segment = rng.gen_range(0..catalog.segments(v));
            (seg_key(v, segment), catalog.is_head(v))
        })
        .collect();
    let cache_s: f64 = caches
        .iter()
        .map(|&capacity| {
            median_secs(3, || {
                let mut cache = SegmentCache::new(capacity, 0.2);
                for &(key, head) in &keys {
                    if !cache.lookup(key) {
                        cache.insert(key, head);
                    }
                }
                cache.hits()
            })
        })
        .sum();
    (zipf_ns, cache_s * 1e9 / (2 * DRAWS) as f64)
}

/// `workloads.diurnal_ns_per_arrival`: thinning one period of a curve.
pub fn workloads_diurnal_ns_per_arrival(rate_per_s: f64, period_s: f64) -> f64 {
    let mut curve = DiurnalCurve::new(rate_per_s, 0.85, 20.0);
    curve.period_s = period_s;
    let mut rng = Rng::seed_from_u64(0xd1a);
    let mut arrivals = 0usize;
    let secs = median_secs(3, || {
        arrivals = curve.arrivals_in(0.0, period_s, &mut rng).len();
        arrivals
    });
    secs * 1e9 / arrivals.max(1) as f64
}

/// `rng.ns_per_u64`: one xoshiro256++ output.
pub fn rng_ns_per_u64() -> f64 {
    let mut rng = Rng::seed_from_u64(1);
    ns_per_call(2_000_000, || rng.next_u64())
}

/// The 1080p30 VP9 MOT chunk the fleet-scale workloads run.
pub fn mot_1080p(duration_s: f64) -> TranscodeJob {
    TranscodeJob::mot(Resolution::R1080, Profile::Vp9Sim, 30.0, duration_s)
}
