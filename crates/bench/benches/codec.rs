//! Microbenchmarks for the codec substrate: the kernels the VCU
//! pipeline model prices (transform, entropy, search, filter) plus
//! whole encode/decode throughput per profile and toolset.
//!
//! Plain wall-clock timing (median-of-K; see `vcu_bench::timing`),
//! machine-readable output in `results/bench_codec.json`. Run:
//! `cargo bench -p vcu-bench --bench codec --offline`

use vcu_bench::timing::{host_cores, output_path, smoke, Harness};
use vcu_codec::entropy::{AdaptiveModel, BoolDecoder, BoolEncoder};
use vcu_codec::kernels;
use vcu_codec::motion::{satd, search, SearchParams};
use vcu_codec::stats::CodingStats;
use vcu_codec::tempfilter::temporal_filter;
use vcu_codec::transform::{forward, inverse};
use vcu_codec::types::MotionVector;
use vcu_codec::{decode, encode, encode_parallel, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_codec::{encode_batch, Encoded};
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Plane, Resolution, Video};

fn bench_transform(h: &mut Harness) {
    for &n in &[8usize, 16, 32] {
        let residual: Vec<i16> = (0..n * n).map(|i| ((i * 37) % 255) as i16 - 128).collect();
        let mut coeffs = vec![0.0; n * n];
        let mut back = vec![0i16; n * n];
        h.bench_elements(
            &format!("transform/fwd_inv/{n}"),
            Some((n * n) as u64),
            || {
                forward(&residual, n, &mut coeffs);
                inverse(&coeffs, n, &mut back);
            },
        );
    }
}

fn bench_entropy(h: &mut Harness) {
    let bits: Vec<bool> = (0..8192).map(|i| i % 37 < 7).collect();
    h.bench_elements("entropy/encode_8k_bits", Some(bits.len() as u64), || {
        let mut enc = BoolEncoder::new();
        let mut m = AdaptiveModel::new(4);
        for (i, &bit) in bits.iter().enumerate() {
            m.encode(&mut enc, i % 4, bit);
        }
        enc.finish()
    });
    let bytes = {
        let mut enc = BoolEncoder::new();
        let mut m = AdaptiveModel::new(4);
        for (i, &bit) in bits.iter().enumerate() {
            m.encode(&mut enc, i % 4, bit);
        }
        enc.finish()
    };
    h.bench_elements("entropy/decode_8k_bits", Some(bits.len() as u64), || {
        let mut dec = BoolDecoder::new(&bytes);
        let mut m = AdaptiveModel::new(4);
        let mut acc = 0u32;
        for i in 0..bits.len() {
            acc += m.decode(&mut dec, i % 4) as u32;
        }
        acc
    });
}

fn bench_motion(h: &mut Harness) {
    let reference = Plane::from_fn(256, 144, |x, y| (((x * 3) ^ (y * 7)) % 256) as u8);
    let current = Plane::from_fn(256, 144, |x, y| {
        reference.get_clamped(x as isize - 4, y as isize - 2)
    });
    for (name, params) in [
        ("hardware", SearchParams::hardware()),
        ("software", SearchParams::software()),
    ] {
        h.bench(&format!("motion/search16/{name}"), || {
            let mut stats = CodingStats::new();
            search(
                &reference,
                &current,
                64,
                64,
                16,
                16,
                MotionVector::ZERO,
                &params,
                &mut stats,
            )
        });
    }
    let a: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
    let b: Vec<u8> = (0..256).map(|i| (i * 11 % 251) as u8).collect();
    h.bench("motion/satd16", || satd(&a, &b, 16, 16));
}

/// Per-kernel micro-bench rows, one per available SIMD backend, so the
/// macro speedups can be attributed. Row naming (`codec/kern_<k>_<be>`)
/// is load-bearing: `vcu_bench::gates::bench` gates each committed SIMD
/// row against its `_scalar` sibling. Every row calls
/// the `*_with` dispatch variant, leaving the process-global backend
/// untouched.
fn bench_kernels(h: &mut Harness) {
    let backends = kernels::available_backends();
    let px = 32u64 * 32;

    let cur: Vec<u8> = (0..1024).map(|i: u32| (i * 7 % 251) as u8).collect();
    let pred: Vec<u8> = (0..1024).map(|i: u32| (i * 13 % 241) as u8).collect();
    for &bk in &backends {
        h.bench_elements(&format!("codec/kern_sad_{}", bk.name()), Some(px), || {
            kernels::sad_rows_thresholded_with(bk, &cur, &pred, 32, u64::MAX)
        });
    }
    for &bk in &backends {
        h.bench_elements(&format!("codec/kern_satd_{}", bk.name()), Some(px), || {
            kernels::satd_with(bk, &cur, &pred, 32, 32)
        });
    }

    let plane = Plane::from_fn(96, 96, |x, y| (((x * 5) ^ (y * 3)) % 256) as u8);
    let mut dst = vec![0u8; 1024];
    for &bk in &backends {
        h.bench_elements(&format!("codec/kern_hpel_{}", bk.name()), Some(px), || {
            kernels::plane_copy_block_hpel_with(bk, &plane, 8, 8, 1, 1, 32, 32, &mut dst);
        });
    }

    // Transform pass over a synthetic 32x32 basis (timing only; the
    // real bases are crate-private, and the arithmetic shape is what
    // matters here).
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
    for &bk in &backends {
        h.bench_elements(&format!("codec/kern_tx_{}", bk.name()), Some(px), || {
            kernels::tx_pass_strided_with(bk, &m_rows, &m_cols, &input, n, &mut out);
        });
    }
}

fn bench_temporal_filter(h: &mut Harness) {
    let v = SynthSpec::new(Resolution::R144, 3, ContentClass::talking_head(), 1).generate();
    let frames: Vec<_> = v.frames.iter().collect();
    h.bench("tempfilter/144p_3frames", || {
        let mut stats = CodingStats::new();
        temporal_filter(&frames, 1, &mut stats)
    });
}

fn bench_encode_decode(h: &mut Harness, frames: usize) {
    let v = SynthSpec::new(Resolution::R144, frames, ContentClass::ugc(), 9).generate();
    for (name, cfg) in [
        (
            "codec/encode_h264_sw",
            EncoderConfig::const_qp(Profile::H264Sim, Qp::new(32)),
        ),
        (
            "codec/encode_vp9_sw",
            EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32)),
        ),
        (
            "codec/encode_vp9_hw",
            EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32))
                .with_hardware(TuningLevel::MATURE),
        ),
    ] {
        h.bench_elements(name, Some(v.total_pixels()), || encode(&cfg, &v).unwrap());
    }
    let e = encode(&EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32)), &v).unwrap();
    h.bench_elements("codec/decode_vp9", Some(v.total_pixels()), || {
        decode(&e.bytes).unwrap()
    });
}

/// Chunk-parallel encode at 1/2/4 threads over the same clip. The
/// rows share one chunk plan, so they measure pure thread scaling; the
/// final assert pins the determinism contract (thread count must never
/// change the bitstream) in the bench itself.
fn bench_parallel_encode(h: &mut Harness, frames: usize, chunk_frames: usize) {
    let v = SynthSpec::new(Resolution::R144, frames, ContentClass::ugc(), 9).generate();
    let base = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let cfg = base.with_threads(threads);
        h.bench_elements(
            &format!("codec/encode_vp9_sw_t{threads}"),
            Some(v.total_pixels()),
            || encode_parallel(&cfg, &v, chunk_frames).unwrap(),
        );
        streams.push(encode_parallel(&cfg, &v, chunk_frames).unwrap().bytes);
    }
    assert!(
        streams.windows(2).all(|w| w[0] == w[1]),
        "thread count changed the chunked bitstream"
    );
}

/// Unbalanced batch: one clip ~10x the length of its siblings — the
/// shape that broke the old static round-robin, which pinned the big
/// clip plus every `i % threads`-aligned small one to a single worker
/// while its siblings idled. With work stealing, wall-clock should
/// track the critical path (the big clip), so on a host with cores to
/// spare the t4 row must land well under the t1 row; that regression
/// assert arms only off smoke mode on >= 4 cores, since a single-core
/// host cannot overlap anything.
fn bench_unbalanced_batch(h: &mut Harness, smoke: bool) {
    let (big_frames, n_small) = if smoke { (4usize, 4usize) } else { (10, 12) };
    let mut videos: Vec<Video> = Vec::with_capacity(1 + n_small);
    videos.push(SynthSpec::new(Resolution::R144, big_frames, ContentClass::ugc(), 9).generate());
    for i in 0..n_small {
        videos.push(
            SynthSpec::new(Resolution::R144, 1, ContentClass::ugc(), 30 + i as u64).generate(),
        );
    }
    let pixels: u64 = videos.iter().map(|v| v.total_pixels()).sum();
    let base = EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32));
    let mut medians = Vec::new();
    let mut streams: Vec<Vec<Encoded>> = Vec::new();
    for threads in [1usize, 4] {
        let cfg = base.with_threads(threads);
        let r = h.bench_elements(
            &format!("codec/encode_batch_unbalanced_t{threads}"),
            Some(pixels),
            || encode_batch(&cfg, &videos).unwrap(),
        );
        medians.push(r.median_ns);
        streams.push(encode_batch(&cfg, &videos).unwrap());
    }
    assert!(
        streams[0]
            .iter()
            .zip(&streams[1])
            .all(|(a, b)| a.bytes == b.bytes),
        "thread count changed an unbalanced batch's bitstreams"
    );
    if !smoke && host_cores() >= 4 {
        assert!(
            medians[1] <= medians[0] * 0.75,
            "unbalanced batch tracked the static share, not the critical path: \
             t4 {:.1} ms vs t1 {:.1} ms on a {}-core host",
            medians[1] / 1e6,
            medians[0] / 1e6,
            host_cores()
        );
    }
}

fn main() {
    let smoke = smoke();
    let mut h = Harness::new();
    bench_transform(&mut h);
    bench_entropy(&mut h);
    bench_motion(&mut h);
    bench_kernels(&mut h);
    bench_temporal_filter(&mut h);
    bench_encode_decode(&mut h, if smoke { 2 } else { 6 });
    let (pframes, pchunk) = if smoke { (4, 2) } else { (12, 3) };
    bench_parallel_encode(&mut h, pframes, pchunk);
    bench_unbalanced_batch(&mut h, smoke);
    h.write_json(&output_path("bench_codec"))
        .expect("write bench_codec results");
}
