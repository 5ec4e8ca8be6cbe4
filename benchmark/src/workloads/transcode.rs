//! `transcode` — the pixel path on real frames. Codec, kernels, media
//! and exec do all the work and the DES does none, so a kernel or
//! entropy-coder change shows here and must show nowhere else.
//!
//! Set-up synthesises one clip per content class, splits each into
//! 6-frame closed-GOP chunks and encodes every chunk as an H264-sim
//! mezzanine. One repetition is three phases over all chunks:
//! A — `transcode_mot` per chunk (decode once, scale to the ladder,
//! VP9-sim encode per rung; hardware and software toolsets alternate),
//! one latency sample per chunk; B — `decode` of every output;
//! C — `encode_batch` of all raw chunks at `VCU_THREADS`.

use crate::harness::{best_phase, fastest, Ctx, Named, Ops, Rep, Stopwatch, Workload, MIN_REPS};
use crate::probes;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use std::time::Instant;
use vcu_codec::{
    decode, encode, encode_batch, CodecError, CodingStats, EncoderConfig, Profile, Qp, TuningLevel,
};
use vcu_media::quality::psnr_y_video;
use vcu_media::scale::scale_frame;
use vcu_media::synth::{ContentClass, SynthSpec};
use vcu_media::{Resolution, Video};
use vcu_rng::mix64;
use vcu_system::chunking::split;
use vcu_system::mot::transcode_mot;
use vcu_system::ChunkPlan;

/// Frames per closed-GOP chunk.
const CHUNK_FRAMES: usize = 6;

/// A decoded rung under this Y-PSNR against the scaled source is a
/// failed operation. Every class clears 30 dB at QP 32; noise-level
/// output sits near 10 dB.
const PSNR_FLOOR_DB: f64 = 24.0;

/// One clip: content class, top resolution, length in chunks.
type ClipSpec = (fn() -> ContentClass, Resolution, usize);

/// All five content classes at two resolutions; the high-motion clip is
/// about ten times longer than its siblings. 40 chunks: `MIN_REPS`
/// repetitions give the 200 latency samples a p95 needs, and one
/// repetition (about 3 s on two cores) fits a run five or six times.
const CLIPS: [ClipSpec; 5] = [
    (ContentClass::screen_content, Resolution::R240, 2),
    (ContentClass::talking_head, Resolution::R144, 3),
    (ContentClass::ugc, Resolution::R240, 2),
    (ContentClass::gaming, Resolution::R144, 3),
    (ContentClass::high_motion, Resolution::R144, 30),
];

/// The smoke run: one chunk per class; the 240p one exercises scaling.
const SMOKE_CLIPS: [ClipSpec; 5] = [
    (ContentClass::screen_content, Resolution::R240, 1),
    (ContentClass::talking_head, Resolution::R144, 1),
    (ContentClass::ugc, Resolution::R144, 1),
    (ContentClass::gaming, Resolution::R144, 1),
    (ContentClass::high_motion, Resolution::R144, 1),
];

/// One chunk's coded input and how to transcode it.
pub struct Chunk {
    mezzanine: Vec<u8>,
    top: Resolution,
    cfg: EncoderConfig,
}

/// Generated inputs.
pub struct Input {
    chunks: Vec<Chunk>,
    /// The raw chunks, index-aligned with `chunks` (phase C's input and
    /// the PSNR reference).
    raw: Vec<Video>,
    batch_cfg: EncoderConfig,
}

/// One chunk's coded outputs: per ladder rung, the stream.
type Rungs = Vec<(Resolution, Vec<u8>)>;

/// Everything a repetition produced. Equality is byte equality.
#[derive(PartialEq)]
pub struct Report {
    /// Phase A: per chunk, per rung, the coded stream.
    mot: Vec<Rungs>,
    /// Phase A work metering, summed.
    stats: CodingStats,
    /// Phase B: frames decoded from phase A's outputs.
    decoded_frames: u64,
    /// Phase C: per chunk, the coded stream.
    batch: Vec<Vec<u8>>,
    /// Calls that returned an error.
    errors: u64,
}

fn vp9() -> EncoderConfig {
    EncoderConfig::const_qp(Profile::Vp9Sim, Qp::new(32))
}

/// Output pixels of phase A (every rung of every chunk).
fn ladder_pixels(input: &Input) -> f64 {
    input
        .chunks
        .iter()
        .map(|c| c.top.ladder_pixels() * CHUNK_FRAMES as u64)
        .sum::<u64>() as f64
}

/// Y-PSNR of a coded rung against the raw chunk scaled to that rung;
/// `None` if it does not decode to the chunk's frames at the rung's size.
fn rung_psnr(src: &Video, rung: Resolution, bytes: &[u8]) -> Option<f64> {
    let d = decode(bytes).ok()?;
    let (w, h) = rung.dims();
    if d.video.frames.len() != src.frames.len() || (d.video.width(), d.video.height()) != (w, h) {
        return None;
    }
    let reference = Video::new(
        src.frames.iter().map(|f| scale_frame(f, w, h)).collect(),
        src.fps,
    );
    Some(psnr_y_video(&reference, &d.video))
}

/// `mot.rs`'s steps, each under its own span.
fn mot_traced(chunk: &Chunk, tr: &mut Tracer) -> Result<(Rungs, CodingStats), CodecError> {
    tr.span("system.mot", |tr| {
        let decoded = tr.span("codec.decode_in", |_| decode(&chunk.mezzanine))?;
        let mut stats = decoded.stats;
        let mut outputs = Vec::new();
        for rung in chunk.top.ladder() {
            let (w, h) = rung.dims();
            let scaled = if (w, h) == (decoded.video.width(), decoded.video.height()) {
                decoded.video.clone()
            } else {
                tr.count("media.frames", decoded.video.frames.len() as u64);
                tr.span("media.scale", |_| {
                    Video::new(
                        decoded
                            .video
                            .frames
                            .iter()
                            .map(|f| scale_frame(f, w, h))
                            .collect(),
                        decoded.video.fps,
                    )
                })
            };
            let e = tr.span("codec.encode", |_| encode(&chunk.cfg, &scaled))?;
            stats += e.stats;
            outputs.push((rung, e.bytes));
        }
        Ok((outputs, stats))
    })
}

/// The workload.
pub struct Transcode;

impl Workload for Transcode {
    type Input = Input;
    type Report = Report;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Input {
        let clips = if ctx.smoke { SMOKE_CLIPS } else { CLIPS };
        let mut raw = Vec::new();
        let mut tops = Vec::new();
        for (i, (class, res, chunks)) in clips.into_iter().enumerate() {
            let frames = chunks * CHUNK_FRAMES;
            let spec = SynthSpec::new(res, frames, class(), mix64(ctx.seed, i as u64));
            let clip = tr.span("media.synth", |_| spec.generate());
            let plan = ChunkPlan::uniform(frames, CHUNK_FRAMES);
            raw.extend(tr.span("system.split", |_| split(&clip, &plan)));
            tops.extend(std::iter::repeat_n(res, chunks));
        }
        let h264 = EncoderConfig::const_qp(Profile::H264Sim, Qp::new(24)).with_threads(ctx.threads);
        let mezzanines = tr
            .span("codec.mezzanine", |_| encode_batch(&h264, &raw))
            .expect("mezzanine encode of synthetic clips");
        let chunks = mezzanines
            .into_iter()
            .zip(tops)
            .enumerate()
            .map(|(i, (m, top))| Chunk {
                mezzanine: m.bytes,
                top,
                cfg: if i % 2 == 0 {
                    vp9().with_hardware(TuningLevel::MATURE)
                } else {
                    vp9()
                },
            })
            .collect();
        Input {
            chunks,
            raw,
            batch_cfg: vp9().with_threads(ctx.threads),
        }
    }

    fn rep(_ctx: &Ctx, input: &Input, tr: &mut Tracer) -> (Report, Rep) {
        let mut report = Report {
            mot: Vec::with_capacity(input.chunks.len()),
            stats: CodingStats::new(),
            decoded_frames: 0,
            batch: Vec::new(),
            errors: 0,
        };
        let mut samples_ms = Vec::with_capacity(input.chunks.len());

        let a = Stopwatch::start();
        for chunk in &input.chunks {
            let t0 = Instant::now();
            let result = if tr.enabled() {
                mot_traced(chunk, tr)
            } else {
                transcode_mot(&chunk.mezzanine, chunk.top, &chunk.cfg).map(|m| {
                    let outputs = m.outputs.into_iter().map(|(r, e)| (r, e.bytes)).collect();
                    (outputs, m.stats)
                })
            };
            samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok((outputs, stats)) => {
                    report.stats += stats;
                    report.mot.push(outputs);
                }
                Err(_) => {
                    report.errors += 1;
                    report.mot.push(Vec::new());
                }
            }
        }
        let a = a.stop();

        let b = Stopwatch::start();
        for (_, bytes) in report.mot.iter().flatten() {
            match tr.span("codec.decode", |_| decode(bytes)) {
                Ok(d) => report.decoded_frames += d.video.frames.len() as u64,
                Err(_) => report.errors += 1,
            }
        }
        let b = b.stop();

        let c = Stopwatch::start();
        match tr.span("exec.batch_tn", |_| {
            encode_batch(&input.batch_cfg, &input.raw)
        }) {
            Ok(encoded) => report.batch = encoded.into_iter().map(|e| e.bytes).collect(),
            Err(_) => report.errors += 1,
        }
        let c = c.stop();

        if tr.enabled() {
            // The single-thread leg of the same batch, for the speed-up;
            // outside this repetition's wall-clock.
            let one = input.batch_cfg.with_threads(1);
            let t1 = tr.span("exec.batch_t1", |_| encode_batch(&one, &input.raw));
            if t1.map_or(true, |e| e.iter().map(|e| &e.bytes).ne(&report.batch)) {
                report.errors += 1;
            }
        }

        let rep = Rep {
            samples_ms,
            ..Rep::timed(vec![a, b, c], tr)
        };
        (report, rep)
    }

    fn verify(_ctx: &Ctx, input: &Input, report: &Report, ops: &mut Ops) {
        ops.check(report.errors == 0, "no codec call returned an error");
        for (i, (outputs, src)) in report.mot.iter().zip(&input.raw).enumerate() {
            ops.check(
                outputs.len() == input.chunks[i].top.ladder().len(),
                "chunk has every ladder rung",
            );
            for (rung, bytes) in outputs {
                let ok = rung_psnr(src, *rung, bytes).is_some_and(|db| db >= PSNR_FLOOR_DB);
                ops.check(ok, "rung decodes to 6 frames above the PSNR floor");
            }
        }
        let sequential = input.batch_cfg.with_threads(1);
        for (bytes, src) in report.batch.iter().zip(&input.raw) {
            let same = encode(&sequential, src).is_ok_and(|e| &e.bytes == bytes);
            ops.check(same, "encode_batch bytes equal sequential encode");
        }
        ops.check(
            report.batch.len() == input.raw.len(),
            "batch encoded every chunk",
        );
    }

    fn named(_ctx: &Ctx, input: &Input, report: &Report, reps: &[Rep]) -> Vec<Named> {
        let out_mpix = ladder_pixels(input) / 1e6;
        let batch_mpix = input.raw.iter().map(Video::total_pixels).sum::<u64>() as f64 / 1e6;
        // Latency samples of the first MIN_REPS repetitions only: a
        // faster host fits more repetitions into a run, and the sample
        // count, hence the percentile read, must not depend on that.
        let samples: Vec<f64> = reps
            .iter()
            .take(MIN_REPS)
            .flat_map(|r| r.samples_ms.iter().copied())
            .collect();
        let t = tail(&samples);

        // Sim-clock values, from the report every repetition equalled.
        let mut psnr_sum = 0.0;
        let mut rungs = 0u32;
        for (outputs, src) in report.mot.iter().zip(&input.raw) {
            for (rung, bytes) in outputs {
                if let Some(db) = rung_psnr(src, *rung, bytes) {
                    psnr_sum += db;
                    rungs += 1;
                }
            }
        }
        // The mezzanine decode is metered too; coded output bits are
        // what the streams hold.
        let coded_bits: usize = report.mot.iter().flatten().map(|(_, b)| b.len() * 8).sum();
        vec![
            ("e2e.encode_mpix_per_s", out_mpix / best_phase(reps, 0).0),
            ("e2e.decode_mpix_per_s", out_mpix / best_phase(reps, 1).0),
            ("e2e.batch_mpix_per_s", batch_mpix / best_phase(reps, 2).0),
            ("e2e.chunk_p50_ms", median(&samples)),
            ("e2e.chunk_p95_ms", t.map_or(0.0, |t| t.value)),
            ("e2e.chunk_samples", samples.len() as f64),
            ("e2e.psnr_y_db", psnr_sum / f64::from(rungs.max(1))),
            (
                "e2e.bits_per_pixel",
                coded_bits as f64 / ladder_pixels(input),
            ),
        ]
    }

    fn layers(
        _ctx: &Ctx,
        _input: &Input,
        tr: &mut Tracer,
        report: &Report,
        _untraced: &[Rep],
        traced: &[Rep],
        _ops: &mut Ops,
    ) -> Vec<Named> {
        // Spans of the fastest traced repetition; counts repeat exactly,
        // so any repetition's share of the total is the count.
        let n = traced.len() as f64;
        let spans = tr.of(fastest(traced).op);
        let stats = report.stats;
        let (t1, tn) = (
            spans.total_s("exec.batch_t1"),
            spans.total_s("exec.batch_tn"),
        );
        let mut out = vec![
            // Set-up spans come from the one traced round of input generation.
            ("media.synth_s", tr.of(0).total_s("media.synth")),
            ("system.split_s", tr.of(0).total_s("system.split")),
            ("media.scale_s", spans.total_s("media.scale")),
            ("media.frames", tr.counted("media.frames") as f64 / n),
            ("codec.encode_s", spans.total_s("codec.encode")),
            ("codec.encode_calls", spans.calls("codec.encode") as f64),
            ("codec.encode_failed", report.errors as f64),
            ("codec.decode_s", spans.total_s("codec.decode")),
            ("codec.decode_calls", spans.calls("codec.decode") as f64),
            (
                "codec.sad_pixels_examined",
                stats.sad_pixels_examined as f64,
            ),
            ("codec.transform_pixels", stats.transform_pixels as f64),
            ("codec.mc_pixels", stats.mc_pixels as f64),
            ("codec.intra_pixels", stats.intra_pixels as f64),
            (
                "codec.tempfilter_pixels",
                stats.temporal_filter_pixels as f64,
            ),
            ("codec.deblock_pixels", stats.deblock_pixels as f64),
            ("codec.bits", stats.bits as f64),
            ("system.mot_self_s", spans.self_s("system.mot")),
            ("exec.batch_t1_s", t1),
            ("exec.batch_tn_s", tn),
            ("exec.batch_speedup_x", t1 / tn),
        ];
        out.extend(probes::codec_kernels());
        out.extend([
            ("codec.search16_ns", probes::codec_search16_ns()),
            (
                "codec.entropy_ns_per_bit",
                probes::codec_entropy_ns_per_bit(),
            ),
            (
                "codec.tempfilter_ns_per_px",
                probes::codec_tempfilter_ns_per_px(),
            ),
        ]);
        out
    }
}
